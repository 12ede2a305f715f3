//! World construction: run a rank program on the single-threaded
//! deterministic event loop and collect reports.

use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use pmm_model::{Cost, MachineParams};

use crate::fabric::Fabric;
use crate::fault::{FaultPanic, FaultPlan};
use crate::meter::Meter;
use crate::rank::Rank;
use crate::trace::{ChoicePoint, Repro, Schedule, ScheduleTrace};
use crate::tracer::{TraceEvent, Tracer};
use crate::verify::AbortPanic;

/// Worlds at or below this size run the vector-clock happens-before
/// audit by default; larger worlds skip it (each stamp copies an O(P)
/// clock onto every message, which is O(P²) total — prohibitive at the
/// 10^5–10^6 scales the event loop targets). Override with
/// [`World::with_vclock_audit`].
const VCLOCK_AUDIT_MAX_WORLD: usize = 4096;

/// Ranks torn down by a verifier abort or an injected kill unwind with a
/// sentinel payload ([`AbortPanic`], `FaultPanic`) that the event loop
/// catches and classifies — but each such unwind would also print the
/// default "panicked at" message, burying the one report that matters
/// under per-rank teardown noise. Chain a process-wide panic hook
/// (installed once; everything that is not a sentinel is delegated to the
/// previously installed hook) that swallows exactly those sentinels.
fn silence_abort_teardown_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<AbortPanic>().is_none()
                && info.payload().downcast_ref::<FaultPanic>().is_none()
            {
                prev(info);
            }
        }));
    });
}

/// Configuration for a simulated machine run.
///
/// ```
/// use pmm_simnet::{World, MachineParams};
/// let result = World::new(8, MachineParams::BANDWIDTH_ONLY)
///     .run(async |rank| rank.world_rank() * 2);
/// assert_eq!(result.values[3], 6);
/// ```
#[derive(Clone)]
pub struct World {
    size: usize,
    params: MachineParams,
    mem_limit: Option<u64>,
    trace: bool,
    strict_drain: bool,
    schedule: Option<Schedule>,
    faults: Option<FaultPlan>,
    record_schedule: Option<bool>,
    targeted_wakeup: Option<bool>,
    vclock_audit: Option<bool>,
}

/// One rank's resumable continuation on the event loop: `Some` while the
/// program is still suspended, `None` once it has produced its value and
/// report.
type RankCell<'f, T> = Option<Pin<Box<dyn Future<Output = (T, RankReport)> + 'f>>>;

impl World {
    /// A world of `size` ranks with machine parameters `params`.
    pub fn new(size: usize, params: MachineParams) -> World {
        assert!(size >= 1, "world size must be >= 1");
        World {
            size,
            params,
            mem_limit: None,
            trace: false,
            strict_drain: false,
            schedule: None,
            faults: None,
            record_schedule: None,
            targeted_wakeup: None,
            vclock_audit: None,
        }
    }

    /// Run under a seeded schedule: rank progress is serialized at every
    /// blocking point (mailbox receive, split rendezvous, barrier) and at
    /// every send / collective entry, with ties among runnable ranks
    /// broken by a PRNG seeded with `seed`. Identical `(program, seed)`
    /// pairs produce byte-identical schedule traces
    /// ([`WorldResult::schedule_trace`]); failure reports name the seed
    /// and a `PMM_SEED=` repro command. See also
    /// [`seed_from_env`](crate::trace::seed_from_env) and
    /// [`fuzz_schedules`](crate::trace::fuzz_schedules).
    #[must_use]
    pub fn with_seed(self, seed: u64) -> World {
        self.with_schedule(Schedule::Seeded(seed))
    }

    /// Run under an explicit [`Schedule`]: either [`Schedule::Seeded`]
    /// (what [`World::with_seed`] is sugar for) or [`Schedule::Prefix`] —
    /// replay a recorded choice prefix pick by pick, then complete
    /// canonically by always picking the smallest runnable rank. Prefix
    /// runs record the same trace and [`ChoicePoint`] stream as seeded
    /// runs ([`WorldResult::choice_points`]), which is what
    /// schedule-space exploration (`pmm-explore`) drives: each explored
    /// branch is just a `World` run with a longer prefix.
    ///
    /// A world given no schedule runs the canonical completion from its
    /// first pick, records nothing, and wakes blocked ranks by target
    /// (see [`World::with_targeted_wakeup`]); its failure reports name
    /// the empty prefix, which replays them.
    #[must_use]
    pub fn with_schedule(mut self, schedule: Schedule) -> World {
        self.schedule = Some(schedule);
        self
    }

    /// Turn recording of the [`ScheduleTrace`] / [`ChoicePoint`] stream
    /// on or off. By default worlds given a schedule record and worlds
    /// without one do not: the recorded ready-set snapshot is O(P) *per
    /// pick*, which is the difference between executing 10^6 ranks and
    /// drowning in bookkeeping. With recording off,
    /// [`WorldResult::schedule_trace`] and [`WorldResult::choice_points`]
    /// are `None`.
    #[must_use]
    pub fn with_schedule_recording(mut self, record: bool) -> World {
        self.record_schedule = Some(record);
        self
    }

    /// Choose the wake-up policy: with targeted wakeups a rank blocked on
    /// a mailbox / split / barrier becomes runnable only when *that*
    /// resource is touched, instead of at every unblock broadcast. This
    /// keeps the runnable set small at large `P` (fewer spurious
    /// ready→blocked→ready round trips), but changes which ranks are
    /// runnable at each pick and therefore the schedule stream — seeded
    /// golden traces recorded without it will not match. By default
    /// worlds without a schedule wake by target and worlds given one
    /// broadcast.
    #[must_use]
    pub fn with_targeted_wakeup(mut self, targeted: bool) -> World {
        self.targeted_wakeup = Some(targeted);
        self
    }

    /// Force the vector-clock happens-before audit on or off. By default
    /// it is on for worlds of at most 4096 ranks and off above that
    /// (every message would carry an O(P) clock — O(P²) words of pure
    /// bookkeeping at the scales the event loop targets).
    #[must_use]
    pub fn with_vclock_audit(mut self, audit: bool) -> World {
        self.vclock_audit = Some(audit);
        self
    }

    /// Whether ranks of this world stamp and audit vector clocks.
    fn vclock_audit_on(&self) -> bool {
        self.vclock_audit.unwrap_or(self.size <= VCLOCK_AUDIT_MAX_WORLD)
    }

    /// Attach a fault plan: message-level faults (drop / duplicate /
    /// corrupt / delay, absorbed by the reliable-delivery layer and
    /// metered as retry overhead), stragglers, and rank kills. Fault
    /// decisions draw from the plan's own seed when set, otherwise from
    /// the schedule seed's SplitMix64 stream — either way
    /// `(program, seed, plan)` replays byte-identically.
    ///
    /// Panics (on [`World::run`]) if the plan is malformed — rates
    /// outside `[0, 1)`, nonpositive straggler factors, etc.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> World {
        self.faults = Some(plan);
        self
    }

    /// Set a per-rank local memory capacity `M` in words (§6.2). `None`
    /// models the memory-independent setting (M = ∞).
    #[must_use]
    pub fn with_memory_limit(mut self, limit: Option<u64>) -> World {
        self.mem_limit = limit;
        self
    }

    /// Enable per-rank structured event traces (see [`crate::tracer`]):
    /// every message, compute call, collective entry, and phase scope is
    /// recorded with its word counts and clock interval, and
    /// [`WorldResult::tracer`] assembles the per-world [`Tracer`]
    /// analyses. Off by default — and genuinely zero-cost when off: no
    /// buffer exists and no emission site does more than one branch.
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> World {
        self.trace = trace;
        self
    }

    /// Additionally fail the run if any message was sent but never
    /// received (undrained mailboxes or receive stashes at exit), and
    /// verify that the meters conserve traffic globally (Σ sent = Σ
    /// received). Off by default: programs are allowed to exit with
    /// traffic in flight.
    #[must_use]
    pub fn with_strict_drain(mut self, strict: bool) -> World {
        self.strict_drain = strict;
        self
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The canonical replay recipe for runs of this world configuration
    /// (the empty prefix for a world given no schedule).
    pub fn repro(&self) -> Repro {
        self.schedule.as_ref().map_or(Repro::Prefix(Vec::new()), Schedule::repro)
    }

    /// Run `program` on every rank and collect the results.
    ///
    /// Every rank is a resumable continuation on a single-threaded
    /// deterministic event loop, so a world of P ranks costs P suspended
    /// futures, not P OS threads, and worlds of 10^5–10^6 ranks execute
    /// for real. The loop polls exactly the rank that holds the
    /// scheduler's baton; deadlock and prefix divergence are proven
    /// synchronously at pick time.
    ///
    /// A panic in any rank propagates (naming the rank) once the loop
    /// stops. If the verifier aborts the run (deadlock, collective
    /// mismatch), `run` panics with the verifier's report.
    pub fn run<T, F>(&self, program: F) -> WorldResult<T>
    where
        F: AsyncFn(&mut Rank) -> T,
    {
        match self.execute(&program) {
            Ok(out) => out,
            Err(raw) => {
                let note = raw.repro.note();
                match raw.error {
                    RunError::Report(report) => panic!("{report}\n[{note}]"),
                    RunError::RankPanic { rank, payload } => {
                        eprintln!("pmm-simnet: rank {rank} panicked [{note}]");
                        std::panic::resume_unwind(payload);
                    }
                }
            }
        }
    }

    /// Like [`World::run`], but capture every failure — rank panic,
    /// verifier abort, unhandled rank failure, strict-drain violation —
    /// as a [`RunFailure`] value instead of panicking. The failure
    /// carries whatever the scheduler recorded before the run died
    /// (trace, [`ChoicePoint`] stream, replay recipe), which is what lets
    /// schedule-space exploration keep walking the choice tree through
    /// failing branches.
    pub fn try_run<T, F>(&self, program: F) -> Result<WorldResult<T>, RunFailure>
    where
        F: AsyncFn(&mut Rank) -> T,
    {
        self.execute(&program).map_err(|raw| {
            let report = match raw.error {
                RunError::Report(r) => r,
                RunError::RankPanic { rank, payload } => {
                    format!("pmm-simnet: rank {rank} panicked: {}", panic_message(&*payload))
                }
            };
            RunFailure {
                report,
                repro: raw.repro,
                schedule_trace: raw.schedule_trace,
                choice_points: raw.choice_points,
            }
        })
    }

    /// Build the fabric: schedule, recording and wake-up policy, and
    /// fault plan. No explicit fault seed: derive one from the schedule
    /// seed's SplitMix64 stream (0 for prefix-replay worlds and worlds
    /// without a schedule), so a single PMM_SEED pins both the
    /// interleaving and the fault pattern.
    fn make_fabric(&self) -> Fabric {
        let scheduled = self.schedule.is_some();
        let mut fabric = Fabric::new(
            self.size,
            self.schedule.clone().unwrap_or(Schedule::Prefix(Vec::new())),
            self.record_schedule.unwrap_or(scheduled),
            self.targeted_wakeup.unwrap_or(!scheduled),
        );
        if let Some(plan) = &self.faults {
            let fault_seed = plan.seed.unwrap_or_else(|| {
                let mut s = match &self.schedule {
                    Some(Schedule::Seeded(seed)) => *seed,
                    _ => 0,
                };
                crate::fabric::splitmix64(&mut s)
            });
            fabric.enable_faults(plan.clone(), fault_seed);
        }
        fabric
    }

    /// The event loop. Every rank is a pinned continuation in a slab
    /// ([`RankCell`]s); the loop polls exactly the rank the scheduler's
    /// baton names, so a blocked rank costs one suspended future.
    fn execute<T, F>(&self, program: &F) -> Result<WorldResult<T>, RunFailureRaw>
    where
        F: AsyncFn(&mut Rank) -> T,
    {
        silence_abort_teardown_panics();
        let fabric = Rc::new(self.make_fabric());
        let members: Rc<Vec<usize>> = Rc::new((0..self.size).collect());
        let strict_drain = self.strict_drain;
        let vclock_audit = self.vclock_audit_on();

        let mut slots: Vec<Option<(T, RankReport)>> = Vec::with_capacity(self.size);
        let mut cells: Vec<RankCell<'_, T>> = Vec::with_capacity(self.size);
        for r in 0..self.size {
            slots.push(None);
            let fabric = fabric.clone();
            let members = members.clone();
            let params = self.params;
            let mem_limit = self.mem_limit;
            let trace = self.trace;
            cells.push(Some(Box::pin(async move {
                let mut rank =
                    Rank::new(r, members, fabric.clone(), params, mem_limit, trace, vclock_audit);
                let value = program(&mut rank).await;
                if strict_drain {
                    if let Some(desc) = rank.undrained_stash() {
                        // A verifier abort, not a rank panic: the
                        // violation surfaces as a report and the
                        // AbortPanic teardown stays quiet.
                        fabric.abort(format!(
                            "pmm-verify: rank {r} finished with undrained receive \
                             stash: {desc}"
                        ));
                        fabric.verify.abort_panic(r);
                    }
                }
                let report = RankReport {
                    meter: rank.meter(),
                    time: rank.time(),
                    peak_mem_words: rank.mem().peak(),
                    trace: rank.take_trace(),
                    final_vclock: rank.final_vclock(),
                };
                (value, report)
            })));
        }

        fabric.sched_start();

        let mut remaining = self.size;
        let mut first_panic: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
        let mut abort_note: Option<String> = None;
        let mut fault_note: Option<String> = None;
        let mut cx = Context::from_waker(Waker::noop());
        while remaining > 0 && !fabric.verify.is_aborted() {
            let Some(r) = fabric.sched_current() else {
                panic!(
                    "pmm-engine: event loop stalled with {remaining} unfinished rank(s) and \
                     no baton holder — scheduler bug"
                );
            };
            let cell = cells[r].as_mut().expect("baton held by a finished rank");
            let polled = std::panic::catch_unwind(AssertUnwindSafe(|| cell.as_mut().poll(&mut cx)));
            match polled {
                // The continuation yielded the baton; the pick it made on
                // the way out tells the next iteration whom to poll.
                Ok(Poll::Pending) => continue,
                Ok(Poll::Ready(done)) => slots[r] = Some(done),
                // Ranks torn down by a verifier abort carry an
                // AbortPanic; the report is raised once, below. A
                // FaultPanic is an injected kill the program chose not to
                // catch — reported once, after genuine panics. Any other
                // panic is the program's own and wins.
                Err(payload) => {
                    if let Some(AbortPanic(note)) = payload.downcast_ref::<AbortPanic>() {
                        abort_note.get_or_insert_with(|| note.clone());
                    } else if let Some(FaultPanic(failed)) = payload.downcast_ref::<FaultPanic>() {
                        fault_note.get_or_insert_with(|| failed.to_string());
                    } else {
                        first_panic.get_or_insert((r, payload));
                    }
                }
            }
            cells[r] = None;
            remaining -= 1;
            fabric.sched_finish(r);
            fabric.verify.clear_wait(r);
        }

        // Continuations of ranks that never ran to completion (the world
        // aborted) are dropped here, outside any unwind; flag the teardown
        // so leak checks in Drop impls (RecvRequest) stay quiet.
        if cells.iter().any(Option::is_some) {
            crate::rank::begin_abort_teardown();
            cells.clear();
            crate::rank::end_abort_teardown();
        }
        drop(cells);

        let fail = |error: RunError| RunFailureRaw {
            error,
            repro: fabric.sched_repro(),
            schedule_trace: fabric.take_sched_trace(),
            choice_points: fabric.take_choice_points(),
        };
        if let Some((rank, payload)) = first_panic {
            return Err(fail(RunError::RankPanic { rank, payload }));
        }
        if fabric.verify.is_aborted() {
            let report = fabric
                .verify
                .report_text()
                .or(abort_note)
                .unwrap_or_else(|| "pmm-verify: world aborted with no stored report".into());
            return Err(fail(RunError::Report(report)));
        }
        if let Some(detail) = fault_note {
            return Err(fail(RunError::Report(format!(
                "pmm-fault: rank failure was not handled by the program — {detail}\n\
                 (wrap the failable region in catch_failures_async! to recover)"
            ))));
        }

        if strict_drain {
            let residual = fabric.residual_messages();
            if !residual.is_empty() {
                return Err(fail(RunError::Report(format!(
                    "pmm-verify: world finished with {} undrained mailbox(es) \
                     [(ctx, member, messages)]: {residual:?}",
                    residual.len()
                ))));
            }
        }

        let (values, reports): (Vec<T>, Vec<RankReport>) =
            slots.into_iter().map(|s| s.expect("rank completed without panicking")).unzip();

        if strict_drain {
            let sent: u64 = reports.iter().map(|r| r.meter.words_sent).sum();
            let recv: u64 = reports.iter().map(|r| r.meter.words_recv).sum();
            let msent: u64 = reports.iter().map(|r| r.meter.msgs_sent).sum();
            let mrecv: u64 = reports.iter().map(|r| r.meter.msgs_recv).sum();
            if sent != recv || msent != mrecv {
                return Err(fail(RunError::Report(format!(
                    "pmm-verify: meter conservation violated: {sent} words sent vs {recv} \
                     received, {msent} messages sent vs {mrecv} received"
                ))));
            }
        }
        Ok(WorldResult {
            params: self.params,
            values,
            reports,
            schedule_trace: fabric.take_sched_trace(),
            choice_points: fabric.take_choice_points(),
        })
    }
}

/// How a run died, before formatting.
enum RunError {
    /// A report-shaped failure (verifier abort, unhandled rank failure,
    /// strict-drain violation).
    Report(String),
    /// A rank's program panicked with its own payload.
    RankPanic { rank: usize, payload: Box<dyn std::any::Any + Send> },
}

/// [`World::run`]'s raw error: the failure plus the scheduler artifacts
/// harvested from the fabric.
struct RunFailureRaw {
    error: RunError,
    repro: Repro,
    schedule_trace: Option<ScheduleTrace>,
    choice_points: Option<Vec<ChoicePoint>>,
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(AbortPanic(s)) = payload.downcast_ref::<AbortPanic>() {
        s.clone()
    } else if let Some(FaultPanic(f)) = payload.downcast_ref::<FaultPanic>() {
        f.to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A failed [`World::try_run`], as a value: the failure report, the
/// canonical replay recipe ([`Repro`]), and the schedule artifacts
/// recorded before the run died.
#[derive(Debug)]
pub struct RunFailure {
    /// The failure report (verifier report, rank panic text, fault note,
    /// strict-drain violation, ...).
    pub report: String,
    /// Canonical replay recipe for this run's schedule.
    pub repro: Repro,
    /// Schedule trace recorded up to the failure; `Some` iff the run was
    /// deterministic.
    pub schedule_trace: Option<ScheduleTrace>,
    /// [`ChoicePoint`] stream recorded up to the failure; `Some` iff the
    /// run was deterministic.
    pub choice_points: Option<Vec<ChoicePoint>>,
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}\n[{}]", self.report, self.repro.note())
    }
}

impl std::error::Error for RunFailure {}

/// Final accounting for one rank.
#[derive(Debug, Clone)]
pub struct RankReport {
    /// Cumulative traffic/compute counters.
    pub meter: Meter,
    /// Final critical-path clock.
    pub time: f64,
    /// Memory high-water mark in words.
    pub peak_mem_words: u64,
    /// Structured event trace, if the world ran with
    /// [`World::with_trace`]`(true)`.
    pub trace: Option<Vec<TraceEvent>>,
    /// Final happens-before vector clock, indexed by world rank (see
    /// `crate::verify`).
    pub final_vclock: Vec<u64>,
}

/// Results of a [`World::run`]: per-rank return values and reports, plus
/// aggregate views.
#[derive(Debug)]
pub struct WorldResult<T> {
    /// Machine parameters of the run.
    pub params: MachineParams,
    /// Per-rank return values, indexed by world rank.
    pub values: Vec<T>,
    /// Per-rank reports, indexed by world rank.
    pub reports: Vec<RankReport>,
    /// The recorded schedule trace; `Some` iff the world ran under
    /// [`World::with_seed`] / [`World::with_schedule`]. Byte-identical
    /// across runs of the same `(program, schedule)` pair — see
    /// [`ScheduleTrace::render`].
    pub schedule_trace: Option<ScheduleTrace>,
    /// The recorded scheduler pick stream; `Some` iff the world ran
    /// deterministically. One [`ChoicePoint`] per pick: the runnable
    /// set, the chosen rank, and the fabric resources the chosen
    /// segment touched — the raw material for schedule-space
    /// exploration (replay any prefix of `chosen` values via
    /// [`Schedule::Prefix`] to steer a re-run down the same branch).
    pub choice_points: Option<Vec<ChoicePoint>>,
}

impl<T> WorldResult<T> {
    /// The simulated makespan: the maximum final clock over ranks. Under
    /// [`MachineParams::BANDWIDTH_ONLY`] this is the bandwidth cost along
    /// the critical path — the quantity Theorem 3 lower-bounds.
    pub fn critical_path_time(&self) -> f64 {
        self.reports.iter().map(|r| r.time).fold(0.0, f64::max)
    }

    /// Total words sent across all ranks (each word counted once at the
    /// sender).
    pub fn total_words_sent(&self) -> f64 {
        self.reports.iter().map(|r| r.meter.words_sent as f64).sum()
    }

    /// Maximum over ranks of `max(words_sent, words_recv)` — the per-rank
    /// duplex communication volume.
    pub fn max_duplex_words(&self) -> u64 {
        self.reports.iter().map(|r| r.meter.duplex_words()).max().unwrap_or(0)
    }

    /// Maximum flops performed by any rank.
    pub fn max_flops(&self) -> f64 {
        self.reports.iter().map(|r| r.meter.flops).fold(0.0, f64::max)
    }

    /// Maximum memory high-water mark over ranks, in words.
    pub fn max_peak_mem_words(&self) -> u64 {
        self.reports.iter().map(|r| r.peak_mem_words).max().unwrap_or(0)
    }

    /// Assemble the per-world [`Tracer`] from the per-rank event streams;
    /// `Some` iff the world ran with [`World::with_trace`]`(true)`. The
    /// tracer provides per-phase goodput totals, the critical-path
    /// attribution, and the Chrome JSON / text exports (see
    /// [`crate::tracer`]).
    pub fn tracer(&self) -> Option<Tracer> {
        let streams: Option<Vec<Vec<TraceEvent>>> =
            self.reports.iter().map(|r| r.trace.clone()).collect();
        streams.map(Tracer::from_streams)
    }

    /// Aggregate critical-path [`Cost`] view: message/word/flop maxima are
    /// taken per rank and the largest is reported (exact for the
    /// symmetric schedules used throughout this workspace).
    pub fn critical_path_cost(&self) -> Cost {
        let mut c = Cost::ZERO;
        for r in &self.reports {
            c = c.par(Cost {
                messages: r.meter.msgs_sent.max(r.meter.msgs_recv) as f64,
                words: r.meter.duplex_words() as f64,
                flops: r.meter.flops,
            });
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::CollectiveOp;

    fn bw() -> MachineParams {
        MachineParams::BANDWIDTH_ONLY
    }

    #[test]
    fn values_are_indexed_by_world_rank() {
        let out = World::new(5, bw()).run(async |r| r.world_rank());
        assert_eq!(out.values, vec![0, 1, 2, 3, 4]);
        assert_eq!(out.reports.len(), 5);
    }

    #[test]
    fn aggregates_on_idle_world_are_zero() {
        let out = World::new(3, bw()).run(async |_| ());
        assert_eq!(out.critical_path_time(), 0.0);
        assert_eq!(out.total_words_sent(), 0.0);
        assert_eq!(out.max_duplex_words(), 0);
        assert_eq!(out.max_peak_mem_words(), 0);
    }

    #[test]
    fn critical_path_is_max_over_ranks() {
        let out = World::new(4, MachineParams::new(0.0, 0.0, 1.0))
            .run(async |r| r.compute((r.world_rank() * 10) as f64));
        assert_eq!(out.critical_path_time(), 30.0);
        assert_eq!(out.max_flops(), 30.0);
    }

    #[test]
    #[should_panic]
    fn rank_panic_propagates() {
        World::new(2, bw()).run(async |r| {
            if r.world_rank() == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn many_ranks_spawn_and_join() {
        let out = World::new(128, bw()).run(async |r| r.world_rank());
        assert_eq!(out.values.len(), 128);
    }

    #[test]
    fn hard_sync_allows_phase_delimiting() {
        let out = World::new(4, bw()).run(async |r| {
            r.hard_sync_a().await;
            r.time()
        });
        assert_eq!(out.values, vec![0.0; 4], "hard_sync is not metered");
    }

    /// An all-to-one program with enough concurrency for schedules to
    /// actually differ between seeds.
    async fn gather_program(rank: &mut Rank) -> f64 {
        let wc = rank.world_comm();
        if rank.world_rank() == 0 {
            let mut sum = 0.0;
            for from in 1..wc.size() {
                sum += rank.recv_a(&wc, from).await.payload[0];
            }
            sum
        } else {
            rank.send_a(&wc, 0, &[rank.world_rank() as f64]).await;
            0.0
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_traces() {
        let run = || World::new(6, bw()).with_seed(42).run(gather_program);
        let (a, b) = (run(), run());
        let ta = a.schedule_trace.expect("seeded run records a trace");
        let tb = b.schedule_trace.expect("seeded run records a trace");
        assert!(!ta.events.is_empty());
        assert_eq!(ta.render(), tb.render(), "same (program, seed) must replay byte-identically");
        ta.assert_matches(&tb);
    }

    #[test]
    fn different_seeds_change_the_schedule_but_not_the_result() {
        let run = |s| World::new(6, bw()).with_seed(s).run(gather_program);
        let outs: Vec<_> = (0u64..8).map(run).collect();
        assert!(
            outs.windows(2).any(|w| {
                let (x, y) = (w[0].schedule_trace.as_ref(), w[1].schedule_trace.as_ref());
                x.expect("trace").events != y.expect("trace").events
            }),
            "8 seeds on a 6-rank gather should exercise more than one schedule"
        );
        for o in &outs {
            assert_eq!(o.values[0], 15.0, "result must not depend on the schedule");
        }
    }

    #[test]
    fn worlds_without_a_schedule_record_nothing() {
        let out = World::new(6, bw()).run(gather_program);
        assert_eq!(out.values[0], 15.0);
        assert!(out.schedule_trace.is_none());
        assert!(out.choice_points.is_none());
        // The explicit setter still overrides the default.
        let recorded = World::new(6, bw()).with_schedule_recording(true).run(gather_program);
        assert!(recorded.schedule_trace.is_some());
    }

    #[test]
    fn choice_points_record_ready_sets_and_footprints() {
        let out = World::new(4, bw()).with_seed(11).run(gather_program);
        let choices = out.choice_points.expect("deterministic run records choice points");
        assert!(!choices.is_empty());
        for cp in &choices {
            assert!(cp.ready.contains(&cp.chosen), "{cp:?}");
            assert!(cp.ready.windows(2).all(|w| w[0] < w[1]), "ready must be ascending: {cp:?}");
        }
        assert!(
            choices.iter().any(|cp| !cp.touched.is_empty()),
            "a gather must touch mailboxes somewhere"
        );
    }

    #[test]
    fn full_prefix_replay_reproduces_the_seeded_run() {
        let seeded = World::new(5, bw()).with_seed(3).run(gather_program);
        let prefix: Vec<usize> =
            seeded.choice_points.as_ref().expect("choices").iter().map(|c| c.chosen).collect();
        let replay =
            World::new(5, bw()).with_schedule(Schedule::Prefix(prefix.clone())).run(gather_program);
        assert_eq!(replay.values, seeded.values);
        assert_eq!(
            seeded.schedule_trace.expect("trace").events,
            replay.schedule_trace.expect("trace").events,
            "replaying the full chosen prefix must reproduce the event log"
        );
        let replayed: Vec<usize> =
            replay.choice_points.expect("choices").iter().map(|c| c.chosen).collect();
        assert_eq!(replayed, prefix);
    }

    #[test]
    fn empty_prefix_is_the_canonical_schedule_and_is_deterministic() {
        let run =
            || World::new(4, bw()).with_schedule(Schedule::Prefix(Vec::new())).run(gather_program);
        let (a, b) = (run(), run());
        assert_eq!(a.values, b.values);
        assert_eq!(
            a.schedule_trace.expect("trace").events,
            b.schedule_trace.expect("trace").events
        );
    }

    #[test]
    fn diverging_prefix_aborts_with_a_prefix_repro() {
        let err = std::panic::catch_unwind(|| {
            World::new(2, bw())
                .with_schedule(Schedule::Prefix(vec![1, 1, 1, 1, 1, 1, 1, 1]))
                .run(async |_| ())
        })
        .expect_err("a prefix that demands a finished rank must abort");
        let msg = err.downcast_ref::<String>().expect("panic message is a String");
        assert!(msg.contains("schedule prefix diverged"), "{msg}");
        assert!(msg.contains("PMM_SCHEDULE=prefix:1"), "{msg}");
    }

    /// Rank 0 receives from rank 1, which never sends.
    async fn orphan_recv(r: &mut Rank) {
        let wc = r.world_comm();
        if r.world_rank() == 0 {
            r.recv_a(&wc, 1).await;
        }
    }

    #[test]
    fn try_run_captures_deadlock_as_a_value_with_choices() {
        let failure = World::new(2, bw())
            .with_schedule(Schedule::Prefix(Vec::new()))
            .try_run(orphan_recv)
            .expect_err("deadlocked run must fail");
        assert!(failure.report.contains("deadlock detected"), "{}", failure.report);
        assert!(matches!(failure.repro, crate::trace::Repro::Prefix(_)), "{:?}", failure.repro);
        assert!(failure.to_string().contains("PMM_SCHEDULE=prefix:"), "{failure}");
        let choices = failure.choice_points.expect("choices recorded up to the failure");
        assert!(!choices.is_empty());
    }

    #[test]
    fn receive_from_a_finished_rank_is_a_deadlock_naming_rank_and_call_site() {
        // No schedule: nothing is recorded, yet the report names the
        // blocked rank, its peer, and the call site, and its repro (the
        // empty prefix) replays the failure.
        let failure = World::new(2, bw()).try_run(orphan_recv).expect_err("must deadlock");
        let report = &failure.report;
        assert!(report.contains("deadlock detected"), "{report}");
        assert!(report.contains("rank 0: blocked in recv(from world rank 1)"), "{report}");
        assert!(report.contains("waiting on ranks [1]"), "{report}");
        assert!(report.contains(file!()), "the user call site is named: {report}");
        assert_eq!(failure.repro, Repro::Prefix(Vec::new()));
        let replay = World::new(2, bw())
            .with_schedule(Schedule::Prefix(Vec::new()))
            .try_run(orphan_recv)
            .expect_err("the repro replays the deadlock");
        assert!(replay.report.contains("deadlock detected"), "{}", replay.report);
    }

    #[test]
    fn mutual_receive_reports_its_cycle() {
        let failure = World::new(2, bw())
            .try_run(async |r| {
                let wc = r.world_comm();
                r.recv_a(&wc, 1 - r.world_rank()).await;
            })
            .expect_err("mutual receive must deadlock");
        let report = &failure.report;
        assert!(report.contains("deadlock detected"), "{report}");
        assert!(report.contains("wait-for cycle: rank 0 -> rank 1 -> rank 0"), "{report}");
    }

    #[test]
    fn abort_tears_down_a_blocked_receive() {
        // Rank 0 blocks receiving from rank 1; ranks 1 and 2 then enter
        // mismatched collectives. The verifier aborts the world, which
        // must tear rank 0 down too, and the run reports the mismatch.
        let failure = World::new(3, bw())
            .try_run(async |r| {
                let wc = r.world_comm();
                match r.world_rank() {
                    0 => drop(r.recv_a(&wc, 1).await),
                    1 => r.collective_begin_a(&wc, CollectiveOp::AllGather, 1).await,
                    _ => r.collective_begin_a(&wc, CollectiveOp::AllReduce, 1).await,
                }
            })
            .expect_err("a collective mismatch aborts the world");
        assert!(failure.report.contains("collective mismatch"), "{}", failure.report);
        assert!(!failure.report.contains("deadlock"), "{}", failure.report);
    }

    #[test]
    fn dead_rank_completes_a_pending_split_with_survivors_only() {
        // Ranks 0 and 1 deposit and wait; rank 2 is killed on entering
        // the split, which must complete the rendezvous without it.
        let out =
            World::new(3, bw()).with_faults(FaultPlan::none().with_kill(2, 1)).run(async |r| {
                let wc = r.world_comm();
                let me = r.world_rank();
                let group = crate::catch_failures_async!(r, async {
                    r.split_a(&wc, 0, me as i64).await.expect("color 0").members().to_vec()
                });
                group.ok()
            });
        assert_eq!(out.values, vec![Some(vec![0, 1]), Some(vec![0, 1]), None]);
    }

    #[test]
    fn fault_kick_interrupts_a_blocked_receive() {
        let out =
            World::new(2, bw()).with_faults(FaultPlan::none().with_kill(1, 1)).run(async |r| {
                let wc = r.world_comm();
                let me = r.world_rank();
                let res = crate::catch_failures_async!(r, async {
                    if me == 0 {
                        r.recv_a(&wc, 1).await; // blocks, then is kicked
                    } else {
                        r.send_a(&wc, 0, &[1.0]).await; // killed here
                    }
                });
                res.map_err(|e| e.rank)
            });
        assert_eq!(out.values, vec![Err(1), Err(1)]);
    }

    #[test]
    fn kill_is_reported_as_a_rank_failure_not_a_wait_for_cycle() {
        // Rank 0 waits on rank 1 outside any catching scope; rank 1 dies.
        let failure = World::new(2, bw())
            .with_seed(7)
            .with_faults(FaultPlan::none().with_kill(1, 1))
            .try_run(async |r| {
                let wc = r.world_comm();
                if r.world_rank() == 0 {
                    r.recv_a(&wc, 1).await;
                } else {
                    r.send_a(&wc, 0, &[1.0]).await;
                }
            })
            .expect_err("an uncaught kill fails the run");
        let report = &failure.report;
        assert!(report.contains("rank failure"), "{report}");
        assert!(report.contains("kill=1@1"), "{report}");
        assert!(report.contains("PMM_SEED=7"), "{report}");
        assert!(!report.contains("deadlock detected"), "{report}");
        assert!(!report.contains("wait-for cycle"), "{report}");
    }

    #[test]
    fn splits_barriers_and_exchanges() {
        let out = World::new(8, bw()).with_seed(5).run(async |rank| {
            let wc = rank.world_comm();
            let r = rank.world_rank();
            let half = rank.split_a(&wc, (r / 4) as i64, r as i64).await.unwrap();
            rank.hard_sync_a().await;
            let m = rank.sendrecv_a(&half, half.size() - 1 - half.index(), &[r as f64]).await;
            m.payload[0] as usize
        });
        assert_eq!(out.values, vec![3, 2, 1, 0, 7, 6, 5, 4]);
    }

    #[test]
    fn schedule_recording_off_drops_artifacts_but_not_results() {
        let out =
            World::new(6, bw()).with_seed(9).with_schedule_recording(false).run(gather_program);
        assert_eq!(out.values[0], 15.0);
        assert!(out.schedule_trace.is_none());
        assert!(out.choice_points.is_none());
    }

    #[test]
    fn targeted_wakeup_changes_bookkeeping_not_results() {
        let base = World::new(6, bw()).with_seed(2).run(gather_program);
        let targeted =
            World::new(6, bw()).with_seed(2).with_targeted_wakeup(true).run(gather_program);
        assert_eq!(base.values, targeted.values);
        for (a, b) in base.reports.iter().zip(&targeted.reports) {
            assert_eq!(a.meter, b.meter);
            assert_eq!(a.time, b.time);
        }
        // The explicit setter also overrides the default of a world
        // without a schedule.
        let broadcast = World::new(6, bw()).with_targeted_wakeup(false).run(gather_program);
        assert_eq!(broadcast.values, base.values);
    }

    #[test]
    fn vclock_audit_off_empties_final_clocks() {
        let out = World::new(4, bw()).with_vclock_audit(false).run(gather_program);
        assert_eq!(out.values[0], 6.0);
        assert!(out.reports.iter().all(|r| r.final_vclock.is_empty()));
    }

    #[test]
    fn seeded_deadlock_is_detected_at_pick_time_and_names_the_seed() {
        let err = std::panic::catch_unwind(|| World::new(2, bw()).with_seed(7).run(orphan_recv))
            .expect_err("deadlocked deterministic run must abort");
        let msg = err.downcast_ref::<String>().expect("panic message is a String");
        assert!(msg.contains("deadlock detected"), "{msg}");
        assert!(msg.contains("PMM_SEED=7"), "{msg}");
    }
}
