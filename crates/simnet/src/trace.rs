//! Deterministic-schedule event traces: recording, canonical rendering,
//! golden-trace replay assertions, and a schedule fuzzer.
//!
//! Every [`World`] runs under a cooperative deterministic scheduler (see
//! `fabric.rs`): exactly one rank executes at a time, and the baton is
//! handed over at every blocking point (mailbox receive, split
//! rendezvous, barrier) and at every send / collective entry. When the
//! world is built with [`World::with_seed`], ties among runnable ranks
//! are broken with a seeded PRNG. Every scheduling decision and every fabric event is
//! appended to a totally-ordered log — the [`ScheduleTrace`] returned in
//! [`WorldResult::schedule_trace`] — so identical `(program, seed)` pairs
//! produce **byte-identical** traces ([`ScheduleTrace::render`]).
//!
//! On top of that this module provides:
//!
//! * [`ScheduleTrace::assert_matches`] — golden-trace replay: assert a
//!   re-run reproduced a recorded schedule, reporting the first
//!   divergence with seed and repro command on failure;
//! * [`fuzz_schedules`] — re-run one program under N seeds and diff the
//!   final values and [`RankReport`] accounting, catching
//!   schedule-dependent results;
//! * [`seed_from_env`] — the `PMM_SEED` environment knob every
//!   deterministic test reads, so a failure printed by one run can be
//!   replayed exactly by the next.
//!
//! [`World`]: crate::World
//! [`World::with_seed`]: crate::World::with_seed
//! [`WorldResult::schedule_trace`]: crate::WorldResult
//! [`RankReport`]: crate::RankReport

use std::fmt::Write as _;

use crate::fabric::Ctx;
use crate::rank::Rank;
use crate::verify::CollectiveOp;
use crate::world::World;

/// Environment variable consulted by [`seed_from_env`].
pub const SEED_ENV: &str = "PMM_SEED";

/// Environment variable consulted by [`schedule_from_env`]: a full
/// [`Schedule`] in its `Display` syntax (`seed:N` or `prefix:0,2,1`),
/// taking precedence over [`SEED_ENV`].
pub const SCHEDULE_ENV: &str = "PMM_SCHEDULE";

/// A fabric resource read or written by one scheduled execution segment
/// (the slice of a rank's run between two scheduler picks). Two segments
/// whose resource footprints are disjoint commute: swapping their order
/// cannot change any rank's observations — the independence relation
/// DPOR-style exploration ([`pmm-explore`]) prunes with.
///
/// [`pmm-explore`]: https://docs.rs/pmm-explore
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resource {
    /// One member's mailbox queue on one communicator context (posts,
    /// pops, and failed emptiness checks all touch it).
    Mailbox {
        /// Communicator context of the mailbox.
        ctx: Ctx,
        /// Owner's member index within the communicator.
        index: usize,
    },
    /// A split rendezvous cell (deposits and result reads).
    SplitCell {
        /// Parent communicator context.
        ctx: Ctx,
        /// Per-parent split sequence number.
        seq: u64,
    },
    /// The zero-cost world barrier (arrivals and generation checks).
    Barrier,
    /// A communicator context's collective-matching ledger
    /// (registrations from `collective_begin`).
    Ledger {
        /// Communicator context of the ledger.
        ctx: Ctx,
    },
}

/// One deterministic-scheduler pick, first-class: the runnable set the
/// scheduler chose from, the rank it handed the baton to, and the fabric
/// resources the chosen rank's segment touched before the next pick.
/// [`WorldResult::choice_points`] returns the full stream for a
/// deterministic run; replaying a *prefix* of chosen ranks (see
/// [`Schedule::Prefix`]) steers a re-run down the same branch and then
/// completes canonically — the substrate for schedule-space exploration.
///
/// [`WorldResult::choice_points`]: crate::WorldResult
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChoicePoint {
    /// Runnable ranks at the pick, ascending.
    pub ready: Vec<usize>,
    /// The rank picked.
    pub chosen: usize,
    /// Resources touched by the chosen rank's segment (deduplicated,
    /// in first-touch order).
    pub touched: Vec<Resource>,
}

/// How the deterministic scheduler resolves its pick points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Schedule {
    /// Break ties with a SplitMix64 stream seeded with the value — the
    /// classic [`World::with_seed`] mode.
    ///
    /// [`World::with_seed`]: crate::World::with_seed
    Seeded(u64),
    /// Follow the recorded choice prefix (one chosen rank per pick); once
    /// the prefix is exhausted, complete canonically by always picking
    /// the smallest runnable rank. A prefix of ranks actually chosen by
    /// a prior run replays that run's branch exactly; the empty prefix
    /// is the fully-canonical schedule.
    Prefix(Vec<usize>),
}

impl Schedule {
    /// The canonical repro hint for runs under this schedule.
    pub fn repro(&self) -> Repro {
        match self {
            Schedule::Seeded(s) => Repro::Seed(*s),
            Schedule::Prefix(p) => Repro::Prefix(p.clone()),
        }
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Schedule::Seeded(s) => write!(f, "seed:{s}"),
            Schedule::Prefix(p) => {
                write!(f, "prefix:")?;
                for (i, r) in p.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{r}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::str::FromStr for Schedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Schedule, String> {
        let t = s.trim();
        let parse_u64 = |v: &str| -> Result<u64, String> {
            let v = v.trim();
            match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            }
            .map_err(|_| format!("{v:?} is not a u64 (decimal or 0x-prefixed hex)"))
        };
        if let Some(v) = t.strip_prefix("seed:") {
            return Ok(Schedule::Seeded(parse_u64(v)?));
        }
        if let Some(v) = t.strip_prefix("prefix:") {
            let v = v.trim();
            if v.is_empty() {
                return Ok(Schedule::Prefix(Vec::new()));
            }
            let ranks: Result<Vec<usize>, String> = v
                .split(',')
                .map(|r| r.trim().parse().map_err(|_| format!("{r:?} is not a rank id (usize)")))
                .collect();
            return Ok(Schedule::Prefix(ranks?));
        }
        Ok(Schedule::Seeded(parse_u64(t)?))
    }
}

/// The canonical replay recipe for one run — *the* single place failure
/// paths get their repro hint from, whether the run was seeded, was
/// steered by a choice prefix. Every schedule-sensitive
/// failure message in this workspace renders one of these (via
/// [`Repro::hint`] for the one-line recipe or [`Repro::note`] for the
/// bracketed context suffix) instead of hand-formatting env vars.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Repro {
    /// Replay by seed: `PMM_SEED=<seed>`.
    Seed(u64),
    /// Replay by choice prefix: `PMM_SCHEDULE=prefix:<r0,r1,...>`.
    Prefix(Vec<usize>),
}

impl Repro {
    /// The bare environment-variable assignment that replays this
    /// schedule (`PMM_SEED=7`, `PMM_SCHEDULE=prefix:0,2,1`). The single
    /// source of truth every repro-printing failure path formats from.
    pub fn env(&self) -> String {
        match self {
            Repro::Seed(seed) => format!("{SEED_ENV}={seed}"),
            Repro::Prefix(p) => format!("{SCHEDULE_ENV}={}", Schedule::Prefix(p.clone())),
        }
    }

    /// One-line replay recipe in env-var form.
    pub fn hint(&self) -> String {
        format!("re-run with {} to replay this schedule", self.env())
    }

    /// The bracketed context note world-level failure messages append:
    /// what kind of schedule ran, plus the replay recipe.
    pub fn note(&self) -> String {
        match self {
            Repro::Seed(seed) => format!("schedule seed {seed}; {}", self.hint()),
            Repro::Prefix(p) => {
                format!("deterministic schedule prefix ({} choices); {}", p.len(), self.hint())
            }
        }
    }
}

impl std::fmt::Display for Repro {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.hint())
    }
}

/// Read the full schedule from the `PMM_SCHEDULE` environment variable
/// (`seed:N`, `prefix:0,2,1`, or a bare integer meaning a seed), falling
/// back to `PMM_SEED`, falling back to `default`. The schedule analogue
/// of [`seed_from_env`] for tools that also accept choice prefixes.
pub fn schedule_from_env(default: Schedule) -> Schedule {
    match std::env::var(SCHEDULE_ENV) {
        Ok(s) => s
            .parse()
            .unwrap_or_else(|e| panic!("{SCHEDULE_ENV}={s:?} is not a valid schedule: {e}")),
        Err(_) => match std::env::var(SEED_ENV) {
            Ok(_) => Schedule::Seeded(seed_from_env(0)),
            Err(_) => default,
        },
    }
}

/// The blocking point a rank yielded the scheduler baton at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockPoint {
    /// Blocked in a directed mailbox receive.
    Recv {
        /// Communicator context of the receive.
        ctx: Ctx,
        /// This rank's mailbox index within the communicator.
        index: usize,
    },
    /// Blocked in a communicator-split rendezvous.
    Split {
        /// Parent communicator context.
        ctx: Ctx,
        /// Per-parent split sequence number.
        seq: u64,
    },
    /// Blocked in the zero-cost world barrier.
    Barrier {
        /// Barrier generation the rank entered on.
        generation: u64,
    },
}

/// One event of a deterministic schedule, in global order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEvent {
    /// The scheduler handed the baton to `rank`.
    Pick {
        /// World rank now running.
        rank: usize,
    },
    /// `rank` released the baton at a blocking point.
    Block {
        /// World rank that blocked.
        rank: usize,
        /// Where it blocked.
        point: BlockPoint,
    },
    /// A message was posted (and the sender yielded the baton).
    Post {
        /// Sender's world rank.
        from_world: usize,
        /// Communicator context the message travels on.
        ctx: Ctx,
        /// Receiver's world rank.
        to_world: usize,
        /// Message size in words.
        words: u64,
    },
    /// A rank entered a collective (hook at every collective entry point).
    Collective {
        /// World rank entering.
        rank: usize,
        /// Communicator context of the collective.
        ctx: Ctx,
        /// Operation kind.
        op: CollectiveOp,
        /// Element count the rank brought.
        elems: u64,
    },
    /// `rank`'s program finished (normally or by panic).
    Done {
        /// World rank that finished.
        rank: usize,
    },
}

impl std::fmt::Display for SchedEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedEvent::Pick { rank } => write!(f, "pick r{rank}"),
            SchedEvent::Block { rank, point } => match point {
                BlockPoint::Recv { ctx, index } => {
                    write!(f, "block r{rank} recv ctx{ctx} idx{index}")
                }
                BlockPoint::Split { ctx, seq } => {
                    write!(f, "block r{rank} split ctx{ctx} seq{seq}")
                }
                BlockPoint::Barrier { generation } => {
                    write!(f, "block r{rank} barrier gen{generation}")
                }
            },
            SchedEvent::Post { from_world, ctx, to_world, words } => {
                write!(f, "post r{from_world}->r{to_world} ctx{ctx} w{words}")
            }
            SchedEvent::Collective { rank, ctx, op, elems } => {
                write!(f, "coll r{rank} ctx{ctx} {op}[{elems}]")
            }
            SchedEvent::Done { rank } => write!(f, "done r{rank}"),
        }
    }
}

/// The totally-ordered event log of one deterministic run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleTrace {
    /// The scheduler seed the run used.
    pub seed: u64,
    /// Events in global schedule order.
    pub events: Vec<SchedEvent>,
}

impl ScheduleTrace {
    /// Canonical text rendering: a seed header plus one line per event.
    /// Two runs of the same `(program, seed)` pair render to identical
    /// bytes — the determinism contract tests compare these strings.
    pub fn render(&self) -> String {
        let mut out =
            format!("# schedule seed {:#018x} ({} events)\n", self.seed, self.events.len());
        for e in &self.events {
            let _ = writeln!(out, "{e}");
        }
        out
    }

    /// Index of the first event where `self` and `other` differ, or the
    /// shorter length on a prefix match, or `None` when identical.
    pub fn first_divergence(&self, other: &ScheduleTrace) -> Option<usize> {
        let n = self.events.len().min(other.events.len());
        (0..n)
            .find(|&i| self.events[i] != other.events[i])
            .or((self.events.len() != other.events.len()).then_some(n))
    }

    /// Golden-trace replay assertion: panic with the first divergence
    /// (and a seed repro command) unless `replay` reproduced this trace
    /// event for event.
    #[track_caller]
    pub fn assert_matches(&self, replay: &ScheduleTrace) {
        assert_eq!(
            self.seed,
            replay.seed,
            "golden-trace replay compared runs with different seeds; {}",
            repro_hint(self.seed)
        );
        if let Some(i) = self.first_divergence(replay) {
            let show = |t: &ScheduleTrace| {
                t.events.get(i).map_or("<end of trace>".to_string(), |e| e.to_string())
            };
            panic!(
                "schedule replay diverged from the golden trace at event {i}:\n  \
                 golden: {}\n  replay: {}\n\
                 golden has {} events, replay has {}; {}",
                show(self),
                show(replay),
                self.events.len(),
                replay.events.len(),
                repro_hint(self.seed)
            );
        }
    }
}

/// One-line repro command for a failing seed — printed in every
/// deterministic-mode failure message. Shorthand for
/// [`Repro::Seed`]`(seed).hint()`.
pub fn repro_hint(seed: u64) -> String {
    Repro::Seed(seed).hint()
}

/// Read the schedule seed from the `PMM_SEED` environment variable
/// (decimal, or hex with an `0x` prefix), falling back to `default`.
/// Deterministic tests use this so a failure report's seed can be pinned
/// on the next run without editing code.
pub fn seed_from_env(default: u64) -> u64 {
    match std::env::var(SEED_ENV) {
        Err(_) => default,
        Ok(s) => {
            let t = s.trim();
            let parsed = match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => t.parse(),
            };
            parsed.unwrap_or_else(|_| {
                panic!("{SEED_ENV}={s:?} is not a u64 (decimal or 0x-prefixed hex)")
            })
        }
    }
}

/// A schedule-dependent result found by [`fuzz_schedules`]: the program
/// produced different values or accounting under two seeds.
#[derive(Debug)]
pub struct ScheduleDivergence {
    /// The first seed run (the baseline every other seed is diffed against).
    pub baseline_seed: u64,
    /// The seed whose run diverged from the baseline.
    pub failing_seed: u64,
    /// Human-readable description of the first difference.
    pub detail: String,
}

impl std::fmt::Display for ScheduleDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "schedule-dependent result: seed {} disagrees with baseline seed {}: {}\n\
             [{} vs {}]",
            self.failing_seed,
            self.baseline_seed,
            self.detail,
            repro_hint(self.baseline_seed),
            repro_hint(self.failing_seed)
        )
    }
}

impl std::error::Error for ScheduleDivergence {}

/// Schedule fuzzer: run `program` on (a clone of) `world` once per seed
/// and diff the final per-rank values, meters, clocks, and memory peaks
/// against the first seed's run. A correct program's *results* must not
/// depend on the schedule even though its event trace does; any
/// divergence is returned with the failing seed and a repro command.
pub fn fuzz_schedules<T, F>(
    world: &World,
    seeds: &[u64],
    program: F,
) -> Result<(), ScheduleDivergence>
where
    T: PartialEq + std::fmt::Debug,
    F: AsyncFn(&mut Rank) -> T,
{
    assert!(!seeds.is_empty(), "fuzz_schedules needs at least one seed");
    let mut baseline: Option<(u64, crate::world::WorldResult<T>)> = None;
    for &seed in seeds {
        let out = world.clone().with_seed(seed).run(&program);
        let Some((seed0, base)) = &baseline else {
            baseline = Some((seed, out));
            continue;
        };
        let fail = |detail: String| ScheduleDivergence {
            baseline_seed: *seed0,
            failing_seed: seed,
            detail,
        };
        for r in 0..out.values.len() {
            if out.values[r] != base.values[r] {
                return Err(fail(format!(
                    "rank {r} value {:?} vs baseline {:?}",
                    out.values[r], base.values[r]
                )));
            }
            let (a, b) = (&out.reports[r], &base.reports[r]);
            if a.meter != b.meter {
                return Err(fail(format!(
                    "rank {r} meter [{}] vs baseline [{}]",
                    a.meter, b.meter
                )));
            }
            if a.time != b.time {
                return Err(fail(format!("rank {r} clock {} vs baseline {}", a.time, b.time)));
            }
            if a.peak_mem_words != b.peak_mem_words {
                return Err(fail(format!(
                    "rank {r} peak memory {} vs baseline {} words",
                    a.peak_mem_words, b.peak_mem_words
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(seed: u64, events: Vec<SchedEvent>) -> ScheduleTrace {
        ScheduleTrace { seed, events }
    }

    #[test]
    fn render_is_one_line_per_event_with_seed_header() {
        let t = trace(
            7,
            vec![
                SchedEvent::Pick { rank: 0 },
                SchedEvent::Post { from_world: 0, ctx: 2, to_world: 3, words: 16 },
                SchedEvent::Block { rank: 1, point: BlockPoint::Recv { ctx: 0, index: 1 } },
                SchedEvent::Collective { rank: 2, ctx: 1, op: CollectiveOp::AllGather, elems: 5 },
                SchedEvent::Done { rank: 0 },
            ],
        );
        let s = t.render();
        assert!(s.starts_with("# schedule seed 0x0000000000000007 (5 events)\n"), "{s}");
        assert!(s.contains("pick r0\n"), "{s}");
        assert!(s.contains("post r0->r3 ctx2 w16\n"), "{s}");
        assert!(s.contains("block r1 recv ctx0 idx1\n"), "{s}");
        assert!(s.contains("coll r2 ctx1 all_gather[5]\n"), "{s}");
        assert!(s.contains("done r0\n"), "{s}");
    }

    #[test]
    fn first_divergence_finds_edits_and_length_changes() {
        let a = trace(1, vec![SchedEvent::Pick { rank: 0 }, SchedEvent::Done { rank: 0 }]);
        assert_eq!(a.first_divergence(&a), None);
        let edited = trace(1, vec![SchedEvent::Pick { rank: 1 }, SchedEvent::Done { rank: 0 }]);
        assert_eq!(a.first_divergence(&edited), Some(0));
        let truncated = trace(1, vec![SchedEvent::Pick { rank: 0 }]);
        assert_eq!(a.first_divergence(&truncated), Some(1));
    }

    #[test]
    fn assert_matches_panics_with_seed_and_divergence() {
        let golden = trace(9, vec![SchedEvent::Pick { rank: 0 }]);
        let replay = trace(9, vec![SchedEvent::Pick { rank: 2 }]);
        let err = std::panic::catch_unwind(|| golden.assert_matches(&replay))
            .expect_err("diverging replay must panic");
        let msg = err.downcast_ref::<String>().expect("panic message is a String");
        assert!(msg.contains("event 0"), "{msg}");
        assert!(msg.contains("PMM_SEED=9"), "{msg}");
    }

    #[test]
    fn schedule_display_parse_round_trips() {
        for sched in [
            Schedule::Seeded(0),
            Schedule::Seeded(0xDEAD_BEEF),
            Schedule::Prefix(vec![]),
            Schedule::Prefix(vec![3]),
            Schedule::Prefix(vec![0, 2, 1, 1]),
        ] {
            let rendered = sched.to_string();
            let parsed: Schedule = rendered.parse().unwrap_or_else(|e| panic!("{rendered}: {e}"));
            assert_eq!(parsed, sched, "{rendered}");
        }
    }

    #[test]
    fn schedule_parses_bare_and_hex_seeds() {
        assert_eq!("42".parse::<Schedule>().unwrap(), Schedule::Seeded(42));
        assert_eq!("seed:0x2a".parse::<Schedule>().unwrap(), Schedule::Seeded(42));
        assert_eq!("prefix: 1, 2 ,3".parse::<Schedule>().unwrap(), Schedule::Prefix(vec![1, 2, 3]));
        assert!("prefix:1,x".parse::<Schedule>().is_err());
        assert!("seed:zebra".parse::<Schedule>().is_err());
    }

    #[test]
    fn repro_hints_name_the_env_var_form() {
        assert!(Repro::Seed(7).hint().contains("PMM_SEED=7"));
        let p = Repro::Prefix(vec![0, 2, 1]);
        assert!(p.hint().contains("PMM_SCHEDULE=prefix:0,2,1"), "{}", p.hint());
        // A world without a schedule replays from the empty prefix.
        let empty = Repro::Prefix(Vec::new());
        assert_eq!(empty.env(), "PMM_SCHEDULE=prefix:");
        assert_eq!("prefix:".parse::<Schedule>().unwrap(), Schedule::Prefix(Vec::new()));
        assert!(Repro::Seed(9).note().contains("schedule seed 9"));
        assert!(Repro::Prefix(vec![1]).note().contains("1 choices"));
    }

    #[test]
    fn divergence_display_names_both_seeds() {
        let d = ScheduleDivergence {
            baseline_seed: 3,
            failing_seed: 11,
            detail: "rank 0 value 1 vs baseline 2".into(),
        };
        let s = d.to_string();
        assert!(s.contains("seed 11"), "{s}");
        assert!(s.contains("PMM_SEED=3"), "{s}");
        assert!(s.contains("PMM_SEED=11"), "{s}");
    }
}
