//! The communication fabric shared by all ranks of a [`World`].
//!
//! The fabric owns, for every communicator context, one mailbox per
//! member (a FIFO queue). Directed receive (`recv(from)`) is implemented
//! by the receiving rank stashing out-of-order messages — messages from
//! one sender to one receiver stay FIFO because they travel through a
//! single queue and a FIFO stash.
//!
//! The fabric also hosts the rendezvous state for **communicator splits**
//! (the MPI `comm_split` equivalent): a split is a collective, so all
//! members of the parent communicator deposit their `(color, key)` and the
//! last one to arrive partitions the members into groups and allocates one
//! fresh context per group.
//!
//! Every rank runs on one thread, as a continuation of the event loop in
//! [`World::run`], and the deterministic scheduler here decides which rank
//! runs next. So all fabric state is single-owner data behind `Cell` and
//! `RefCell`. Every blocking point (mailbox receive, split rendezvous, the
//! world barrier) registers what the rank waits for with the
//! [`verify`](crate::verify) layer and yields the scheduler baton; when no
//! rank is runnable while some rank is blocked, the pick that finds this
//! proves a deadlock and aborts the world with a report.
//!
//! [`World`]: crate::world::World
//! [`World::run`]: crate::world::World::run

use std::cell::{Cell, RefCell, RefMut};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::future::Future;
use std::panic::Location;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::fault::{FaultKick, FaultPlan, FaultState, MsgMeta};
use crate::readyset::ReadySet;
use crate::trace::{BlockPoint, ChoicePoint, Repro, Resource, SchedEvent, Schedule, ScheduleTrace};
use crate::verify::{CollectiveOp, VerifyState, WaitInfo, WaitKind};

/// Identifier of a communicator context. Every communicator created during
/// a run has a distinct context, so traffic on different communicators can
/// never be confused.
pub type Ctx = u64;

/// Context id of the world communicator (created by [`Fabric::new`]).
pub(crate) const WORLD_CTX: Ctx = 0;

/// Largest world for which barrier/split waits record their full
/// `waiting_on` rank lists. Building the list is O(P) per blocked
/// arrival and storing it O(P) per waiter — an O(P^2) time/memory term —
/// so past this size waits record an empty list. Deadlock detection is
/// counter-based and does not consult the lists; only report verbosity
/// degrades.
const WAIT_LIST_MAX_WORLD: usize = 4096;

/// A message in flight.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sender's index *within the communicator* the message was sent on.
    pub from: usize,
    /// Sender's clock when the send was posted (used for critical-path
    /// accounting on the receiving side).
    pub sent_at: f64,
    /// The data; its length is the metered word count.
    pub payload: Vec<f64>,
    /// Sender's vector clock at send time (happens-before audit; see
    /// `crate::verify`).
    pub(crate) vclock: Option<Rc<[u64]>>,
    /// Reliable-delivery metadata (sequence number + checksum); present
    /// iff the world runs with a fault plan.
    pub(crate) meta: Option<MsgMeta>,
}

/// Result of a communicator split for a single color.
///
/// `members` is shared behind an `Rc`: the group is computed once at the
/// rendezvous and every member's `Comm` points at the same vector, so a
/// world-sized split costs one member list per *group*, not one per rank
/// (an O(P^2) memory term at 10^5–10^6 ranks otherwise).
#[derive(Debug, Clone)]
pub(crate) struct SplitGroup {
    pub ctx: Ctx,
    /// World ranks of the members, ordered by `(key, parent index)`.
    pub members: Rc<Vec<usize>>,
}

struct SplitState {
    /// `(color, key, world_rank)` per parent index; `None` until deposited.
    entries: Vec<Option<(i64, i64, usize)>>,
    /// Parent communicator's world ranks (so the fault layer can count
    /// which members are still alive).
    parent_members: Vec<usize>,
    arrived: usize,
    consumed: usize,
    /// color -> group; populated by the last live rank to arrive.
    result: Option<Rc<HashMap<i64, SplitGroup>>>,
}

struct BarrierState {
    /// Which world ranks have arrived in the current generation.
    arrived: Vec<bool>,
    count: usize,
    generation: u64,
}

impl BarrierState {
    /// Open the next generation once every rank has arrived.
    fn release_if_full(&mut self) -> bool {
        let full = self.count == self.arrived.len() && self.count > 0;
        if full {
            self.count = 0;
            self.arrived.iter_mut().for_each(|a| *a = false);
            self.generation += 1;
        }
        full
    }
}

/// SplitMix64 step — the scheduler's tie-breaking PRNG, also the mixer
/// behind every fault-injection decision (see [`crate::fault`]). Tiny,
/// seedable, and fully deterministic, which is all either client needs.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A rank's state in the deterministic scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankStatus {
    /// Runnable (or currently running, when it also holds the baton).
    Ready,
    /// Parked at a blocking point whose condition was unmet when checked.
    Blocked,
    /// Program finished (normally or by unwinding).
    Done,
}

/// Cooperative deterministic scheduler. Exactly one rank runs at a time;
/// the baton changes hands at every blocking point and at every send /
/// collective entry. Ties among runnable ranks are resolved by the
/// [`Schedule`]: a [`splitmix64`] draw when seeded, or by following a
/// recorded choice prefix (then always picking the smallest runnable rank
/// — the *canonical completion*) when replaying. A world built without a
/// schedule runs the canonical completion from its first pick.
struct SchedInner {
    schedule: Schedule,
    /// SplitMix64 state, seeded from the schedule seed (untouched in
    /// prefix-replay mode).
    rng: u64,
    /// Next index into the prefix when the schedule is
    /// [`Schedule::Prefix`]; counts picks either way.
    cursor: usize,
    status: Vec<RankStatus>,
    /// The rank holding the execution baton, if any.
    current: Option<usize>,
    /// Whether to materialize the event log and [`ChoicePoint`] stream.
    /// Off for scale runs: recording is O(picks) memory plus an O(P)
    /// runnable-set snapshot per pick.
    record: bool,
    /// Targeted-wakeup policy: a progress event re-readies only the
    /// ranks blocked on the touched resource instead of every blocked
    /// rank. Changes seeded pick streams (fewer spurious re-checks), so
    /// seeded and prefix worlds default to broadcast — golden traces and
    /// DPOR certificates pin the broadcast schedules.
    targeted: bool,
    /// Order-statistics mirror of the `Ready` entries of `status`;
    /// `select(k)` is the k-th smallest runnable rank.
    ready: ReadySet,
    /// Number of `Blocked` entries of `status`.
    blocked: usize,
    /// Broadcast-policy wake list: every currently-blocked rank, drained
    /// on each progress event (amortized O(1) per block, where scanning
    /// `status` would be O(P) per post).
    blocked_list: Vec<usize>,
    /// What each blocked rank blocks on (wake-key; `None` when not
    /// blocked). Guards stale targeted-wakeup registrations.
    blocked_on: Vec<Option<Resource>>,
    /// Targeted-policy wake lists, keyed by blocking resource.
    waiters: HashMap<Resource, Vec<usize>>,
    /// Totally-ordered event log.
    events: Vec<SchedEvent>,
    /// First-class pick stream: one entry per scheduler pick, carrying
    /// the runnable set, the chosen rank, and (filled in as the segment
    /// executes) the fabric resources the segment touched.
    choices: Vec<ChoicePoint>,
}

/// What [`SchedInner::pick`] decided.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PickOutcome {
    /// The baton was handed to a runnable rank.
    Picked,
    /// Nobody is runnable, but nobody is blocked either (everyone done)
    /// — nothing to do.
    Idle,
    /// Provable deadlock: nobody runnable, at least one rank blocked.
    Deadlock,
    /// Prefix replay named a rank that is not runnable at this pick —
    /// the prefix does not correspond to a reachable branch of this
    /// program's schedule tree.
    Diverged {
        /// The rank the prefix demanded.
        wanted: usize,
        /// Zero-based pick index at which it diverged.
        at: usize,
    },
}

impl SchedInner {
    /// Every rank starts runnable; nothing runs until the first pick.
    fn new(n: usize, schedule: Schedule, record: bool, targeted: bool) -> SchedInner {
        let rng = match &schedule {
            Schedule::Seeded(seed) => *seed,
            Schedule::Prefix(_) => 0,
        };
        let mut ready = ReadySet::new(n);
        (0..n).for_each(|r| ready.insert(r));
        SchedInner {
            schedule,
            rng,
            cursor: 0,
            status: vec![RankStatus::Ready; n],
            current: None,
            record,
            targeted,
            ready,
            blocked: 0,
            blocked_list: Vec::new(),
            blocked_on: vec![None; n],
            waiters: HashMap::new(),
            events: Vec::new(),
            choices: Vec::new(),
        }
    }

    fn push_event(&mut self, ev: SchedEvent) {
        if self.record {
            self.events.push(ev);
        }
    }

    fn touch(&mut self, res: Resource) {
        if let Some(cp) = self.choices.last_mut() {
            if !cp.touched.contains(&res) {
                cp.touched.push(res);
            }
        }
    }

    /// Park `r` at a blocking point: log the event, charge the blocking
    /// resource to the running segment's footprint, and release the
    /// baton. The failed condition check *read* the blocking resource: a
    /// reordering against whoever writes it would change what this
    /// segment observed, so it belongs to the footprint.
    fn block(&mut self, r: usize, point: BlockPoint) {
        let key = match point {
            BlockPoint::Recv { ctx, index } => Resource::Mailbox { ctx, index },
            BlockPoint::Split { ctx, seq } => Resource::SplitCell { ctx, seq },
            BlockPoint::Barrier { .. } => Resource::Barrier,
        };
        debug_assert_eq!(self.status[r], RankStatus::Ready);
        self.status[r] = RankStatus::Blocked;
        self.ready.remove(r);
        self.blocked += 1;
        self.blocked_on[r] = Some(key);
        if self.targeted {
            self.waiters.entry(key).or_default().push(r);
        } else {
            self.blocked_list.push(r);
        }
        self.push_event(SchedEvent::Block { rank: r, point });
        self.touch(key);
        if self.current == Some(r) {
            self.current = None;
        }
    }

    fn unblock(&mut self, r: usize, key: Option<Resource>) {
        if self.status[r] == RankStatus::Blocked && (key.is_none() || self.blocked_on[r] == key) {
            self.status[r] = RankStatus::Ready;
            self.ready.insert(r);
            self.blocked -= 1;
            self.blocked_on[r] = None;
        }
    }

    fn mark_done(&mut self, r: usize) {
        match self.status[r] {
            RankStatus::Ready => self.ready.remove(r),
            RankStatus::Blocked => {
                self.blocked -= 1;
                self.blocked_on[r] = None;
            }
            RankStatus::Done => {}
        }
        self.status[r] = RankStatus::Done;
    }

    /// Re-ready every blocked rank (broadcast progress event). Unblock
    /// order is irrelevant — readiness is a set, and the next pick is a
    /// function of the set — so draining the policy-specific structures
    /// in their own order preserves determinism.
    fn unblock_all(&mut self) {
        if self.targeted {
            for (key, list) in std::mem::take(&mut self.waiters) {
                list.into_iter().for_each(|r| self.unblock(r, Some(key)));
            }
        } else {
            std::mem::take(&mut self.blocked_list).into_iter().for_each(|r| self.unblock(r, None));
        }
    }

    /// Progress event on `key`: under the broadcast policy every blocked
    /// rank is re-readied (what the golden traces pin); under the
    /// targeted policy only the ranks blocked on `key` wake.
    fn wake(&mut self, key: Resource) {
        if !self.targeted {
            self.unblock_all();
        } else if let Some(list) = self.waiters.remove(&key) {
            list.into_iter().for_each(|r| self.unblock(r, Some(key)));
        }
    }

    /// Hand the baton to the next runnable rank — drawn from the seeded
    /// PRNG, or dictated by the prefix (then the smallest runnable rank,
    /// the canonical completion). Records the pick as a [`ChoicePoint`].
    ///
    /// The pick is a deterministic function of (ready set, schedule
    /// state): `ReadySet::select(k)` is the k-th smallest runnable rank.
    fn pick(&mut self) -> PickOutcome {
        let count = self.ready.len();
        if count == 0 {
            self.current = None;
            return if self.blocked == 0 { PickOutcome::Idle } else { PickOutcome::Deadlock };
        }
        let r = match &self.schedule {
            Schedule::Seeded(_) => {
                self.ready.select((splitmix64(&mut self.rng) % count as u64) as usize)
            }
            Schedule::Prefix(prefix) => match prefix.get(self.cursor) {
                Some(&want)
                    if want < self.status.len() && self.status[want] == RankStatus::Ready =>
                {
                    want
                }
                Some(&want) => return PickOutcome::Diverged { wanted: want, at: self.cursor },
                None => self.ready.select(0),
            },
        };
        self.cursor += 1;
        if self.record {
            let ready: Vec<usize> = self
                .status
                .iter()
                .enumerate()
                .filter_map(|(i, &s)| (s == RankStatus::Ready).then_some(i))
                .collect();
            self.choices.push(ChoicePoint { ready, chosen: r, touched: Vec::new() });
            self.events.push(SchedEvent::Pick { rank: r });
        }
        self.current = Some(r);
        PickOutcome::Picked
    }

    /// The canonical replay recipe. In prefix mode the recipe names the
    /// choices *actually made so far* when they are recorded (not just
    /// the configured prefix), so a failure deep in the canonical
    /// completion still replays; unrecorded runs name the configured
    /// prefix, after which the completion is canonical anyway.
    fn repro(&self) -> Repro {
        match &self.schedule {
            Schedule::Seeded(seed) => Repro::Seed(*seed),
            Schedule::Prefix(_) if self.record => {
                Repro::Prefix(self.choices.iter().map(|c| c.chosen).collect())
            }
            Schedule::Prefix(prefix) => Repro::Prefix(prefix.clone()),
        }
    }

    fn blocked_ranks(&self) -> Vec<usize> {
        self.status
            .iter()
            .enumerate()
            .filter_map(|(i, &s)| (s == RankStatus::Blocked).then_some(i))
            .collect()
    }
}

/// What a [`BatonYield`] does on its first poll (the scheduler-visible
/// event of the yield point it encodes).
#[derive(Debug, Clone, Copy)]
enum YieldAction {
    Post { from_world: usize, ctx: Ctx, to_world: usize, words: u64 },
    Collective { rank: usize, ctx: Ctx, op: CollectiveOp, elems: u64 },
    Block { rank: usize, point: BlockPoint },
}

/// The one suspension point of the engine: a future whose first poll
/// performs a scheduler yield (recording the event and handing the baton
/// to the next pick) and which completes when the scheduler hands the
/// baton back to `rank`.
///
/// The executor upholds the invariant that only the rank named by the
/// scheduler's `current` is ever polled, so a poll observing
/// `current == Some(rank)` *is* baton possession.
pub(crate) struct BatonYield<'f> {
    fabric: &'f Fabric,
    rank: usize,
    action: Option<YieldAction>,
}

impl Future for BatonYield<'_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        // All fields are Unpin, so plain mutable access is fine.
        let me = &mut *self;
        if let Some(action) = me.action.take() {
            me.fabric.sched_yield_action(action);
        }
        if me.fabric.sched_baton_ready(me.rank) {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

/// The fabric of one [`World`](crate::world::World) run; ranks hold it
/// behind an `Rc`.
pub struct Fabric {
    next_ctx: Cell<Ctx>,
    mailboxes: RefCell<HashMap<(Ctx, usize), VecDeque<Message>>>,
    splits: RefCell<HashMap<(Ctx, u64), SplitState>>,
    /// Zero-cost world barrier, for callers that need to delimit phases
    /// without perturbing the metered costs.
    barrier: RefCell<BarrierState>,
    /// Communication-correctness state (wait registry, collective ledger,
    /// abort flag).
    pub(crate) verify: VerifyState,
    sched: RefCell<SchedInner>,
    /// Fault-injection state; `None` when the world has no fault plan
    /// (the default), in which case every fault hook is a no-op and the
    /// fabric behaves byte-identically to the pre-fault-layer code.
    fault: Option<FaultState>,
}

impl Fabric {
    /// A fabric for `world_size` ranks scheduled by `schedule`. `record`
    /// controls event-log/[`ChoicePoint`] materialization and `targeted`
    /// the wake-up policy — see the `SchedInner` field docs.
    pub(crate) fn new(
        world_size: usize,
        schedule: Schedule,
        record: bool,
        targeted: bool,
    ) -> Fabric {
        Fabric {
            next_ctx: Cell::new(1),
            mailboxes: RefCell::new(HashMap::new()),
            splits: RefCell::new(HashMap::new()),
            barrier: RefCell::new(BarrierState {
                arrived: vec![false; world_size],
                count: 0,
                generation: 0,
            }),
            verify: VerifyState::new(world_size),
            sched: RefCell::new(SchedInner::new(world_size, schedule, record, targeted)),
            fault: None,
        }
    }

    /// Attach a fault plan (validated) with its resolved decision seed.
    /// Must run before any rank starts.
    pub(crate) fn enable_faults(&mut self, plan: FaultPlan, seed: u64) {
        plan.validate();
        self.fault = Some(FaultState::new(plan, seed, self.verify.world_size()));
    }

    /// The attached fault state, if any.
    pub(crate) fn fault(&self) -> Option<&FaultState> {
        self.fault.as_ref()
    }

    /// Current fault epoch (0 when no plan is attached or nobody died).
    pub(crate) fn fault_epoch(&self) -> u64 {
        self.fault.as_ref().map_or(0, FaultState::epoch)
    }

    /// World ranks killed so far (empty without a plan).
    pub(crate) fn dead_ranks(&self) -> Vec<usize> {
        self.fault.as_ref().map_or_else(Vec::new, FaultState::dead_ranks)
    }

    fn is_dead_rank(&self, world_rank: usize) -> bool {
        self.fault.as_ref().is_some_and(|f| f.is_dead(world_rank))
    }

    /// Record the death of `world_rank` and propagate it: note it for the
    /// failure report, bump the fault epoch, count the corpse as arrived
    /// in the world barrier, complete any split rendezvous that was only
    /// waiting on dead ranks, and re-ready every blocked rank so
    /// survivors re-check their conditions (and observe the new epoch).
    pub(crate) fn mark_rank_dead(&self, world_rank: usize, note: String) {
        let Some(fault) = &self.fault else { return };
        if !fault.mark_dead(world_rank) {
            return;
        }
        self.verify.note_rank_failure(note);
        self.barrier_sweep_dead(&mut self.barrier.borrow_mut());
        let mut splits = self.splits.borrow_mut();
        let mut keys: Vec<(Ctx, u64)> = splits.keys().copied().collect();
        keys.sort_unstable(); // deterministic ctx allocation order
        for key in keys {
            if let Some(st) = splits.get_mut(&key) {
                self.split_try_complete(st);
            }
        }
        drop(splits);
        self.sched.borrow_mut().unblock_all();
    }

    /// Mark every dead, not-yet-arrived rank as arrived in the current
    /// barrier generation; release the barrier if that completes it.
    /// No-op without a fault plan.
    fn barrier_sweep_dead(&self, st: &mut BarrierState) {
        let Some(fault) = &self.fault else { return };
        for r in 0..st.arrived.len() {
            if !st.arrived[r] && fault.is_dead(r) {
                st.arrived[r] = true;
                st.count += 1;
            }
        }
        st.release_if_full();
    }

    /// Whether a rank inside a failure-catching scope (watching from
    /// `watch`) should be kicked out of a blocking wait because the fault
    /// epoch moved under it.
    fn fault_kicked(&self, fault_watch: Option<u64>) -> bool {
        fault_watch.is_some_and(|watch| self.fault_epoch() > watch)
    }

    /// Whether a watched directed receive must abandon its wait: the
    /// fault epoch moved past the watermark, **or** the awaited peer is
    /// already dead. The second arm matters when the peer died between
    /// this rank's last dead-set read and the arming of its catch scope
    /// — that death never bumps the epoch again, so the watermark alone
    /// would leave the receiver blocked on a corpse forever.
    fn recv_fault_kicked(&self, fault_watch: Option<u64>, from_world: usize) -> bool {
        fault_watch.is_some() && (self.fault_kicked(fault_watch) || self.is_dead_rank(from_world))
    }

    /// The canonical replay recipe for this fabric's schedule.
    pub(crate) fn sched_repro(&self) -> Repro {
        self.sched.borrow().repro()
    }

    /// Extract the recorded schedule trace, if recording is on.
    /// Prefix-replay runs report seed 0 in the trace header; their
    /// identity is the choice prefix, not a seed.
    pub(crate) fn take_sched_trace(&self) -> Option<ScheduleTrace> {
        let mut st = self.sched.borrow_mut();
        if !st.record {
            return None;
        }
        let seed = match &st.schedule {
            Schedule::Seeded(seed) => *seed,
            Schedule::Prefix(_) => 0,
        };
        Some(ScheduleTrace { seed, events: std::mem::take(&mut st.events) })
    }

    /// Extract the recorded [`ChoicePoint`] stream, if recording is on.
    pub(crate) fn take_choice_points(&self) -> Option<Vec<ChoicePoint>> {
        let mut st = self.sched.borrow_mut();
        st.record.then(|| std::mem::take(&mut st.choices))
    }

    /// Record that the currently-running segment touched `res` — the
    /// resource-footprint hook behind every mailbox post/pop, split
    /// deposit, barrier arrival, and collective registration. Appends to
    /// the latest [`ChoicePoint`] (deduplicated).
    fn touch(&self, res: Resource) {
        self.sched.borrow_mut().touch(res);
    }

    fn wake(&self, key: Resource) {
        self.sched.borrow_mut().wake(key);
    }

    // ----- deterministic scheduler ------------------------------------------

    /// Make the first pick; the executor then polls whichever rank holds
    /// the baton.
    pub(crate) fn sched_start(&self) {
        let mut st = self.sched.borrow_mut();
        match st.pick() {
            PickOutcome::Picked | PickOutcome::Idle => {}
            // All ranks are ready, so the first pick cannot deadlock; a
            // prefix can still demand an out-of-range rank.
            PickOutcome::Deadlock => unreachable!("deadlock with every rank runnable"),
            PickOutcome::Diverged { wanted, at } => {
                let report = Self::diverged_report(&st, wanted, at);
                drop(st);
                self.abort(report);
            }
        }
    }

    /// Retire this rank from the scheduler once its program returned or
    /// unwound. If the departing rank held the baton and everyone left is
    /// blocked, that is a deadlock — abort so the blocked ranks tear down
    /// instead of waiting on a rank that no longer exists.
    pub(crate) fn sched_finish(&self, r: usize) {
        let mut st = self.sched.borrow_mut();
        st.mark_done(r);
        st.push_event(SchedEvent::Done { rank: r });
        if st.current != Some(r) {
            return;
        }
        st.current = None;
        if self.verify.is_aborted() {
            return;
        }
        let outcome = st.pick();
        if let Some(report) = self.pick_failure_report(st, outcome) {
            self.abort(report);
        }
    }

    /// The abort report of a failed pick (deadlock or prefix divergence),
    /// or `None` when the pick succeeded.
    fn pick_failure_report(
        &self,
        st: RefMut<'_, SchedInner>,
        outcome: PickOutcome,
    ) -> Option<String> {
        match outcome {
            PickOutcome::Picked | PickOutcome::Idle => None,
            PickOutcome::Deadlock => {
                let stuck = st.blocked_ranks();
                let repro = st.repro();
                drop(st);
                let mut report = self.deadlock_report(&stuck);
                report.push_str(&format!("deterministic schedule — {}\n", repro.hint()));
                Some(report)
            }
            PickOutcome::Diverged { wanted, at } => Some(Self::diverged_report(&st, wanted, at)),
        }
    }

    /// Build the abort report for a [`PickOutcome::Diverged`] prefix.
    fn diverged_report(st: &SchedInner, wanted: usize, at: usize) -> String {
        format!(
            "pmm-simnet: schedule prefix diverged at choice #{at}: the prefix demands rank \
             {wanted}, which is not runnable there — the prefix does not name a reachable \
             branch of this program's schedule tree\n\
             choices made before the divergence: {}\n",
            st.repro().hint()
        )
    }

    /// The rank currently holding the baton (the executor's poll target).
    /// `None` after the last rank finishes, or when the world aborted
    /// mid-pick.
    pub(crate) fn sched_current(&self) -> Option<usize> {
        self.sched.borrow().current
    }

    /// Yield the baton after posting a message (the sender stays
    /// runnable and may be re-picked immediately).
    pub(crate) fn yield_post(
        &self,
        from_world: usize,
        ctx: Ctx,
        to_world: usize,
        words: u64,
    ) -> BatonYield<'_> {
        BatonYield {
            fabric: self,
            rank: from_world,
            action: Some(YieldAction::Post { from_world, ctx, to_world, words }),
        }
    }

    /// Yield the baton after entering a collective. The ledger
    /// registration that precedes this call is part of the segment's
    /// footprint.
    pub(crate) fn yield_collective(
        &self,
        rank: usize,
        ctx: Ctx,
        op: CollectiveOp,
        elems: u64,
    ) -> BatonYield<'_> {
        BatonYield {
            fabric: self,
            rank,
            action: Some(YieldAction::Collective { rank, ctx, op, elems }),
        }
    }

    /// Yield the baton at a blocking point whose condition is unmet. The
    /// await completes once this rank is picked again; the caller then
    /// re-checks its condition and re-blocks if still unmet. A pick that
    /// finds nobody runnable while some rank is blocked proves a
    /// deadlock: every blocked rank has re-checked its condition since
    /// the last progress event, so no wake-up can ever come.
    fn yield_block(&self, rank: usize, point: BlockPoint) -> BatonYield<'_> {
        BatonYield { fabric: self, rank, action: Some(YieldAction::Block { rank, point }) }
    }

    /// First-poll action of a [`BatonYield`]: log the event, update rank
    /// state, and hand the baton to the next pick. A failed pick aborts
    /// the world and tears the yielding rank down with an `AbortPanic`,
    /// which unwinds out of `poll` into the executor's `catch_unwind`.
    fn sched_yield_action(&self, action: YieldAction) {
        let mut st = self.sched.borrow_mut();
        let r = match action {
            YieldAction::Post { from_world, ctx, to_world, words } => {
                st.push_event(SchedEvent::Post { from_world, ctx, to_world, words });
                from_world
            }
            YieldAction::Collective { rank, ctx, op, elems } => {
                st.push_event(SchedEvent::Collective { rank, ctx, op, elems });
                st.touch(Resource::Ledger { ctx });
                rank
            }
            YieldAction::Block { rank, point } => {
                st.block(rank, point);
                rank
            }
        };
        let outcome = st.pick();
        if let Some(report) = self.pick_failure_report(st, outcome) {
            self.abort(report);
            self.verify.abort_panic(r);
        }
    }

    /// Poll check: does `r` hold the baton? Tears the polled
    /// continuation down with an `AbortPanic` if the world aborted (the
    /// executor's `catch_unwind` classifies it).
    fn sched_baton_ready(&self, r: usize) -> bool {
        if self.verify.is_aborted() {
            self.verify.abort_panic(r);
        }
        self.sched.borrow().current == Some(r)
    }

    // ----- mailboxes --------------------------------------------------------

    fn alloc_ctx(&self) -> Ctx {
        let ctx = self.next_ctx.get();
        self.next_ctx.set(ctx + 1);
        ctx
    }

    /// Post `msg` to member `to` of context `ctx`. Never blocks (mailboxes
    /// are unbounded).
    pub(crate) fn post(&self, ctx: Ctx, to: usize, msg: Message) {
        self.mailboxes.borrow_mut().entry((ctx, to)).or_default().push_back(msg);
        let key = Resource::Mailbox { ctx, index: to };
        self.touch(key);
        // A delivery is a progress event: re-ready blocked ranks so they
        // re-check their conditions.
        self.wake(key);
    }

    fn pop(&self, ctx: Ctx, index: usize) -> Option<Message> {
        let m = self.mailboxes.borrow_mut().get_mut(&(ctx, index))?.pop_front()?;
        self.touch(Resource::Mailbox { ctx, index });
        Some(m)
    }

    /// Take the next message from member `index`'s mailbox on context
    /// `ctx` (in arrival order; directed matching is done by the rank's
    /// stash), suspending until one arrives. `from_world` is the world
    /// rank of the sender the caller is ultimately waiting for
    /// (deadlock-report metadata).
    ///
    /// `fault_watch` is the caller's fault-epoch watermark when it is
    /// inside a failure-catching scope: if a rank dies while we wait
    /// (epoch moves past the watermark) the wait returns `None` — after
    /// draining anything already queued — so the caller can surface a
    /// typed failure instead of hanging on a corpse.
    pub(crate) async fn take_any(
        &self,
        ctx: Ctx,
        index: usize,
        me_world: usize,
        from_world: usize,
        site: &'static Location<'static>,
        fault_watch: Option<u64>,
    ) -> Option<Message> {
        if let Some(m) = self.pop(ctx, index) {
            return Some(m);
        }
        if self.recv_fault_kicked(fault_watch, from_world) {
            return None;
        }
        self.verify.set_wait(
            me_world,
            WaitInfo {
                kind: WaitKind::Recv { from_world },
                ctx,
                waiting_on: vec![from_world],
                site,
            },
        );
        loop {
            self.yield_block(me_world, BlockPoint::Recv { ctx, index }).await;
            if let Some(m) = self.pop(ctx, index) {
                self.verify.clear_wait(me_world);
                return Some(m);
            }
            if self.recv_fault_kicked(fault_watch, from_world) {
                self.verify.clear_wait(me_world);
                return None;
            }
        }
    }

    /// Count of messages posted but never taken, per mailbox (strict-drain
    /// audit).
    pub(crate) fn residual_messages(&self) -> Vec<(Ctx, usize, usize)> {
        let mut out: Vec<(Ctx, usize, usize)> = self
            .mailboxes
            .borrow()
            .iter()
            .filter_map(|(&(ctx, index), q)| (!q.is_empty()).then_some((ctx, index, q.len())))
            .collect();
        out.sort_unstable();
        out
    }

    // ----- barrier ----------------------------------------------------------

    /// Zero-cost synchronization of all world ranks (not metered; test and
    /// phase-delimiting use only).
    pub(crate) async fn hard_sync(&self, me_world: usize, site: &'static Location<'static>) {
        let world_size = self.verify.world_size();
        if world_size <= 1 || self.is_dead_rank(me_world) {
            return;
        }
        let entered_gen = {
            let mut st = self.barrier.borrow_mut();
            // Dead ranks can never arrive; count them so survivors are not
            // stuck waiting for a corpse (no-op without a fault plan).
            self.barrier_sweep_dead(&mut st);
            let entered_gen = st.generation;
            st.arrived[me_world] = true;
            st.count += 1;
            self.touch(Resource::Barrier);
            if st.release_if_full() {
                drop(st);
                self.wake(Resource::Barrier);
                return;
            }
            let waiting_on: Vec<usize> = if world_size > WAIT_LIST_MAX_WORLD {
                Vec::new()
            } else {
                st.arrived.iter().enumerate().filter_map(|(r, &a)| (!a).then_some(r)).collect()
            };
            self.verify.set_wait(
                me_world,
                WaitInfo { kind: WaitKind::Barrier, ctx: WORLD_CTX, waiting_on, site },
            );
            entered_gen
        };
        loop {
            self.yield_block(me_world, BlockPoint::Barrier { generation: entered_gen }).await;
            if self.barrier.borrow().generation != entered_gen {
                break;
            }
        }
        self.verify.clear_wait(me_world);
    }

    // ----- communicator splits ----------------------------------------------

    /// Complete a split rendezvous if every still-alive parent member has
    /// deposited (with at least one deposit): partition the deposited
    /// entries into groups and allocate their contexts. Without a fault
    /// plan "every alive member" is "every member".
    fn split_try_complete(&self, st: &mut SplitState) {
        if st.result.is_some() {
            return;
        }
        let all_live_arrived = st
            .parent_members
            .iter()
            .enumerate()
            .all(|(i, &w)| st.entries[i].is_some() || self.is_dead_rank(w));
        if st.arrived == 0 || !all_live_arrived {
            return;
        }
        // Ordered by color: deterministic ctx assignment.
        let mut by_color: BTreeMap<i64, Vec<(i64, usize, usize)>> = BTreeMap::new();
        for (parent_idx, e) in st.entries.iter().enumerate() {
            // Entries of dead members stay `None` and simply do not join
            // any group — the survivors' groups shrink around them.
            let Some((c, k, w)) = *e else { continue };
            if c >= 0 {
                by_color.entry(c).or_default().push((k, parent_idx, w));
            }
        }
        let mut groups = HashMap::new();
        for (c, mut v) in by_color {
            v.sort_unstable(); // by (key, parent index)
            let members: Vec<usize> = v.into_iter().map(|(_, _, w)| w).collect();
            groups.insert(c, SplitGroup { ctx: self.alloc_ctx(), members: Rc::new(members) });
        }
        st.result = Some(Rc::new(groups));
    }

    /// Collective communicator split. Called by every member of the parent
    /// context; `seq` is the caller's per-parent split sequence number
    /// (all members must call splits in the same order). `parent_members`
    /// are the parent communicator's world ranks in communicator order.
    ///
    /// `color < 0` means "no new communicator for me" (MPI_UNDEFINED).
    /// Returns the group for `color`, or `None` for negative colors.
    /// `fault_watch` works as in [`Fabric::take_any`]: `Err(FaultKick)`
    /// means a rank died mid-rendezvous while the caller was inside a
    /// failure-catching scope.
    #[allow(clippy::too_many_arguments)] // a rendezvous genuinely needs all of these
    pub(crate) async fn split(
        &self,
        parent_ctx: Ctx,
        parent_members: &[usize],
        seq: u64,
        my_parent_index: usize,
        my_world_rank: usize,
        color: i64,
        key: i64,
        site: &'static Location<'static>,
        fault_watch: Option<u64>,
    ) -> Result<Option<SplitGroup>, FaultKick> {
        let cell = (parent_ctx, seq);
        let completed = {
            let mut splits = self.splits.borrow_mut();
            let st = splits.entry(cell).or_insert_with(|| SplitState {
                entries: vec![None; parent_members.len()],
                parent_members: parent_members.to_vec(),
                arrived: 0,
                consumed: 0,
                result: None,
            });
            if st.entries[my_parent_index].is_some() {
                drop(splits);
                self.abort(format!(
                    "pmm-verify: world rank {my_world_rank} deposited twice into split #{seq} of \
                     ctx {parent_ctx} at {site} — members issued splits in different orders"
                ));
                self.verify.abort_panic(my_world_rank);
            }
            st.entries[my_parent_index] = Some((color, key, my_world_rank));
            st.arrived += 1;
            self.touch(Resource::SplitCell { ctx: parent_ctx, seq });
            self.split_try_complete(st);
            if st.result.is_none() {
                let waiting_on: Vec<usize> = if parent_members.len() > WAIT_LIST_MAX_WORLD {
                    Vec::new()
                } else {
                    parent_members
                        .iter()
                        .enumerate()
                        .filter_map(|(i, &w)| st.entries[i].is_none().then_some(w))
                        .collect()
                };
                self.verify.set_wait(
                    my_world_rank,
                    WaitInfo { kind: WaitKind::Split { seq }, ctx: parent_ctx, waiting_on, site },
                );
            }
            st.result.is_some()
        };
        if completed {
            self.wake(Resource::SplitCell { ctx: parent_ctx, seq });
        } else {
            loop {
                if self.fault_kicked(fault_watch) {
                    self.verify.clear_wait(my_world_rank);
                    return Err(FaultKick);
                }
                self.yield_block(my_world_rank, BlockPoint::Split { ctx: parent_ctx, seq }).await;
                if self.splits.borrow().get(&cell).is_some_and(|st| st.result.is_some()) {
                    break;
                }
            }
            self.verify.clear_wait(my_world_rank);
        }
        Ok(self.split_finish(cell, my_world_rank, color))
    }

    /// Read the completed result, retire this consumer (freeing the
    /// rendezvous slot once every depositor has read it), and project out
    /// the caller's color group.
    fn split_finish(
        &self,
        cell: (Ctx, u64),
        my_world_rank: usize,
        color: i64,
    ) -> Option<SplitGroup> {
        let (parent_ctx, seq) = cell;
        let mut splits = self.splits.borrow_mut();
        let st = splits.get_mut(&cell).unwrap_or_else(|| {
            panic!("split #{seq} on ctx {parent_ctx}: rendezvous vanished — fabric bug")
        });
        let result = st
            .result
            .clone()
            .unwrap_or_else(|| panic!("split #{seq} on ctx {parent_ctx}: no result — fabric bug"));
        st.consumed += 1;
        // Once the result is set no further deposits are accepted, so
        // `arrived` is frozen and "everyone who deposited has read it" is
        // the cleanup condition. A member kicked out mid-wait never
        // consumes; its cell is left behind, which only an injected death
        // can cause.
        if st.consumed == st.arrived {
            splits.remove(&cell);
        }
        (color >= 0).then(|| {
            result
                .get(&color)
                .unwrap_or_else(|| {
                    panic!(
                        "split #{seq} on ctx {parent_ctx}: world rank {my_world_rank}'s color \
                         {color} missing from the computed groups — fabric bug"
                    )
                })
                .clone()
        })
    }

    /// Split rendezvous not yet read by every depositor.
    #[cfg(test)]
    pub(crate) fn open_splits(&self) -> usize {
        self.splits.borrow().len()
    }

    // ----- aborts and reports -----------------------------------------------

    /// Abort the world: store `report` and set the abort flag; every rank
    /// is torn down the next time it is polled or touches the fabric.
    /// First abort wins; later calls are no-ops.
    pub(crate) fn abort(&self, report: String) {
        self.verify.try_set_aborted(report);
    }

    fn deadlock_report(&self, stuck: &[usize]) -> String {
        // When the fault plan killed a rank, blocked survivors are the
        // *consequence* of that injected failure, not a communication bug:
        // report the rank failure (naming the plan entry and replay seed)
        // and never the word "deadlock" or a wait-for cycle.
        let failures = self.verify.rank_failures();
        let mut report = if failures.is_empty() {
            format!(
                "pmm-verify: deadlock detected — {} rank(s) blocked with no possible progress\n",
                stuck.len()
            )
        } else {
            let mut r = format!(
                "pmm-verify: rank failure — {} rank(s) killed by the fault plan; {} surviving \
                 rank(s) blocked on communication that can never complete\n",
                failures.len(),
                stuck.len()
            );
            for line in &failures {
                r.push_str("  ");
                r.push_str(line);
                r.push('\n');
            }
            r
        };
        let waits = self.verify.waits();
        for &r in stuck {
            if let Some(w) = &waits[r] {
                report.push_str(&format!(
                    "  rank {r}: blocked in {} on ctx {} at {}, waiting on ranks {:?}\n",
                    w.kind, w.ctx, w.site, w.waiting_on
                ));
            }
        }
        if failures.is_empty() {
            let stuck_set: HashSet<usize> = stuck.iter().copied().collect();
            if let Some(cycle) = wait_cycle(&waits, &stuck_set) {
                let path: Vec<String> = cycle.iter().map(|r| format!("rank {r}")).collect();
                report.push_str(&format!("wait-for cycle: {}\n", path.join(" -> ")));
            }
        }
        drop(waits);
        let pending = self.verify.all_pending_collectives();
        if !pending.is_empty() {
            report.push_str("partially-entered collectives:\n");
            for line in pending {
                report.push_str(&line);
                report.push('\n');
            }
        }
        report
    }
}

/// Walk wait-for edges inside the stuck set from its smallest member and
/// return the first cycle found, closed (first element repeated at the
/// end).
fn wait_cycle(waits: &[Option<WaitInfo>], stuck: &HashSet<usize>) -> Option<Vec<usize>> {
    let start = *stuck.iter().min()?;
    let mut path: Vec<usize> = vec![start];
    let mut cur = start;
    loop {
        let w = waits[cur].as_ref()?;
        let next = *w.waiting_on.iter().find(|o| stuck.contains(o))?;
        if let Some(pos) = path.iter().position(|&r| r == next) {
            let mut cycle = path[pos..].to_vec();
            cycle.push(next);
            return Some(cycle);
        }
        path.push(next);
        cur = next;
    }
}
