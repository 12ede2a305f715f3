//! pmm-verify: communication-correctness checking for the simulator.
//!
//! The simulator executes schedules with real blocking — a mismatched or
//! misordered collective would, like under MPI, leave ranks waiting
//! forever. This module makes communication correctness a *checked*
//! property:
//!
//! 1. **Waiting-on registry + deadlock reports.** Every blocking point in
//!    the fabric (mailbox receive, split rendezvous, the hard-sync
//!    barrier) registers a `WaitInfo` describing what the rank is waiting
//!    for and which world ranks could unblock it. When the scheduler
//!    finds no runnable rank while some rank is blocked, it aborts the
//!    world with a report naming each blocked rank, the operation kind,
//!    the communicator context, the call site, and the wait-for cycle,
//!    instead of hanging.
//!
//! 2. **Collective-matching lint.** Every collective registers a
//!    `CallDesc` (op kind, element count, call site) against a
//!    per-communicator ledger; the `n`-th collective on a communicator
//!    must agree on the op kind (and, for symmetric ops, the element
//!    count) across all members. Disagreement aborts the world
//!    *deterministically* — before the mismatch turns into a hang — with
//!    a diff of the disagreeing descriptors.
//!
//! 3. **Happens-before audit.** Each rank maintains a vector clock,
//!    piggybacked on every message; receipt asserts per-sender clock
//!    monotonicity (catching duplication or reordering inside the
//!    fabric), and strict-drain worlds additionally verify at exit that
//!    every metered send was matched by a metered receive — i.e. that
//!    cost accounting only merges along communication edges.

use std::cell::{Cell, Ref, RefCell};
use std::collections::HashMap;
use std::panic::Location;

use crate::fabric::Ctx;

/// The kind of collective operation, as registered with the
/// collective-matching lint by [`Rank::collective_begin_a`].
///
/// [`Rank::collective_begin_a`]: crate::Rank::collective_begin_a
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveOp {
    /// All-Gather (uniform or `v`-variant; per-rank contributions may
    /// legitimately differ in size).
    AllGather,
    /// All-Reduce (element counts must agree).
    AllReduce,
    /// All-to-All (element counts must agree).
    AllToAll,
    /// Barrier.
    Barrier,
    /// Broadcast.
    Bcast,
    /// Gather (root collects; per-rank contributions may differ).
    Gather,
    /// Reduce to a root (element counts must agree).
    Reduce,
    /// Reduce-Scatter (every rank contributes a full vector; element
    /// counts must agree).
    ReduceScatter,
    /// Inclusive scan (element counts must agree).
    Scan,
    /// Exclusive scan (element counts must agree).
    ExScan,
    /// Scatter from a root (per-rank shares may differ).
    Scatter,
    /// Communicator split (a collective over the parent communicator).
    Split,
}

impl CollectiveOp {
    /// Whether all members must register the same element count.
    fn uniform_elems(self) -> bool {
        matches!(
            self,
            CollectiveOp::AllReduce
                | CollectiveOp::AllToAll
                | CollectiveOp::Barrier
                | CollectiveOp::Reduce
                | CollectiveOp::ReduceScatter
                | CollectiveOp::Scan
                | CollectiveOp::ExScan
        )
    }
}

impl std::fmt::Display for CollectiveOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            CollectiveOp::AllGather => "all_gather",
            CollectiveOp::AllReduce => "all_reduce",
            CollectiveOp::AllToAll => "all_to_all",
            CollectiveOp::Barrier => "barrier",
            CollectiveOp::Bcast => "bcast",
            CollectiveOp::Gather => "gather",
            CollectiveOp::Reduce => "reduce",
            CollectiveOp::ReduceScatter => "reduce_scatter",
            CollectiveOp::Scan => "scan",
            CollectiveOp::ExScan => "exscan",
            CollectiveOp::Scatter => "scatter",
            CollectiveOp::Split => "split",
        };
        f.write_str(name)
    }
}

/// One member's registered collective call, for the matching lint.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CallDesc {
    pub op: CollectiveOp,
    /// Element count the member brought to the collective (op-specific;
    /// 0 for barriers and splits).
    pub elems: u64,
    /// World rank of the registrant.
    pub world_rank: usize,
    /// Source location of the user-level call.
    pub site: &'static Location<'static>,
}

/// What a blocked rank is waiting for.
#[derive(Debug, Clone)]
pub(crate) enum WaitKind {
    /// Blocked in a directed receive.
    Recv {
        /// Sender's world rank.
        from_world: usize,
    },
    /// Blocked in a communicator-split rendezvous.
    Split {
        /// Per-parent split sequence number (rendezvous key).
        seq: u64,
    },
    /// Blocked in the zero-cost world barrier.
    Barrier,
}

impl std::fmt::Display for WaitKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitKind::Recv { from_world, .. } => write!(f, "recv(from world rank {from_world})"),
            WaitKind::Split { seq } => write!(f, "comm split rendezvous (split #{seq})"),
            WaitKind::Barrier => write!(f, "world barrier"),
        }
    }
}

/// A registered blocking wait.
#[derive(Debug, Clone)]
pub(crate) struct WaitInfo {
    pub kind: WaitKind,
    /// Communicator context of the blocking operation.
    pub ctx: Ctx,
    /// World ranks whose action could unblock this rank.
    pub waiting_on: Vec<usize>,
    /// Source location of the user-level blocking call.
    pub site: &'static Location<'static>,
}

/// Panic payload used when a rank is torn down by a verifier abort. The
/// world run distinguishes these from genuine program panics and
/// re-raises the verifier report instead.
pub(crate) struct AbortPanic(pub String);

/// Verify state; owned by the fabric, one per world.
pub(crate) struct VerifyState {
    /// What each world rank is blocked on, if anything.
    waits: RefCell<Vec<Option<WaitInfo>>>,
    aborted: Cell<bool>,
    report: RefCell<Option<String>>,
    ledger: RefCell<HashMap<Ctx, CommLedger>>,
    /// One line per injected rank death, naming the fault-plan entry and
    /// the replay seed. Consulted by the scheduler so a kill is reported
    /// as a rank failure, never as a spurious deadlock.
    fault_notes: RefCell<Vec<String>>,
}

impl VerifyState {
    pub fn new(world_size: usize) -> VerifyState {
        VerifyState {
            waits: RefCell::new(vec![None; world_size]),
            aborted: Cell::new(false),
            report: RefCell::new(None),
            ledger: RefCell::new(HashMap::new()),
            fault_notes: RefCell::new(Vec::new()),
        }
    }

    /// Record an injected rank death (fault layer use).
    pub fn note_rank_failure(&self, line: String) {
        self.fault_notes.borrow_mut().push(line);
    }

    /// Lines describing injected rank deaths so far, in death order.
    pub fn rank_failures(&self) -> Vec<String> {
        self.fault_notes.borrow().clone()
    }

    pub fn world_size(&self) -> usize {
        self.waits.borrow().len()
    }

    /// Register that `world_rank` is about to block.
    pub fn set_wait(&self, world_rank: usize, info: WaitInfo) {
        self.waits.borrow_mut()[world_rank] = Some(info);
    }

    /// Clear `world_rank`'s wait registration (it made progress, or
    /// finished).
    pub fn clear_wait(&self, world_rank: usize) {
        self.waits.borrow_mut()[world_rank] = None;
    }

    /// Every rank's registered wait (deadlock reports).
    pub fn waits(&self) -> Ref<'_, Vec<Option<WaitInfo>>> {
        self.waits.borrow()
    }

    /// Whether the world has been aborted by the verifier.
    pub fn is_aborted(&self) -> bool {
        self.aborted.get()
    }

    /// First abort wins; returns whether this call set the flag.
    pub fn try_set_aborted(&self, report: String) -> bool {
        if self.aborted.replace(true) {
            return false;
        }
        *self.report.borrow_mut() = Some(report);
        true
    }

    /// The abort report, if any.
    pub fn report_text(&self) -> Option<String> {
        self.report.borrow().clone()
    }

    /// Panic this rank out of a blocking wait after an abort.
    pub fn abort_panic(&self, world_rank: usize) -> ! {
        self.clear_wait(world_rank);
        let report = self
            .report_text()
            .unwrap_or_else(|| "pmm-verify: world aborted with no stored report".to_string());
        std::panic::panic_any(AbortPanic(format!(
            "pmm-verify: rank {world_rank} torn down by verifier abort\n{report}"
        )));
    }

    /// Register the next collective call of member `member_index` of the
    /// communicator `ctx` and cross-check it against the other members'
    /// registrations for the same per-communicator sequence number.
    ///
    /// Returns the mismatch report if the descriptors disagree.
    #[allow(clippy::too_many_arguments)] // a call descriptor genuinely carries all of these
    pub fn register_collective(
        &self,
        ctx: Ctx,
        comm_size: usize,
        member_index: usize,
        world_rank: usize,
        op: CollectiveOp,
        elems: u64,
        site: &'static Location<'static>,
    ) -> Result<(), String> {
        let mut ledger = self.ledger.borrow_mut();
        let cl = ledger.entry(ctx).or_insert_with(|| CommLedger::new(comm_size));
        assert_eq!(
            cl.size, comm_size,
            "communicator ctx {ctx} registered with two different sizes — fabric bug"
        );
        let seq = cl.next_seq[member_index];
        cl.next_seq[member_index] += 1;
        let round = cl.rounds.entry(seq).or_insert_with(|| Round::new(comm_size));
        let desc = CallDesc { op, elems, world_rank, site };

        let conflict = round
            .descs
            .iter()
            .flatten()
            .find(|prev| prev.op != op || (op.uniform_elems() && prev.elems != elems));
        if let Some(prev) = conflict {
            let mut report = format!(
                "pmm-verify: collective mismatch on communicator ctx {ctx} \
                 (collective #{seq} of this communicator)\n\
                 world rank {world_rank} entered `{op}` with {elems} element(s) at {site}, but \
                 world rank {} had entered `{}` with {} element(s) at {}\n\
                 descriptors registered so far for collective #{seq} on ctx {ctx}:\n",
                prev.world_rank, prev.op, prev.elems, prev.site
            );
            round.descs[member_index] = Some(desc);
            round.registered += 1;
            for (idx, d) in round.descs.iter().enumerate() {
                match d {
                    Some(d) => report.push_str(&format!(
                        "  member {idx} (world rank {}): {} [{} elems] at {}\n",
                        d.world_rank, d.op, d.elems, d.site
                    )),
                    None => report.push_str(&format!("  member {idx}: not yet entered\n")),
                }
            }
            return Err(report);
        }

        round.descs[member_index] = Some(desc);
        round.registered += 1;
        if round.registered == comm_size {
            cl.rounds.remove(&seq);
        }
        Ok(())
    }

    /// Human-readable lines describing partially-entered collectives on
    /// every communicator (for deadlock reports).
    pub fn all_pending_collectives(&self) -> Vec<String> {
        let ctxs: Vec<Ctx> = {
            let ledger = self.ledger.borrow();
            let mut ctxs: Vec<Ctx> = ledger.keys().copied().collect();
            ctxs.sort_unstable();
            ctxs
        };
        ctxs.into_iter().flat_map(|ctx| self.pending_collectives(ctx)).collect()
    }

    /// Human-readable lines describing partially-entered collectives on
    /// `ctx` (for deadlock reports).
    pub fn pending_collectives(&self, ctx: Ctx) -> Vec<String> {
        let ledger = self.ledger.borrow();
        let mut lines = Vec::new();
        if let Some(cl) = ledger.get(&ctx) {
            let mut seqs: Vec<u64> = cl.rounds.keys().copied().collect();
            seqs.sort_unstable();
            for seq in seqs {
                let round = &cl.rounds[&seq];
                let entered: Vec<String> = round
                    .descs
                    .iter()
                    .enumerate()
                    .filter_map(|(i, d)| {
                        d.as_ref().map(|d| format!("member {i}=world {} ({})", d.world_rank, d.op))
                    })
                    .collect();
                let missing: Vec<usize> = round
                    .descs
                    .iter()
                    .enumerate()
                    .filter_map(|(i, d)| d.is_none().then_some(i))
                    .collect();
                lines.push(format!(
                    "  ctx {ctx} collective #{seq}: {}/{} entered [{}]; missing members {:?}",
                    round.registered,
                    round.descs.len(),
                    entered.join(", "),
                    missing
                ));
            }
        }
        lines
    }
}

/// Per-communicator collective ledger.
struct CommLedger {
    size: usize,
    /// Per-member count of collectives registered so far.
    next_seq: Vec<u64>,
    /// Partially-entered collectives, keyed by sequence number.
    rounds: HashMap<u64, Round>,
}

impl CommLedger {
    fn new(size: usize) -> CommLedger {
        CommLedger { size, next_seq: vec![0; size], rounds: HashMap::new() }
    }
}

/// One collective's registrations across members.
struct Round {
    descs: Vec<Option<CallDesc>>,
    registered: usize,
}

impl Round {
    fn new(size: usize) -> Round {
        Round { descs: vec![None; size], registered: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site() -> &'static Location<'static> {
        Location::caller()
    }

    #[test]
    fn matching_collectives_pass_and_rounds_are_cleaned() {
        let v = VerifyState::new(2);
        for round in 0..3u64 {
            for member in 0..2 {
                v.register_collective(0, 2, member, member, CollectiveOp::AllReduce, 8, site())
                    .unwrap_or_else(|e| panic!("round {round} member {member}: {e}"));
            }
        }
        assert!(v.pending_collectives(0).is_empty(), "completed rounds must be dropped");
    }

    #[test]
    fn op_kind_mismatch_is_reported_with_both_descriptors() {
        let v = VerifyState::new(3);
        v.register_collective(7, 3, 0, 10, CollectiveOp::AllGather, 4, site())
            .expect("first registration is vacuously consistent");
        let err = v
            .register_collective(7, 3, 2, 12, CollectiveOp::ReduceScatter, 4, site())
            .expect_err("op-kind mismatch must be flagged");
        assert!(err.contains("collective mismatch"), "{err}");
        assert!(err.contains("all_gather"), "{err}");
        assert!(err.contains("reduce_scatter"), "{err}");
        assert!(err.contains("ctx 7"), "{err}");
        assert!(err.contains("world rank 10"), "{err}");
        assert!(err.contains("world rank 12"), "{err}");
        assert!(err.contains("member 1: not yet entered"), "{err}");
    }

    #[test]
    fn uniform_ops_flag_element_count_skew() {
        let v = VerifyState::new(2);
        v.register_collective(1, 2, 0, 0, CollectiveOp::AllReduce, 10, site())
            .expect("first registration");
        let err = v
            .register_collective(1, 2, 1, 1, CollectiveOp::AllReduce, 11, site())
            .expect_err("all_reduce element counts must agree");
        assert!(err.contains("10 element"), "{err}");
        assert!(err.contains("11 element"), "{err}");
    }

    #[test]
    fn non_uniform_ops_allow_element_count_skew() {
        let v = VerifyState::new(2);
        v.register_collective(2, 2, 0, 0, CollectiveOp::AllGather, 5, site())
            .expect("first registration");
        v.register_collective(2, 2, 1, 1, CollectiveOp::AllGather, 9, site())
            .expect("all_gather contributions may be uneven");
    }

    #[test]
    fn sequence_skew_shows_up_as_pending_rounds() {
        let v = VerifyState::new(2);
        // Member 0 runs two barriers; member 1 has only run one.
        for _ in 0..2 {
            v.register_collective(0, 2, 0, 0, CollectiveOp::Barrier, 0, site())
                .expect("member 0 registrations");
        }
        v.register_collective(0, 2, 1, 1, CollectiveOp::Barrier, 0, site())
            .expect("member 1 registration");
        let pending = v.pending_collectives(0);
        assert_eq!(pending.len(), 1, "exactly the skewed round is pending: {pending:?}");
        assert!(pending[0].contains("collective #1"), "{}", pending[0]);
        assert!(pending[0].contains("missing members [1]"), "{}", pending[0]);
    }

    #[test]
    fn abort_is_first_writer_wins() {
        let v = VerifyState::new(1);
        assert!(v.try_set_aborted("first".into()));
        assert!(!v.try_set_aborted("second".into()));
        assert_eq!(v.report_text().as_deref(), Some("first"));
        assert!(v.is_aborted());
    }
}
