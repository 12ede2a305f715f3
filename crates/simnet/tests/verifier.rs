//! Integration tests for the communication-correctness verifier: deadlock
//! reports, the collective-matching lint, and strict-drain checks,
//! exercised through the public `World` API exactly as user programs hit
//! them.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pmm_simnet::{CollectiveOp, MachineParams, World};

/// Extract the panic message from a `catch_unwind` payload.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        panic!("panic payload is not a string");
    }
}

#[test]
fn circular_recv_terminates_with_cycle_report() {
    // Every rank receives from its right neighbor before anyone sends:
    // a 3-cycle in the wait-for graph. Under MPI this hangs forever; the
    // scheduler must abort with a report naming the cycle.
    let result = catch_unwind(AssertUnwindSafe(|| {
        World::new(3, MachineParams::BANDWIDTH_ONLY).run(async |rank| {
            let wc = rank.world_comm();
            let from = (rank.world_rank() + 1) % 3;
            rank.recv_a(&wc, from).await;
        });
    }));
    let report = panic_text(result.expect_err("a circular wait must abort the world"));
    assert!(report.contains("deadlock detected"), "missing headline: {report}");
    assert!(report.contains("wait-for cycle"), "missing cycle: {report}");
    assert!(report.contains("recv"), "missing op kind: {report}");
    for r in 0..3 {
        assert!(report.contains(&format!("rank {r}")), "missing rank {r}: {report}");
    }
}

#[test]
fn recv_from_finished_rank_is_reported() {
    // Rank 0 exits without sending; rank 1 waits for it forever. Not a
    // cycle — a wait on a rank that can no longer act — but just as dead.
    let result = catch_unwind(AssertUnwindSafe(|| {
        World::new(2, MachineParams::BANDWIDTH_ONLY).run(async |rank| {
            let wc = rank.world_comm();
            if rank.world_rank() == 1 {
                rank.recv_a(&wc, 0).await;
            }
        });
    }));
    let report = panic_text(result.expect_err("waiting on a finished rank must abort"));
    assert!(report.contains("deadlock detected"), "missing headline: {report}");
    assert!(report.contains("rank 1"), "missing blocked rank: {report}");
}

#[test]
fn mismatched_collective_op_aborts_with_diff() {
    // Rank 0 enters an all-gather while everyone else enters a split on
    // the same communicator: the matching lint must flag the round
    // without waiting for the resulting hang to mature.
    let result = catch_unwind(AssertUnwindSafe(|| {
        World::new(4, MachineParams::BANDWIDTH_ONLY).run(async |rank| {
            let wc = rank.world_comm();
            if rank.world_rank() == 0 {
                rank.collective_begin_a(&wc, CollectiveOp::AllGather, 8).await;
            } else {
                rank.split_a(&wc, 0, 0).await;
            }
        });
    }));
    let report = panic_text(result.expect_err("a mismatched collective must abort"));
    assert!(report.contains("collective mismatch"), "missing headline: {report}");
    assert!(report.contains("all_gather"), "missing first op: {report}");
    assert!(report.contains("split"), "missing second op: {report}");
}

#[test]
fn uniform_count_skew_aborts_with_diff() {
    // Same op everywhere, but one rank disagrees on the element count of
    // a count-uniform collective (all-reduce).
    let result = catch_unwind(AssertUnwindSafe(|| {
        World::new(3, MachineParams::BANDWIDTH_ONLY).run(async |rank| {
            let wc = rank.world_comm();
            let elems = if rank.world_rank() == 2 { 7 } else { 64 };
            rank.collective_begin_a(&wc, CollectiveOp::AllReduce, elems).await;
        });
    }));
    let report = panic_text(result.expect_err("skewed counts must abort"));
    assert!(report.contains("collective mismatch"), "missing headline: {report}");
    assert!(report.contains("64"), "missing majority count: {report}");
    assert!(report.contains("7"), "missing skewed count: {report}");
}

#[test]
fn strict_drain_flags_unreceived_traffic() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        World::new(2, MachineParams::BANDWIDTH_ONLY).with_strict_drain(true).run(async |rank| {
            let wc = rank.world_comm();
            if rank.world_rank() == 0 {
                rank.send_a(&wc, 1, &[1.0, 2.0]).await;
            }
        });
    }));
    let report = panic_text(result.expect_err("strict drain must flag the lost message"));
    assert!(report.contains("undrained"), "missing drain report: {report}");
}

#[test]
fn matching_program_runs_clean_under_full_verification() {
    // The flip side: a correct program must pass with deadlock detection
    // AND strict drain on — no false positives from the verifier.
    let out =
        World::new(4, MachineParams::BANDWIDTH_ONLY).with_strict_drain(true).run(async |rank| {
            let wc = rank.world_comm();
            rank.collective_begin_a(&wc, CollectiveOp::AllReduce, 4).await;
            let partner = rank.world_rank() ^ 1;
            let msg = rank.exchange_a(&wc, partner, partner, &[rank.world_rank() as f64]).await;
            rank.hard_sync_a().await;
            msg.payload[0]
        });
    for (r, v) in out.values.iter().enumerate() {
        assert_eq!(*v, (r ^ 1) as f64);
    }
}

mod split_subcomms_with_faults {
    //! The collective-matching lint must keep working inside split
    //! sub-communicators while message faults are armed — i.e. while the
    //! reliable-delivery layer's retransmissions interleave with
    //! `Comm::split` rendezvous and sub-communicator traffic.

    use super::*;
    use pmm_simnet::FaultPlan;

    /// Drop/duplicate plan aggressive enough to force retries into the
    /// middle of the split + subcomm phases.
    fn faults() -> FaultPlan {
        FaultPlan::none().with_seed(0xFA17).with_drop(0.25).with_duplicate(0.15)
    }

    /// Shared program shape: split the world into evens/odds, ring-shift
    /// inside the subcomm (generating retried traffic), then register an
    /// all-reduce on the subcomm. `skewed_elems` makes world rank 3
    /// disagree on the element count inside its subcomm.
    fn run(skewed_elems: bool) -> Result<f64, String> {
        let result = catch_unwind(AssertUnwindSafe(move || {
            World::new(4, MachineParams::BANDWIDTH_ONLY)
                .with_seed(0xC0DE)
                .with_faults(faults())
                .run(async move |rank| {
                    let wc = rank.world_comm();
                    let me = rank.world_rank();
                    let sub = rank
                        .split_a(&wc, (me % 2) as i64, me as i64)
                        .await
                        .expect("non-negative colors always yield a subcomm");
                    // Subcomm traffic under faults: dropped messages are
                    // retransmitted, interleaving with the collective
                    // registrations below.
                    let peer = 1 - sub.index();
                    let got = rank.exchange_a(&sub, peer, peer, &[me as f64; 8]).await.payload[0];
                    let elems = if skewed_elems && me == 3 { 7 } else { 64 };
                    rank.collective_begin_a(&sub, CollectiveOp::AllReduce, elems).await;
                    rank.hard_sync_a().await;
                    got
                })
        }));
        match result {
            Ok(out) => Ok(out.values.iter().sum()),
            Err(payload) => Err(panic_text(payload)),
        }
    }

    #[test]
    fn mismatch_in_a_subcomm_is_flagged_with_faults_armed() {
        let report = run(true).expect_err("skewed subcomm counts must abort");
        assert!(report.contains("collective mismatch"), "missing headline: {report}");
        assert!(report.contains("64"), "missing majority count: {report}");
        assert!(report.contains("7"), "missing skewed count: {report}");
        // The repro hint must name the deterministic schedule.
        assert!(report.contains("PMM_SEED="), "missing seed repro: {report}");
    }

    #[test]
    fn matching_subcomm_collectives_run_clean_with_faults_armed() {
        // The valid twin: identical split + retried traffic + subcomm
        // registrations, but every member agrees — no false positive
        // from retransmissions crossing the split rendezvous.
        let sum = run(false).expect("matching subcomm collectives must pass");
        assert_eq!(sum, 0.0 + 1.0 + 2.0 + 3.0, "ring exchange payloads survived the faults");
    }
}

mod split_order {
    use super::*;
    use proptest::prelude::*;

    /// One rank issues its world-communicator collectives in a different
    /// order (split first vs. barrier-style registration first). Detection
    /// must not depend on the schedule: registration happens
    /// synchronously on entry, so whichever side reaches the skewed round
    /// first, the round holds conflicting descriptors and the lint fires.
    fn run_skewed(p: usize, skew: usize) -> String {
        let result = catch_unwind(AssertUnwindSafe(move || {
            World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
                let wc = rank.world_comm();
                if rank.world_rank() == skew {
                    // Skewed issue order: the collective that the rest
                    // of the world issues *second* comes first here, so
                    // this rank's split_seq for the split is 1, not 0.
                    rank.collective_begin_a(&wc, CollectiveOp::Barrier, 0).await;
                    rank.split_a(&wc, 0, 0).await;
                } else {
                    rank.split_a(&wc, 0, 0).await;
                    rank.collective_begin_a(&wc, CollectiveOp::Barrier, 0).await;
                }
            });
        }));
        panic_text(result.expect_err("skewed split order must abort"))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn skewed_split_seq_is_flagged_deterministically(p in 2usize..6, skew_raw in 0usize..6) {
            let skew = skew_raw % p;
            let report = run_skewed(p, skew);
            // Same detection on every run regardless of interleaving:
            // round 0 mixes a split with a barrier registration.
            prop_assert!(report.contains("collective mismatch"), "{}", report);
            prop_assert!(report.contains("split"), "{}", report);
            prop_assert!(report.contains("barrier"), "{}", report);
        }
    }
}
