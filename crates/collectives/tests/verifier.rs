//! The verifier seen from the collectives layer: misuse of the library
//! entry points must terminate with a report, never hang the test suite.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pmm_collectives::{all_gather_a, gather_v_a, reduce_scatter_a, AllGatherAlgo};
use pmm_collectives::{GatherAlgo, ReduceScatterAlgo};
use pmm_simnet::{MachineParams, World};

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
fn allgather_vs_reduce_scatter_aborts_with_report() {
    // The classic mismatched collective: rank 0 enters an All-Gather
    // while everyone else enters a Reduce-Scatter on the same
    // communicator. The matching lint catches the disagreement at entry
    // and aborts the world; without it the suite would hang.
    let result = catch_unwind(AssertUnwindSafe(|| {
        World::new(4, MachineParams::BANDWIDTH_ONLY).run(async |rank| {
            let wc = rank.world_comm();
            let data = vec![1.0f64; 8];
            if rank.world_rank() == 0 {
                all_gather_a(rank, &wc, &data, AllGatherAlgo::Auto).await;
            } else {
                reduce_scatter_a(rank, &wc, &data, ReduceScatterAlgo::Auto).await;
            }
        });
    }));
    let report = panic_text(result.expect_err("mismatched collectives must abort, not hang"));
    assert!(report.contains("collective mismatch"), "missing headline: {report}");
    assert!(report.contains("all_gather"), "missing all_gather: {report}");
    assert!(report.contains("reduce_scatter"), "missing reduce_scatter: {report}");
    assert!(report.contains("ctx"), "missing communicator context: {report}");
}

#[test]
fn disagreeing_gather_roots_deadlock_is_reported() {
    // Both ranks call the *same* collective with the same counts, so the
    // matching lint is satisfied — but they disagree on the root, so each
    // waits for the other's contribution: a genuine communication
    // deadlock that only the scheduler's deadlock detection can catch.
    let result = catch_unwind(AssertUnwindSafe(|| {
        World::new(2, MachineParams::BANDWIDTH_ONLY).run(async |rank| {
            let wc = rank.world_comm();
            let mine = vec![rank.world_rank() as f64; 4];
            let root = rank.world_rank(); // everyone thinks *they* are root
            gather_v_a(rank, &wc, &mine, &[4, 4], root, GatherAlgo::Binomial).await;
        });
    }));
    let report = panic_text(result.expect_err("disagreeing roots must deadlock and abort"));
    assert!(report.contains("deadlock detected"), "missing headline: {report}");
    assert!(report.contains("recv"), "missing blocked op: {report}");
}
