//! Cross-crate simulator invariants: conservation of words, determinism of
//! the critical-path clock, collective correctness on communicators carved
//! out of grids, and property-based collective checks.

use pmm::prelude::*;
use proptest::prelude::*;

#[test]
fn words_sent_equals_words_received_globally() {
    // Conservation: across any completed run, Σ sent == Σ received.
    let dims = MatMulDims::new(24, 18, 12);
    let grid = Grid3::new(2, 3, 2);
    let cfg = Alg1Config::new(dims, grid);
    let out = World::new(12, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
        let a = random_int_matrix(24, 18, -2..3, 1);
        let b = random_int_matrix(18, 12, -2..3, 2);
        alg1_a(rank, &cfg, &a, &b).await;
    });
    let sent: u64 = out.reports.iter().map(|r| r.meter.words_sent).sum();
    let recv: u64 = out.reports.iter().map(|r| r.meter.words_recv).sum();
    assert_eq!(sent, recv);
    let msent: u64 = out.reports.iter().map(|r| r.meter.msgs_sent).sum();
    let mrecv: u64 = out.reports.iter().map(|r| r.meter.msgs_recv).sum();
    assert_eq!(msent, mrecv);
}

#[test]
fn clock_and_meters_are_deterministic_across_runs() {
    // OS scheduling must not leak into any metered quantity.
    let run = || {
        let dims = MatMulDims::new(20, 16, 12);
        let grid = Grid3::new(2, 2, 2);
        let cfg = Alg1Config::new(dims, grid);
        let out = World::new(8, MachineParams::TYPICAL_CLUSTER).run(async move |rank| {
            let a = random_int_matrix(20, 16, -2..3, 5);
            let b = random_int_matrix(16, 12, -2..3, 6);
            alg1_a(rank, &cfg, &a, &b).await;
            (rank.time(), rank.meter())
        });
        out.values
    };
    let first = run();
    for _ in 0..3 {
        let again = run();
        for (a, b) in first.iter().zip(&again) {
            assert_eq!(a.0, b.0, "clock must be deterministic");
            assert_eq!(a.1, b.1, "meters must be deterministic");
        }
    }
}

#[test]
fn collectives_compose_on_grid_fibers() {
    // Within each fiber of a 3x2x2 grid, all-reduce over row-fibers then
    // broadcast over column-fibers — data arrives intact everywhere.
    let grid = Grid3::new(3, 2, 2);
    let out = World::new(12, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
        let world = rank.world_comm();
        let coord = grid.coord_of(rank.world_rank());
        let axis0 =
            rank.split_a(&world, grid.fiber_color(coord, 0) as i64, coord[0] as i64).await.unwrap();
        let sum = all_reduce_a(rank, &axis0, &[coord[0] as f64 + 1.0], AllReduceAlgo::Auto).await;
        // fiber along axis 0 has coords {0,1,2} → sum = 6.
        let axis2 =
            rank.split_a(&world, grid.fiber_color(coord, 2) as i64, coord[2] as i64).await.unwrap();
        let got = bcast_a(rank, &axis2, &sum, 0, BcastAlgo::Binomial).await;
        got[0]
    });
    assert!(out.values.iter().all(|&v| v == 6.0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn allgather_then_local_reduce_equals_allreduce(
        p in 2usize..9,
        w in 1usize..20,
        seed in 0u64..1000,
    ) {
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
            let comm = rank.world_comm();
            let mine: Vec<f64> = (0..w)
                .map(|e| ((rank.world_rank() as u64 * 31 + e as u64 + seed) % 17) as f64)
                .collect();
            let gathered = all_gather_a(rank, &comm, &mine, AllGatherAlgo::Auto).await;
            let local: Vec<f64> = (0..w)
                .map(|e| (0..p).map(|r| gathered[r * w + e]).sum())
                .collect();
            let ar = all_reduce_a(rank, &comm, &mine, AllReduceAlgo::Auto).await;
            (local, ar)
        });
        for (local, ar) in &out.values {
            prop_assert_eq!(local, ar);
        }
    }

    #[test]
    fn reduce_scatter_partitions_the_allreduce(
        p in 2usize..9,
        wper in 1usize..8,
    ) {
        let w = p * wper;
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
            let comm = rank.world_comm();
            let mine: Vec<f64> = (0..w).map(|e| (rank.world_rank() * w + e) as f64).collect();
            let seg = reduce_scatter_a(rank, &comm, &mine, ReduceScatterAlgo::Auto).await;
            let full = all_reduce_a(rank, &comm, &mine, AllReduceAlgo::Auto).await;
            (seg, full)
        });
        for (r, (seg, full)) in out.values.iter().enumerate() {
            prop_assert_eq!(seg.as_slice(), &full[r * wper..(r + 1) * wper]);
        }
    }

    #[test]
    fn metered_words_scale_linearly_with_payload(
        p in 2usize..7,
        w in 1usize..30,
    ) {
        // All-gather of w words per rank must move exactly (p−1)·w per rank
        // regardless of values.
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
            let comm = rank.world_comm();
            all_gather_a(rank, &comm, &vec![0.5; w], AllGatherAlgo::Ring).await;
            rank.meter().words_sent
        });
        for &sent in &out.values {
            prop_assert_eq!(sent as usize, (p - 1) * w);
        }
    }
}
