//! Cross-crate checks for the extension variants: streamed Algorithm 1,
//! executed CARMA, and the advisor — all against the Theorem 3 bound.

use pmm::prelude::*;

fn inputs(dims: MatMulDims) -> (Matrix, Matrix) {
    (
        random_int_matrix(dims.n1 as usize, dims.n2 as usize, -3..4, 301),
        random_int_matrix(dims.n2 as usize, dims.n3 as usize, -3..4, 302),
    )
}

#[test]
fn streamed_alg1_is_tight_too() {
    // The §6.2 low-memory variant moves exactly the same words, so it also
    // attains the bound on the optimal divisible grid.
    let dims = MatMulDims::new(768, 192, 48);
    let p = 36usize;
    let grid = best_grid(dims, p).grid3();
    let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
        let (a, b) = inputs(dims);
        alg1_streamed_a(rank, dims, grid, 4, Kernel::Naive, &a, &b).await
    });
    let bound = lower_bound(dims, p as f64).bound;
    let measured = out.critical_path_time();
    assert!(
        (measured - bound).abs() < 1e-9 * bound,
        "streamed measured {measured} vs bound {bound}"
    );
    // And the product is right.
    let (a, b) = inputs(dims);
    let want = gemm(&a, &b, Kernel::Tiled);
    let chunks: Vec<_> = out.values.iter().map(|v| v.c_chunk.clone()).collect();
    assert_eq!(assemble_c(dims, grid, &chunks), want);
}

#[test]
fn carma_is_tight_on_pow2_square_instances() {
    // On power-of-two-aligned square instances, CARMA's halving schedule
    // equals the Corollary 4 bound exactly — the certification Theorem 3
    // enables.
    for (n, p) in [(64u64, 8usize), (64, 64), (128, 512)] {
        let dims = MatMulDims::square(n);
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
            let (a, b) = inputs(dims);
            let (sa, sb) = carma_shares(p, rank.world_rank(), &a, &b);
            let comm = rank.world_comm();
            carma_a(rank, &comm, dims, Kernel::Naive, sa, sb).await
        });
        let bound = corollary4(n, p as f64);
        let measured = out.critical_path_time();
        assert!(
            (measured - bound).abs() < 1e-9 * bound,
            "n={n} P={p}: CARMA measured {measured} vs bound {bound}"
        );
        // Reassembled product matches the serial reference.
        let (a, b) = inputs(dims);
        let want = gemm(&a, &b, Kernel::Tiled);
        assert_eq!(carma_assemble_c(dims, p, &out.values), want, "n={n} P={p}");
    }
}

#[test]
fn advisor_prediction_matches_execution_for_the_winner() {
    let dims = MatMulDims::new(256, 128, 64);
    let p = 32usize;
    let recs = recommend(dims, p, f64::INFINITY, MachineParams::BANDWIDTH_ONLY);
    let best = recs.first().expect("at least one strategy");
    if let AdvisorStrategy::Alg1 { grid } = best.strategy {
        let cfg = Alg1Config::new(dims, Grid3::from_dims(grid));
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
            let (a, b) = inputs(dims);
            alg1_a(rank, &cfg, &a, &b).await;
        });
        let measured = out.critical_path_time();
        assert!(
            (measured - best.cost.words).abs() < 1e-9,
            "advisor predicted {} words, measured {measured}",
            best.cost.words
        );
    } else {
        panic!("expected an Alg1 winner with unlimited memory");
    }
}

#[test]
fn streamed_variant_trades_latency_for_memory_monotonically() {
    let dims = MatMulDims::new(64, 96, 64);
    let grid = Grid3::new(2, 2, 2);
    let mut prev_msgs = 0u64;
    let mut prev_peak = u64::MAX;
    for slabs in [1usize, 2, 4, 8] {
        let out = World::new(8, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
            let (a, b) = inputs(dims);
            alg1_streamed_a(rank, dims, grid, slabs, Kernel::Naive, &a, &b).await
        });
        let msgs = out.reports[0].meter.msgs_sent;
        let peak = out.max_peak_mem_words();
        assert!(msgs >= prev_msgs, "slabs={slabs}: messages must not decrease");
        assert!(peak <= prev_peak, "slabs={slabs}: peak memory must not increase");
        prev_msgs = msgs;
        prev_peak = peak;
    }
}
