//! End-to-end tightness: Theorem 3's bound (pmm-core) is attained exactly
//! by Algorithm 1 (pmm-algs) running on the metered simulator
//! (pmm-simnet) — across all three cases and several shapes.

use pmm::prelude::*;

/// Run Algorithm 1 with the given grid and return the measured per-rank
/// critical-path words.
fn measure(dims: MatMulDims, grid: [usize; 3]) -> f64 {
    let g = Grid3::from_dims(grid);
    let cfg =
        Alg1Config { dims, grid: g, kernel: Kernel::Naive, assembly: Assembly::ReduceScatter };
    let (n1, n2, n3) = (dims.n1 as usize, dims.n2 as usize, dims.n3 as usize);
    let out = World::new(g.size(), MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
        let a = random_int_matrix(n1, n2, -2..3, 1);
        let b = random_int_matrix(n2, n3, -2..3, 2);
        alg1_a(rank, &cfg, &a, &b).await;
    });
    out.critical_path_time()
}

/// Instances with fully divisible blocks *and* fiber chunks, one per case.
/// (dims, P, expected case)
fn tight_instances() -> Vec<(MatMulDims, usize, Case)> {
    vec![
        // paper-shaped instance (m/n = 4, mn/k² = 64), scaled
        (MatMulDims::new(768, 192, 48), 3, Case::OneD),
        (MatMulDims::new(768, 192, 48), 36, Case::TwoD),
        (MatMulDims::new(768, 192, 48), 512, Case::ThreeD),
        // square instances are always 3D for P > 1
        (MatMulDims::square(96), 8, Case::ThreeD),
        (MatMulDims::square(144), 27, Case::ThreeD),
        // tall-skinny 1D instance
        (MatMulDims::new(1024, 64, 64), 8, Case::OneD),
        // 2D instance with distinct n and k
        (MatMulDims::new(512, 128, 32), 16, Case::TwoD),
    ]
}

#[test]
fn alg1_attains_theorem3_exactly_in_every_case() {
    for (dims, p, want_case) in tight_instances() {
        let report = lower_bound(dims, p as f64);
        assert_eq!(report.case, want_case, "{dims} P={p}");
        let choice = best_grid(dims, p);
        assert!(
            dims.divisible_by(choice.grid),
            "{dims} P={p}: chosen grid {:?} must divide",
            choice.grid
        );
        let measured = measure(dims, choice.grid);
        assert!(
            (measured - report.bound).abs() <= 1e-9 * report.bound.max(1.0),
            "{dims} P={p} ({want_case}): measured {measured} vs bound {}",
            report.bound
        );
    }
}

#[test]
fn no_grid_beats_the_bound() {
    // Theorem 3 applies to *every* parallelization: every factorization's
    // measured cost is ≥ the bound.
    let dims = MatMulDims::new(96, 48, 24);
    for p in [4usize, 8, 12] {
        let bound = lower_bound(dims, p as f64).bound;
        for grid in Grid3::factorizations(p) {
            let measured = measure(dims, grid);
            assert!(
                measured >= bound - 1e-9 * bound.max(1.0),
                "grid {grid:?} (P={p}) measured {measured} below bound {bound}"
            );
        }
    }
}

#[test]
fn measured_equals_eq3_prediction_on_divisible_grids() {
    let dims = MatMulDims::new(96, 48, 24);
    for grid in [[2usize, 2, 2], [4, 2, 1], [1, 3, 4], [6, 4, 2], [2, 6, 1]] {
        assert!(dims.divisible_by(grid));
        let measured = measure(dims, grid);
        let predicted = alg1_cost_words(dims, grid);
        assert!(
            (measured - predicted).abs() <= 1e-9,
            "grid {grid:?}: measured {measured} vs eq.3 {predicted}"
        );
    }
}

#[test]
fn corollary4_is_attained_on_cubic_grids() {
    // n chosen so blocks *and* per-fiber chunks divide evenly (q³ = P and
    // q | (n/q)²), making the attainment exact to the word.
    for (n, p) in [(64u64, 8usize), (144, 27), (64, 64)] {
        let dims = MatMulDims::square(n);
        let q = (p as f64).cbrt().round() as usize;
        let measured = measure(dims, [q, q, q]);
        let bound = corollary4(n, p as f64);
        assert!(
            (measured - bound).abs() <= 1e-9 * bound.max(1.0),
            "n={n} P={p}: measured {measured} vs corollary4 {bound}"
        );
    }
}
