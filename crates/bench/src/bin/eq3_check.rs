//! **E6 — eq. (3)**: the §5.1 cost analysis of Algorithm 1 holds on *any*
//! grid, not just the optimal one: for every factorization of several `P`
//! on a divisible instance, the measured per-processor critical-path
//! words equal
//!
//! ```text
//! (1 − 1/p3)·n1n2/(p1p2) + (1 − 1/p1)·n2n3/(p2p3) + (1 − 1/p2)·n1n3/(p1p3)
//! ```
//!
//! exactly. This cross-validates the executed simulator against the
//! closed-form cost engine used by the larger sweeps.
//!
//! ```sh
//! cargo run --release -p pmm-bench --bin eq3_check
//! ```

use pmm_algs::{alg1_a, Alg1Config};
use pmm_bench::{fnum, print_table, Checks};
use pmm_core::gridopt::alg1_cost_words;
use pmm_dense::random_int_matrix;
use pmm_model::{Grid3, MatMulDims};
use pmm_simnet::{MachineParams, World};

fn main() {
    // 96 = 2^5·3, 48, 24: every factorization of the P values below gives
    // divisible blocks and fiber chunks.
    let dims = MatMulDims::new(96, 48, 24);
    println!("eq. (3) vs execution: {dims}, every factorization of P ∈ {{4, 8, 12, 24}}\n");

    let mut checks = Checks::new();
    let mut rows = Vec::new();
    let mut n_grids = 0;
    for p in [4usize, 8, 12, 24] {
        for grid in Grid3::factorizations(p) {
            if !dims.divisible_by(grid) {
                continue;
            }
            n_grids += 1;
            let predicted = alg1_cost_words(dims, grid);
            let g = Grid3::from_dims(grid);
            let cfg = Alg1Config::new(dims, g);
            let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
                let a = random_int_matrix(96, 48, -2..3, 3);
                let b = random_int_matrix(48, 24, -2..3, 4);
                alg1_a(rank, &cfg, &a, &b).await
            });
            let measured = out.critical_path_time();
            let exact = (measured - predicted).abs() < 1e-9;
            checks.check(format!("P={p} grid {grid:?}: measured == eq3"), exact);
            // Show a representative subset to keep the table readable.
            if grid[0] >= grid[1] && grid[1] >= grid[2] {
                rows.push(vec![
                    p.to_string(),
                    g.to_string(),
                    fnum(predicted),
                    fnum(measured),
                    if exact { "exact".into() } else { "MISMATCH".into() },
                ]);
            }
        }
    }
    print_table(&["P", "grid (sorted reps)", "eq.(3)", "measured", "verdict"], &rows);
    println!(
        "\nchecked all {n_grids} divisible factorizations (table shows sorted representatives)"
    );

    checks.finish();
}
