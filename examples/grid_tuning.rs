//! Why the grid matters: run Algorithm 1 on *every* factorization of `P`
//! for a rectangular problem and compare against the lower bound.
//!
//! The §5.2 grid is the only one that attains the bound; plausible-looking
//! alternatives (square 2D grid, cube-ish 3D grid on the wrong axes) pay
//! large factors.
//!
//! ```sh
//! cargo run --release --example grid_tuning
//! ```

use pmm::prelude::*;

fn main() {
    // 1D-case instance: m/n = 8, so at P = 8 the optimal grid is 8x1x1.
    let dims = MatMulDims::new(768, 96, 96);
    let p = 8usize;
    let bound = lower_bound(dims, p as f64).bound;
    println!("problem: {dims}, P = {p}, case {}", lower_bound(dims, p as f64).case);
    println!("lower bound: {bound:.0} words/processor\n");
    println!("{:>10} {:>14} {:>14} {:>10}", "grid", "predicted", "measured", "vs bound");

    let mut rows: Vec<([usize; 3], f64)> =
        Grid3::factorizations(p).into_iter().map(|g| (g, alg1_cost_words(dims, g))).collect();
    rows.sort_by(|a, b| a.1.total_cmp(&b.1));

    for (grid, predicted) in rows {
        if !dims.divisible_by(grid) {
            continue;
        }
        let cfg = Alg1Config::new(dims, Grid3::from_dims(grid));
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
            let a = random_int_matrix(768, 96, -2..3, 3);
            let b = random_int_matrix(96, 96, -2..3, 4);
            alg1_a(rank, &cfg, &a, &b).await
        });
        let measured = out.critical_path_time();
        println!(
            "{:>10} {:>14.0} {:>14.0} {:>9.2}x",
            Grid3::from_dims(grid).to_string(),
            predicted,
            measured,
            measured / bound
        );
    }

    println!("\nthe best factorization matches the §5.2 analysis (1D for this");
    println!("instance); the worst plausible grid pays ~an order of magnitude.");
}
