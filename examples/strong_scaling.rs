//! Strong scaling of a square multiplication: run Algorithm 1 on
//! simulated machines of growing size and compare measured communication
//! against the Corollary 4 bound `3n²/P^{2/3} − 3n²/P`.
//!
//! Context (Ballard et al. 2012b, §2.3): the memory-independent bound is
//! what limits strong scaling — past `P = n³/M^{3/2}` perfect scaling of
//! communication cost is impossible.
//!
//! ```sh
//! cargo run --release --example strong_scaling
//! ```

use pmm::prelude::*;

fn main() {
    let n = 192u64;
    let dims = MatMulDims::square(n);
    println!("square multiplication, n = {n}\n");
    println!(
        "{:>5} {:>9} {:>14} {:>14} {:>8} {:>14}",
        "P", "grid", "measured", "corollary4", "ratio", "words×P (tot)"
    );

    for p in [1usize, 8, 27, 64, 216, 512] {
        let choice = best_divisible_grid(dims, p).expect("divisible grid exists");
        let cfg = Alg1Config::new(dims, choice.grid3());
        let nn = n as usize;
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
            let a = random_int_matrix(nn, nn, -2..3, 7);
            let b = random_int_matrix(nn, nn, -2..3, 8);
            alg1_a(rank, &cfg, &a, &b).await
        });
        let measured = out.critical_path_time();
        let bound = corollary4(n, p as f64);
        println!(
            "{:>5} {:>9} {:>14.0} {:>14.0} {:>8.3} {:>14.0}",
            p,
            choice.grid3().to_string(),
            measured,
            bound,
            if bound > 0.0 { measured / bound } else { 1.0 },
            measured * p as f64,
        );
    }

    println!("\nreading the table:");
    println!(" * measured/bound == 1.000 at cubic grids (8 = 2³, 27 = 3³, 64 = 4³, …):");
    println!("   the bound is tight and Algorithm 1 attains it exactly;");
    println!(" * total communication (words×P) *grows* like P^(1/3):");
    println!("   strong scaling of communication is fundamentally sublinear.");
}
