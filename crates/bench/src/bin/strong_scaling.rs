//! **E8 — strong scaling** (the Ballard et al. 2012b context of §2.3):
//! fix the problem, grow `P`, and watch how the per-processor and total
//! communication scale, both measured (Algorithm 1 on the simulator, up
//! to P = 512) and from the closed-form cost engine (beyond).
//!
//! Headline shape: total communication `P · W(P)` *grows* like `P^{1/3}`
//! in the 3D regime — perfect strong scaling of communication is
//! impossible once the memory-independent bound binds.
//!
//! ```sh
//! cargo run --release -p pmm-bench --bin strong_scaling
//! ```

use pmm_algs::{alg1_a, Alg1Config};
use pmm_bench::{fnum, print_table, Checks};
use pmm_core::gridopt::{alg1_cost_words, best_divisible_grid};
use pmm_core::theorem3::lower_bound;
use pmm_dense::random_int_matrix;
use pmm_model::MatMulDims;
use pmm_simnet::{MachineParams, World};

fn main() {
    let n = 512u64;
    let dims = MatMulDims::square(n);
    println!("strong scaling of square matmul, n = {n}\n");

    let mut checks = Checks::new();
    let mut rows = Vec::new();
    let mut prev_total = 0.0f64;
    for p in [1usize, 8, 64, 512, 4096, 32768, 262144] {
        let choice = best_divisible_grid(dims, p).expect("divisible grid");
        let predicted = alg1_cost_words(dims, choice.grid);
        let bound = lower_bound(dims, p as f64).bound;

        // Execute up to 512 simulated ranks; the closed form (validated by
        // eq3_check and by the executed rows here) extends the sweep.
        let measured: Option<f64> = if p <= 512 {
            let cfg = Alg1Config::new(dims, choice.grid3());
            let nn = n as usize;
            let (a, b) = (random_int_matrix(nn, nn, -2..3, 7), random_int_matrix(nn, nn, -2..3, 8));
            let out = World::new(p, MachineParams::BANDWIDTH_ONLY)
                .run(async |rank| alg1_a(rank, &cfg, &a, &b).await);
            Some(out.critical_path_time())
        } else {
            None
        };
        if let Some(m) = measured {
            checks.check(format!("P={p}: measured == closed form"), (m - predicted).abs() < 1e-9);
        }
        let total = predicted * p as f64;
        if p > 1 {
            checks.check(format!("P={p}: total communication grows"), total > prev_total);
        }
        prev_total = total;
        rows.push(vec![
            p.to_string(),
            choice.grid3().to_string(),
            measured.map(fnum).unwrap_or_else(|| "-".into()),
            fnum(predicted),
            fnum(bound),
            fnum(total),
            fnum(total / (n as f64 * n as f64)),
        ]);
    }
    print_table(
        &["P", "grid", "measured W", "closed-form W", "bound", "P·W total", "total/n²"],
        &rows,
    );

    // The P^{1/3} law: between cubic P values, total/n² should scale by
    // (P2/P1)^{1/3} up to the lower-order offset.
    let t1 = alg1_cost_words(dims, [8, 8, 8]) * 512.0;
    let t2 = alg1_cost_words(dims, [16, 16, 16]) * 4096.0;
    let growth = t2 / t1;
    println!("\ntotal-communication growth 512 → 4096 (8× more processors): {growth:.3}x");
    println!("P^(1/3) law predicts ≈ 2x (plus lower-order effects)");
    checks.check("growth within 15% of 2x", (growth - 2.0).abs() < 0.3);

    println!("\ninterpretation: in the 3D regime communication per processor falls");
    println!("only as P^(-2/3), so the aggregate volume — and with it the");
    println!("communication *time* at fixed per-link bandwidth — rises as P^(1/3).");
    println!("This is the memory-independent limit on strong scaling (§2.3).");

    checks.finish();
}
