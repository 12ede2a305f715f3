//! Large-`P` scale conformance: Algorithm 1 *executed* (not predicted)
//! at P = 10^4 … 10^6.
//!
//! The paper's Fig. 1/Fig. 2 story spans `P` up to 10^6, where the three
//! regimes actually separate. These tests run Algorithm 1 end-to-end at
//! scale, on **integral §5.2 optimal grids**
//! (`best_grid` returns exactly the grid we pin, and it divides the
//! dimensions), and hold the *measured* per-rank, per-phase traffic to
//! the `pmm_model::alg1_prediction` eq. (3) terms exactly.
//!
//! Executed-path guarantees (no closed-form fallback): every rank
//! returns a real `Alg1Output` with per-phase meters from the run, the
//! world reports `P` per-rank meter/clock entries, and the verifier is
//! live throughout (it is part of the fabric).
//!
//! Each test prints a `SCALE: key=value ...` line; `cargo xtask
//! scale-check` runs the `#[ignore]`d large cells in release mode and
//! collects those lines into `BENCH_scale.json`.

use std::time::Instant;

use pmm::prelude::*;

/// Peak resident set size of this test process in kB (Linux `VmHWM`),
/// or 0 where /proc is unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Execute Algorithm 1 at `p` ranks and check
/// eq. (3) attribution. `exact` additionally pins every rank's
/// per-phase duplex words to the prediction (requires evenly-chunked
/// fiber collectives); aggregate per-phase traffic is checked always.
/// `trace` runs with the structured tracer armed and cross-checks its
/// per-phase totals too.
fn scale_point(label: &str, dims: MatMulDims, grid_arr: [usize; 3], exact: bool, trace: bool) {
    let p: usize = grid_arr.iter().product();
    // The pinned grid must be the integral §5.2 optimum, not just some
    // divisible factorization.
    let choice = best_grid(dims, p);
    assert_eq!(choice.grid, grid_arr, "{label}: pinned grid is not the §5.2 optimum");
    assert!(dims.divisible_by(grid_arr), "{label}: §5.2 grid must divide the dimensions");
    let pred = alg1_prediction(dims, grid_arr);

    let cfg = Alg1Config {
        dims,
        grid: Grid3::from_dims(grid_arr),
        kernel: Kernel::Naive,
        assembly: Assembly::ReduceScatter,
    };
    // Inputs are generated once and shared by all P rank programs,
    // keeping input setup O(n1·n2 + n2·n3) rather than O(P · matrix size).
    let a = random_int_matrix(dims.n1 as usize, dims.n2 as usize, -3..4, 11);
    let b = random_int_matrix(dims.n2 as usize, dims.n3 as usize, -3..4, 22);
    // A world without a schedule records nothing (the runnable-set
    // snapshot is O(P) per pick) and wakes blocked ranks by target,
    // keeping scheduler bookkeeping proportional to the active ranks.
    let world = World::new(p, MachineParams::BANDWIDTH_ONLY).with_trace(trace);
    let t0 = Instant::now();
    let out = world.run(async |rank| alg1_a(rank, &cfg, &a, &b).await);
    let secs = t0.elapsed().as_secs_f64();

    // Executed, not predicted: P live per-rank reports with real
    // meters and per-phase attribution from the run itself.
    assert_eq!(out.values.len(), p, "{label}: every rank must execute");
    assert_eq!(out.reports.len(), p, "{label}: every rank must report meters");
    assert!(out.total_words_sent() > 0.0, "{label}: an executed run moves real words");

    // Eq. (3), per rank and per phase where the fiber chunks are even.
    if exact {
        for (r, v) in out.values.iter().enumerate() {
            for (phase, want) in v.phases.iter().zip(pred.phases()) {
                assert_eq!(
                    phase.meter.duplex_words() as f64,
                    want,
                    "{label}: rank {r} phase '{}' missed the eq. (3) term",
                    phase.label
                );
            }
        }
        // On the §5.2 optimum the measured critical path *is* the
        // prediction total (and the Theorem 3 bound wherever tight).
        let measured = out.critical_path_time();
        assert!(
            (measured - pred.total()).abs() <= 1e-9 * pred.total().max(1.0),
            "{label}: measured critical path {measured} vs eq. (3) total {}",
            pred.total()
        );
    }
    // Aggregate per-phase traffic (holds on every divisible grid).
    for (i, want) in pred.phases().iter().enumerate() {
        let got: u64 = out.values.iter().map(|v| v.phases[i].meter.words_recv).sum();
        assert!(
            (got as f64 - p as f64 * want).abs() < 1e-6,
            "{label}: phase {i} aggregate words {got} vs eq. (3) {}",
            p as f64 * want
        );
    }
    if trace {
        let tracer = out.tracer().expect("traced run assembles a tracer");
        let totals = tracer.phase_totals();
        assert!(!totals.is_empty(), "{label}: traced run attributes per-phase goodput");
    }

    let rate = p as f64 / secs.max(1e-9);
    println!(
        "SCALE: label={label} p={p} grid={}x{}x{} dims={}x{}x{} exact={exact} trace={trace} \
         secs={secs:.3} ranks_per_sec={rate:.0} peak_rss_kb={}",
        grid_arr[0],
        grid_arr[1],
        grid_arr[2],
        dims.n1,
        dims.n2,
        dims.n3,
        peak_rss_kb()
    );
}

/// P = 10^4 on the integral §5.2 grid [25, 20, 20] of (250, 200, 200):
/// t = (P/mnk)^{1/3} = 0.1, blocks 10×10, every fiber chunk even — the
/// per-rank per-phase eq. (3) check applies to all 10^4 ranks. Runs in
/// the ordinary (debug) test suite.
#[test]
fn alg1_executes_at_p_10_4_with_exact_eq3_attribution() {
    scale_point("p10k", MatMulDims::new(250, 200, 200), [25, 20, 20], true, false);
}

/// P = 10^5 on the integral §5.2 grid [50, 50, 40] of
/// (1000, 1000, 800): t = 0.05, blocks 20×20, fiber chunks even. With
/// the structured tracer armed. Release-mode cell of `cargo xtask
/// scale-check`.
#[test]
#[ignore = "large-P release cell; run via cargo xtask scale-check"]
fn alg1_executes_at_p_10_5_with_exact_eq3_attribution() {
    scale_point("p100k", MatMulDims::new(1000, 1000, 800), [50, 50, 40], true, true);
}

/// P = 10^6 on the integral §5.2 grid [100, 100, 100] of
/// (100, 100, 100): t = 1, one element per block, so fiber chunks are
/// uneven and eq. (3) holds in aggregate (the per-rank exact check
/// needs even chunks). Release-mode cell of `cargo xtask scale-check`;
/// measured on one core: ~6 640 s at ~151 ranks/sec, 24 GB peak RSS.
#[test]
#[ignore = "million-rank release cell; run via cargo xtask scale-check"]
fn alg1_executes_at_p_10_6() {
    scale_point("p1m", MatMulDims::new(100, 100, 100), [100, 100, 100], false, false);
}
