//! Chaos certification: every executable algorithm under multi-fault
//! plans, with model-exact recovery goodput.
//!
//! The tier-1 cell (`chaos_cert_all_six_algorithms`) arms one pinned
//! plan — a direct kill, a cascading kill, a healing partition, a
//! straggler storm, and background drops — against all six algorithms
//! through the generic [`run_recoverable_a`] wrapper, and asserts
//!
//! * the product reassembled from the survivors' shares is **bitwise**
//!   equal to the serial reference,
//! * the final attempt's checkpoint/redistribution goodput and run
//!   goodput each equal `pmm_model::recovery_prediction` **exactly**
//!   (to the word, across survivors),
//! * whole-run goodput stays under the prediction's upper bound.
//!
//! The `#[ignore]`d release cells extend the certification to a
//! (algorithm × Theorem-3 regime × plan class) soak and to a
//! fault-armed Algorithm 1 run at P = 10^4 + 1 (one kill plus a healing
//! partition, recovering onto the
//! integral §5.2 grid `[25, 20, 20]` of the 10^4 survivors). Each cell
//! prints a `CHAOS: key=value` line; `cargo xtask chaos-soak` runs the
//! whole file in release mode and collects those lines into
//! `BENCH_chaos.json`, gating on a 100% recovery success rate.

use std::time::Instant;

use pmm::prelude::*;

fn inputs(dims: MatMulDims) -> (Matrix, Matrix) {
    (
        random_int_matrix(dims.n1 as usize, dims.n2 as usize, -3..4, 31),
        random_int_matrix(dims.n2 as usize, dims.n3 as usize, -3..4, 32),
    )
}

fn reference(dims: MatMulDims) -> Matrix {
    let (a, b) = inputs(dims);
    gemm(&a, &b, Kernel::Naive)
}

fn all_specs() -> Vec<(&'static str, Recoverable)> {
    vec![
        ("alg1", Recoverable::Alg1 { kernel: Kernel::Naive, assembly: Assembly::ReduceScatter }),
        ("alg1_streamed", Recoverable::Alg1Streamed { kernel: Kernel::Naive, slabs: 2 }),
        ("summa", Recoverable::Summa { kernel: Kernel::Naive }),
        ("cannon", Recoverable::Cannon { kernel: Kernel::Naive }),
        ("twofived", Recoverable::TwoFiveD { kernel: Kernel::Naive }),
        ("carma", Recoverable::Carma { kernel: Kernel::Naive }),
    ]
}

/// Run `spec` under recovery on a faulty world. Inputs are generated
/// once and shared by all rank programs (required at large `P`).
fn run_chaos(
    spec: &Recoverable,
    dims: MatMulDims,
    p: usize,
    sched_seed: u64,
    plan: FaultPlan,
    at_scale: bool,
) -> WorldResult<Result<Recovered, RankFailed>> {
    let (a, b) = inputs(dims);
    let mut world =
        World::new(p, MachineParams::BANDWIDTH_ONLY).with_seed(sched_seed).with_faults(plan);
    if at_scale {
        // Schedule recording snapshots the runnable set per pick (O(P)
        // per event) — off at scale; targeted wakeup keeps the
        // runnable-set bookkeeping proportional to the active ranks.
        world = world.with_schedule_recording(false).with_targeted_wakeup(true);
    }
    world.run(async |rank| run_recoverable_a(rank, spec, dims, &a, &b).await)
}

/// Certify one chaos cell: survivors agree, the reassembled product is
/// bitwise-correct, the final attempt's goodput matches
/// `recovery_prediction` exactly (`exact_run` additionally pins the run
/// goodput, which for Algorithm 1 requires the recovery grid to divide
/// the dimensions), and the whole run respects the model upper bound.
/// Returns (attempts, survivor count, final plan).
fn certify_cell(
    label: &str,
    out: &WorldResult<Result<Recovered, RankFailed>>,
    dims: MatMulDims,
    c_ref: &Matrix,
    exact_run: bool,
) -> (usize, usize, AlgPlan) {
    let ok = out
        .values
        .iter()
        .find_map(|v| v.as_ref().ok())
        .unwrap_or_else(|| panic!("{label}: no survivor succeeded"));
    let survivors = ok.survivors.clone();
    let plan = ok.plan.clone();
    for &w in &survivors {
        let v = out.values[w].as_ref().unwrap_or_else(|e| panic!("{label}: survivor {w}: {e}"));
        assert_eq!(v.survivors, survivors, "{label}: survivors disagree");
        assert_eq!(v.plan, plan, "{label}: layouts disagree");
    }
    let shares: Vec<CShare> = survivors
        .iter()
        .map(|&w| out.values[w].as_ref().expect("survivor").share.clone())
        .collect();
    let c = assemble_recovered(dims, &plan, &shares);
    assert_eq!(&c, c_ref, "{label}: recovered product must be bitwise-correct");

    let pred = recovery_prediction(dims, &ok.attempt_plans, &ok.attempt_survivors);
    let alive: Vec<&Recovered> = out.values.iter().filter_map(|v| v.as_ref().ok()).collect();
    let restore: u64 = alive.iter().map(|v| v.restore_meter.words_sent).sum();
    assert_eq!(
        restore as f64,
        pred.last().restore_words_total,
        "{label}: checkpoint/redistribution goodput must match the model exactly"
    );
    if exact_run {
        if let AlgPlan::Alg1 { grid } | AlgPlan::Alg1Streamed { grid, .. } = plan {
            assert!(dims.divisible_by(grid), "{label}: exact cell needs a divisible grid");
        }
        let run: u64 = alive.iter().map(|v| v.run_meter.words_sent).sum();
        assert_eq!(
            run as f64,
            pred.last().run_words_total,
            "{label}: final-attempt run goodput must match the model exactly"
        );
    }
    let whole: f64 = out.reports.iter().map(|r| r.meter.words_sent as f64).sum();
    assert!(
        whole <= pred.total_upper_bound_words() + 1e-9,
        "{label}: whole-run goodput {whole} exceeds the model upper bound {}",
        pred.total_upper_bound_words()
    );
    (ok.attempts(), survivors.len(), plan)
}

/// The pinned tier-1 multi-fault plan: a kill, a cascade armed on the
/// first death, a healing partition around ranks {0, 1}, a straggler
/// storm, and background message faults.
fn tier1_plan() -> FaultPlan {
    FaultPlan::none()
        .with_seed(0xC4A0_5CE7)
        .with_drop(0.05)
        .with_duplicate(0.02)
        .with_kill(2, 3)
        .with_cascade(7, 1)
        .with_partition(vec![0, 1], 2..30, 2)
        .with_storm(0.25, 2.0)
}

#[test]
fn chaos_cert_all_six_algorithms() {
    // P = 10 with two deaths → 8 survivors: best_grid gives the
    // divisible [2, 2, 2] (exact eq. (3) run goodput), SUMMA refactors
    // to 2 × 4, Cannon to a 2 × 2 torus with 4 idle survivors, 2.5D to
    // q = 2, c = 2 (exercising the layered reassembly), CARMA keeps all
    // 8 (power of two).
    let dims = MatMulDims::new(24, 24, 24);
    let c_ref = reference(dims);
    for (alg, spec) in all_specs() {
        let t0 = Instant::now();
        let out = run_chaos(&spec, dims, 10, 0xC0DE, tier1_plan(), false);
        let killed = out.values[2].as_ref().expect_err("rank 2 was killed");
        assert!(killed.detail.contains("kill=2@3"), "{alg}: {}", killed.detail);
        let cascaded = out.values[7].as_ref().expect_err("rank 7 cascaded");
        assert!(cascaded.detail.contains("cascade=7@1"), "{alg}: {}", cascaded.detail);
        let (attempts, nsurv, plan) = certify_cell(alg, &out, dims, &c_ref, true);
        assert_eq!(nsurv, 8, "{alg}");
        assert!(attempts >= 2, "{alg}: the kills force at least one re-plan");
        println!(
            "CHAOS: cell=cert algorithm={alg} p=10 survivors={nsurv} attempts={attempts} \
             layout={plan} recovered=1 secs={:.3}",
            t0.elapsed().as_secs_f64()
        );
    }
}

#[test]
fn chaos_cert_replays_byte_identically() {
    // Same (program, seed, plan) triple twice: every per-rank Result,
    // meter, and clock must reproduce — multi-fault plans are pure
    // hashes, so the whole chaos run is a deterministic function of the
    // triple.
    let dims = MatMulDims::new(24, 24, 24);
    let spec = Recoverable::Alg1 { kernel: Kernel::Naive, assembly: Assembly::ReduceScatter };
    let run = || run_chaos(&spec, dims, 10, 0xC0DE, tier1_plan(), false);
    let (first, again) = (run(), run());
    assert_eq!(first.values, again.values, "per-rank results must replay byte-identically");
    for (w, (x, y)) in first.reports.iter().zip(&again.reports).enumerate() {
        assert_eq!(x.meter, y.meter, "rank {w} meter must replay exactly");
        assert_eq!(x.time, y.time, "rank {w} clock must replay exactly");
    }
}

/// One soak plan class: a named [`FaultPlan`] shape scaled to `p` ranks.
fn plan_classes(p: usize) -> Vec<(&'static str, FaultPlan)> {
    let seed = 0x50AB ^ p as u64;
    vec![
        ("kill", FaultPlan::none().with_seed(seed).with_drop(0.04).with_kill(1, 4)),
        ("cascade", FaultPlan::none().with_seed(seed).with_kill(1, 4).with_cascade(p - 1, 1)),
        (
            "partition",
            FaultPlan::none().with_seed(seed).with_drop(0.04).with_partition(vec![0, 1], 0..24, 2),
        ),
        (
            "storm",
            FaultPlan::none().with_seed(seed).with_drop(0.03).with_kill(1, 5).with_storm(0.5, 4.0),
        ),
    ]
}

/// The full soak: algorithm × Theorem-3 regime × plan class on
/// the conformance instance `(96, 24, 12)` (P = 3 in the 1D case, 16 in
/// 2D, 64 in 3D). Wall-clock capped by `PMM_CHAOS_BUDGET_SECS`
/// (default 240): cells past the budget are skipped and counted in the
/// summary line.
#[test]
#[ignore = "release soak; run via cargo xtask chaos-soak"]
fn chaos_soak_algorithms_by_regime_by_plan_class() {
    let budget = std::env::var("PMM_CHAOS_BUDGET_SECS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(240);
    let budget = std::time::Duration::from_secs(budget);
    let dims = MatMulDims::new(96, 24, 12);
    let c_ref = reference(dims);
    let start = Instant::now();
    let (mut ran, mut skipped) = (0u32, 0u32);
    for (alg, spec) in all_specs() {
        for p in [3usize, 16, 64] {
            for (class, plan) in plan_classes(p) {
                if start.elapsed() >= budget {
                    skipped += 1;
                    continue;
                }
                let label = format!("{alg}/p{p}/{class}");
                let t0 = Instant::now();
                let out = run_chaos(&spec, dims, p, 0x50AB, plan, false);
                // Run goodput exactness is asserted on the tier-1 cert's
                // divisible grid; the soak checks bitwise correctness,
                // exact restore goodput, and the upper bound on every
                // (possibly uneven) survivor layout.
                let (attempts, nsurv, layout) = certify_cell(&label, &out, dims, &c_ref, false);
                ran += 1;
                println!(
                    "CHAOS: cell=soak algorithm={alg} p={p} class={class} survivors={nsurv} \
                     attempts={attempts} layout={layout} recovered=1 secs={:.3}",
                    t0.elapsed().as_secs_f64()
                );
            }
        }
    }
    println!(
        "CHAOS: summary=soak cells={ran} skipped={skipped} failures=0 secs={:.1}",
        start.elapsed().as_secs_f64()
    );
    assert!(ran > 0, "the soak budget must admit at least one cell");
}

/// The scale acceptance cell: fault-armed Algorithm 1 end-to-end at
/// P = 10^4 + 1. Rank 10^4 is killed during the
/// first attempt and a partition around ranks {0..3} blackholes their
/// early traffic until it heals; the 10^4 survivors redistribute from
/// checkpoints onto the integral §5.2 grid `[25, 20, 20]` of
/// `(250, 200, 200)` and finish with model-exact goodput and a
/// bitwise-correct product.
#[test]
#[ignore = "release cell; run via cargo xtask chaos-soak"]
fn fault_armed_alg1_recovers_at_p_10_4() {
    let dims = MatMulDims::new(250, 200, 200);
    let p = 10_001;
    let plan = FaultPlan::none().with_seed(0xC0A7).with_kill(10_000, 2).with_partition(
        vec![0, 1, 2, 3],
        0..6,
        2,
    );
    let spec = Recoverable::Alg1 { kernel: Kernel::Naive, assembly: Assembly::ReduceScatter };
    let t0 = Instant::now();
    let out = run_chaos(&spec, dims, p, 3, plan, true);
    let secs = t0.elapsed().as_secs_f64();

    let killed = out.values[10_000].as_ref().expect_err("rank 10000 was killed");
    assert!(killed.detail.contains("kill=10000@2"), "{}", killed.detail);
    let c_ref = reference(dims);
    let (attempts, nsurv, layout) = certify_cell("p10k", &out, dims, &c_ref, true);
    assert_eq!(nsurv, 10_000, "all other ranks survive");
    assert_eq!(layout, AlgPlan::Alg1 { grid: [25, 20, 20] }, "the §5.2 grid of 10^4 survivors");
    assert_eq!(attempts, 2, "one abandoned attempt, one successful");

    // Per-rank, per-phase eq. (3) exactness on the recovery grid for
    // every one of the 10^4 survivors (the grid divides the dimensions).
    let pred = alg1_prediction(dims, [25, 20, 20]);
    for v in out.values.iter().filter_map(|v| v.as_ref().ok()) {
        let CShare::Chunk(chunk) = &v.share else { panic!("Alg1 share") };
        for (ph, want) in chunk.phases.iter().zip(pred.phases()) {
            assert_eq!(ph.meter.words_sent as f64, want, "phase {:?}", ph.label);
        }
    }
    let rate = nsurv as f64 * attempts as f64 / secs.max(1e-9);
    println!(
        "CHAOS: cell=p10k algorithm=alg1 p={p} survivors={nsurv} \
         attempts={attempts} layout={layout} recovered=1 secs={secs:.3} ranks_per_sec={rate:.0}"
    );
}
