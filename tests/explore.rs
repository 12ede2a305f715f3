//! Schedule-space exploration gate (`cargo xtask dpor` entry point).
//!
//! Pins the DPOR-lite explorer against a fixed workload matrix:
//!
//! * **Exhaustiveness certificates** — for two small collective
//!   workloads the exhaustive walk visits *every* interleaving of the
//!   deterministic scheduler and the schedule count is pinned, so any
//!   change to the scheduler's pick-point structure is caught here.
//! * **Pruning soundness** — the sleep-set walk must reach exactly the
//!   same set of distinct outcomes as the exhaustive walk, while
//!   visiting fewer schedules.
//! * **Schedule independence of Algorithm 1** — on a budgeted frontier
//!   of a 4-rank grid run, every explored schedule must produce bitwise
//!   identical results/meters and per-phase traffic matching the eq. 3
//!   prediction (`pmm_model::alg1_prediction`).
//! * **Generator soak** — synthesized valid-and-invalid rank programs
//!   are run against the verifier; the intent oracle tolerates zero
//!   false positives and zero false negatives. `PMM_EXPLORE_PROGRAMS`
//!   scales the batch (CI runs ≥ 1000).
//!
//! Tests print `DPOR: key=value ...` metric lines that `cargo xtask
//! dpor` collects into `BENCH_explore.json`.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use pmm::explore::{
    generate, soak, verdict, world_for, GenOutcome, Intent, ScheduleOutcome, Strategy,
};
use pmm::prelude::*;
use pmm::simnet::CollectiveOp;

/// Per-CI-run program batch for the generator soak; `cargo xtask dpor`
/// raises it to ≥ 1000.
const DEFAULT_SOAK_PROGRAMS: u64 = 300;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// A stable digest of one explored schedule's outcome: per-rank values,
/// traffic meters, clocks, and memory peaks (or the failure report).
fn fingerprint<T: std::fmt::Debug>(outcome: ScheduleOutcome<'_, T>) -> String {
    match outcome {
        Ok(out) => {
            let reports: Vec<String> = out
                .reports
                .iter()
                .map(|r| format!("{:?}|{}|{}", r.meter, r.time, r.peak_mem_words))
                .collect();
            format!("ok values={:?} reports={reports:?}", out.values)
        }
        Err(fail) => format!("err {}", fail.report),
    }
}

/// Explore with both strategies, asserting the sleep-set walk covers
/// exactly the distinct outcomes of the exhaustive one. Returns the two
/// reports.
fn certify<T, F>(label: &str, world: &World, program: F) -> (ExploreReport, ExploreReport)
where
    T: std::fmt::Debug,
    F: AsyncFn(&mut Rank) -> T,
{
    let mut exhaustive_fps = BTreeSet::new();
    let t0 = Instant::now();
    let full = explore_outcomes(world, &program, &ExploreConfig::exhaustive(), |_, outcome| {
        exhaustive_fps.insert(fingerprint(outcome));
        Ok(())
    })
    .unwrap_or_else(|f| panic!("{label} exhaustive walk failed: {f}"));
    let full_secs = t0.elapsed().as_secs_f64();
    assert!(full.complete, "{label}: exhaustive walk must drain the frontier");
    assert_eq!(full.pruned, 0, "{label}: exhaustive walk must not prune");
    assert_eq!(full.runs, full.schedules, "{label}: every exhaustive run is a schedule");

    let mut sleep_fps = BTreeSet::new();
    let t1 = Instant::now();
    let pruned = explore_outcomes(world, &program, &ExploreConfig::sleep_sets(), |_, outcome| {
        sleep_fps.insert(fingerprint(outcome));
        Ok(())
    })
    .unwrap_or_else(|f| panic!("{label} sleep-set walk failed: {f}"));
    let pruned_secs = t1.elapsed().as_secs_f64();
    assert!(pruned.complete, "{label}: sleep-set walk must drain the frontier");
    assert_eq!(
        sleep_fps, exhaustive_fps,
        "{label}: sleep-set pruning must cover every distinct outcome"
    );
    assert!(
        pruned.schedules <= full.schedules,
        "{label}: pruning may not enlarge the schedule count"
    );

    println!(
        "DPOR: workload={label} strategy=exhaustive schedules={} runs={} pruned=0 \
         complete=true secs={full_secs:.3}",
        full.schedules, full.runs
    );
    println!(
        "DPOR: workload={label} strategy=sleep-sets schedules={} runs={} pruned={} \
         complete=true secs={pruned_secs:.3}",
        pruned.schedules, pruned.runs, pruned.pruned
    );
    (full, pruned)
}

#[test]
fn exhaustive_certificate_pins_the_gather3_schedule_space() {
    let world = World::new(3, MachineParams::BANDWIDTH_ONLY);
    let gather = async |rank: &mut Rank| {
        let comm = rank.world_comm();
        let me = rank.world_rank();
        if me == 0 {
            let mut sum = 0.0;
            for from in 1..comm.size() {
                sum += rank.recv_a(&comm, from).await.payload[0];
            }
            sum
        } else {
            rank.send_a(&comm, 0, &[me as f64]).await;
            0.0
        }
    };
    let (full, pruned) = certify("gather3", &world, gather);
    // The certificate: a 3-rank root gather has exactly 72 maximal
    // interleavings under the cooperative scheduler's pick points.
    assert_eq!(full.schedules, 72, "gather3 interleaving certificate drifted");
    assert!(pruned.pruned > 0, "gather3 must give sleep sets something to prune");
}

#[test]
fn exhaustive_certificate_pins_the_barrier4_schedule_space() {
    // The pinned 4-rank collective workload of `cargo xtask dpor`: a
    // registered barrier collective followed by the barrier itself.
    let world = World::new(4, MachineParams::BANDWIDTH_ONLY);
    let barrier = async |rank: &mut Rank| {
        let comm = rank.world_comm();
        rank.collective_begin_a(&comm, CollectiveOp::Barrier, 0).await;
        rank.hard_sync_a().await;
        rank.world_rank()
    };
    let (full, pruned) = certify("barrier4", &world, barrier);
    // The certificate: all 15120 interleavings explored, every one
    // bitwise equivalent (the fingerprint sets collapse to size 1 via
    // `certify`'s cross-check, and the counts below pin the space).
    assert_eq!(full.schedules, 15120, "barrier4 interleaving certificate drifted");
    assert!(
        pruned.schedules < full.schedules / 10,
        "sleep sets should prune the barrier4 space by at least 10x \
         (got {} of {})",
        pruned.schedules,
        full.schedules
    );
}

#[test]
fn alg1_traffic_matches_eq3_on_every_explored_schedule() {
    // A real Algorithm 1 run on a 4-rank [2,2,1] grid, explored on a
    // budgeted frontier: every schedule must reproduce the same values
    // and meters, and aggregate per-phase traffic must match the eq. 3
    // prediction from `pmm_model::alg1_prediction`.
    let dims = MatMulDims::new(4, 4, 2);
    let grid = [2usize, 2, 1];
    let pred = alg1_prediction(dims, grid);
    let p = 4usize;
    let cfg = Alg1Config {
        dims,
        grid: Grid3::from_dims(grid),
        kernel: Kernel::Naive,
        assembly: Assembly::ReduceScatter,
    };
    let world = World::new(p, MachineParams::BANDWIDTH_ONLY);
    let budget = Duration::from_secs(env_u64("PMM_EXPLORE_BUDGET_SECS", 60).max(10) / 2);
    let t0 = Instant::now();
    let report = explore_checked(
        &world,
        async |rank| {
            let a = random_int_matrix(dims.n1 as usize, dims.n2 as usize, -3..4, 11);
            let b = random_int_matrix(dims.n2 as usize, dims.n3 as usize, -3..4, 22);
            let out = alg1_a(rank, &cfg, &a, &b).await;
            // Digest: C chunk bits + per-phase traffic (bitwise
            // comparable across schedules).
            let c_bits: Vec<u64> = out.c_chunk.iter().map(|x| x.to_bits()).collect();
            let phase_words: Vec<(u64, u64)> =
                out.phases.iter().map(|ph| (ph.meter.words_recv, ph.meter.words_sent)).collect();
            (c_bits, phase_words)
        },
        &ExploreConfig::budgeted(48, budget),
        |out| {
            for (i, want) in pred.phases().iter().enumerate() {
                let got: u64 = out.values.iter().map(|v| v.1[i].0).sum();
                let expect = p as f64 * want;
                if (got as f64 - expect).abs() > 1e-6 {
                    return Err(format!(
                        "phase {i} aggregate words_recv {got} vs eq. 3 prediction {expect}"
                    ));
                }
            }
            Ok(())
        },
    )
    .unwrap_or_else(|f| panic!("alg1 exploration failed: {f}"));
    assert!(report.schedules >= 1);
    assert!(
        report.complete || report.schedules == 48,
        "budgeted walk stops at the cap or drains: {report:?}"
    );
    println!(
        "DPOR: workload=alg1-2x2x1 strategy=budgeted schedules={} runs={} pruned={} \
         complete={} secs={:.3}",
        report.schedules,
        report.runs,
        report.pruned,
        report.complete,
        t0.elapsed().as_secs_f64()
    );
}

#[test]
fn budget_caps_the_frontier_sweep() {
    let world = World::new(4, MachineParams::BANDWIDTH_ONLY);
    let report = explore(
        &world,
        async |rank| {
            rank.hard_sync_a().await;
            rank.world_rank()
        },
        &ExploreConfig {
            strategy: Strategy::Exhaustive,
            max_schedules: Some(25),
            wall_clock: None,
        },
    )
    .expect("capped walk must not fail");
    assert_eq!(report.schedules, 25, "the schedule budget is a hard cap");
    assert!(!report.complete, "a capped walk must not claim completeness");
    assert!(report.frontier > 0, "a capped walk must report the abandoned frontier");
}

#[test]
fn a_failing_schedule_names_its_choice_prefix() {
    let world = World::new(2, MachineParams::BANDWIDTH_ONLY);
    let mut seen = 0u64;
    let failure = explore_outcomes(
        &world,
        async |rank| {
            rank.hard_sync_a().await;
            rank.world_rank()
        },
        &ExploreConfig::exhaustive(),
        |_, _| {
            seen += 1;
            if seen == 2 {
                Err("synthetic oracle failure".to_string())
            } else {
                Ok(())
            }
        },
    )
    .expect_err("the failing oracle must surface");
    assert!(!failure.prefix.is_empty(), "failure must carry the full choice sequence");
    let shown = failure.to_string();
    assert!(shown.contains("synthetic oracle failure"), "{shown}");
    assert!(shown.contains("PMM_SCHEDULE=prefix:"), "repro must be env-var form: {shown}");
}

#[test]
fn deadlocking_programs_are_explored_not_hung() {
    // Both ranks receive first: every schedule deadlocks. The explorer
    // must still walk the whole (tiny) tree, handing each deadlock to
    // the callback as a captured failure rather than hanging or
    // panicking.
    let world = World::new(2, MachineParams::BANDWIDTH_ONLY);
    let mut outcomes = 0u64;
    let report = explore_outcomes(
        &world,
        async |rank| {
            let comm = rank.world_comm();
            let peer = 1 - rank.world_rank();
            let got = rank.recv_a(&comm, peer).await.payload[0];
            rank.send_a(&comm, peer, &[got]).await;
        },
        &ExploreConfig::exhaustive(),
        |prefix, outcome| {
            outcomes += 1;
            let fail = outcome.expect_err("mutual recv must deadlock on every schedule");
            if !fail.report.contains("deadlock detected") {
                return Err(format!("prefix {prefix:?}: unexpected failure: {}", fail.report));
            }
            Ok(())
        },
    )
    .expect("deadlock exploration must complete");
    assert!(report.complete);
    assert_eq!(report.schedules, outcomes);
    assert!(outcomes >= 1);
}

#[test]
fn generator_soak_has_zero_false_reports() {
    let programs = env_u64("PMM_EXPLORE_PROGRAMS", DEFAULT_SOAK_PROGRAMS);
    let seed0 = seed_from_env(0xD15C_0000);
    let t0 = Instant::now();
    let stats = soak(seed0, programs).unwrap_or_else(|e| panic!("soak oracle violation: {e}"));
    assert_eq!(stats.programs, programs);
    // The batch must actually exercise every defect class.
    for (class, n) in [
        ("valid", stats.valid),
        ("mismatch", stats.mismatch),
        ("deadlock", stats.deadlock),
        ("disorder", stats.disorder),
        ("undrained", stats.undrained),
    ] {
        assert!(n > 0, "soak batch of {programs} never produced a {class} program");
    }
    println!(
        "DPOR: workload=soak programs={} valid={} mismatch={} deadlock={} disorder={} \
         undrained={} secs={:.3}",
        stats.programs,
        stats.valid,
        stats.mismatch,
        stats.deadlock,
        stats.disorder,
        stats.undrained,
        t0.elapsed().as_secs_f64()
    );
}

/// A 3-rank exchange ring.
async fn ring3(rank: &mut Rank) -> f64 {
    let comm = rank.world_comm();
    let me = rank.world_rank();
    let n = comm.size();
    let msg = rank.exchange_a(&comm, (me + 1) % n, (me + n - 1) % n, &[me as f64]).await;
    msg.payload[0]
}

#[test]
fn pmm_schedule_prefix_replays_on_the_event_loop() {
    // A `PMM_SCHEDULE=prefix:...` recipe (parsed through the same
    // `FromStr` that `schedule_from_env` uses) must replay an explored
    // branch exactly: same values, same meters, same recorded choice
    // stream.
    let world = World::new(3, MachineParams::BANDWIDTH_ONLY);
    // Pick one explored schedule and remember its full choice prefix.
    let mut recipe: Option<(Vec<usize>, String)> = None;
    explore_outcomes(&world, ring3, &ExploreConfig::exhaustive(), |prefix, outcome| {
        if recipe.is_none() && !prefix.is_empty() {
            recipe = Some((prefix.to_vec(), fingerprint(outcome)));
        }
        Ok(())
    })
    .expect("exhaustive walk of the 3-rank exchange must succeed");
    let (prefix, want_fp) = recipe.expect("at least one schedule has a non-empty prefix");

    // Round-trip the prefix through the PMM_SCHEDULE string form.
    let env_value = format!("{}", Schedule::Prefix(prefix.clone()));
    let parsed: Schedule = env_value.parse().expect("rendered schedule must parse back");
    assert_eq!(parsed, Schedule::Prefix(prefix.clone()), "PMM_SCHEDULE round-trip");

    let replay =
        world.clone().with_schedule(parsed).try_run(ring3).expect("prefix replay must succeed");
    assert_eq!(fingerprint(Ok(&replay)), want_fp, "prefix replay diverged from the explored run");
    let picks: Vec<usize> = replay
        .choice_points
        .expect("deterministic run records picks")
        .iter()
        .map(|c| c.chosen)
        .take(prefix.len())
        .collect();
    assert_eq!(picks, prefix, "the replayed pick stream must start with the prefix");
}

#[test]
fn explorer_cross_checks_generated_programs() {
    // Close the loop between the generator and the explorer: for
    // fault-free generated programs on small worlds, sweep a budgeted
    // frontier of schedules and hold the verifier to the intent oracle
    // on *every* explored schedule, not just the seeded one.
    let mut checked_valid = 0u32;
    let mut checked_defective = 0u32;
    let mut seed = 0x5EED_BA5E_u64;
    while checked_valid < 2 || checked_defective < 3 {
        seed = seed.wrapping_add(1);
        let prog = generate(seed);
        if prog.world_size > 4 || prog.faults.is_some() {
            continue;
        }
        let wants_valid = prog.intent == Intent::Valid;
        if wants_valid && checked_valid >= 2 {
            continue;
        }
        if !wants_valid && checked_defective >= 3 {
            continue;
        }
        let world = world_for(&prog);
        let cfg = ExploreConfig::budgeted(20, Duration::from_secs(20));
        let report = explore_outcomes(
            &world,
            async |rank| pmm::explore::interpret(&prog, rank).await,
            &cfg,
            |prefix, outcome| {
                let gen_outcome = GenOutcome {
                    flagged: match outcome {
                        Ok(_) => None,
                        Err(fail) => Some(fail.report.clone()),
                    },
                };
                verdict(&prog, &gen_outcome).map_err(|e| {
                    format!("generated seed {seed} at schedule prefix {prefix:?}: {e}")
                })
            },
        )
        .unwrap_or_else(|f| panic!("exploring generated program seed {seed} failed: {f}"));
        assert!(report.schedules >= 1);
        if wants_valid {
            checked_valid += 1;
        } else {
            checked_defective += 1;
        }
    }
}
