//! Smoke test of the benchmark itself: every workload at a tiny size
//! passes its own checks, a corrupted product or count is caught, exact
//! counts repeat for a seed, and the metric catalogue matches
//! `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use pmm_perfbench::layers::{END_TO_END, PER_LAYER};
use pmm_perfbench::{run, Opts, Outcome, WORKLOADS};

fn tiny(workload: &str, trace: bool, corrupt: bool) -> Outcome {
    let opts = Opts { seed: 5, seconds: 0.2, trace, tiny: true, corrupt };
    run(workload, &opts).expect("a listed workload")
}

#[test]
fn every_workload_passes_its_checks_at_tiny_size() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let out = tiny(w, trace, false);
            assert!(out.attempted >= 1, "{w}: nothing attempted");
            assert_eq!(out.failed, 0, "{w} (trace={trace}): {:?}", out.failures);
        }
        let out = tiny(w, false, false);
        for (name, _) in END_TO_END {
            let v = out.get(name).unwrap_or_else(|| panic!("{w}: no {name}"));
            assert!(v.is_finite() && v > 0.0, "{w}: {name} = {v}");
        }
    }
}

#[test]
fn corrupted_outputs_are_counted_as_failures() {
    for w in WORKLOADS {
        let out = tiny(w, false, true);
        assert!(out.failed >= 1, "{w}: the checker did not see a corrupted output");
        assert!(
            out.failed <= out.attempted,
            "{w}: {} failures in {} ops",
            out.failed,
            out.attempted
        );
        assert!(out.get("success_ratio").is_some_and(|r| r < 1.0), "{w}: success_ratio missed it");
    }
}

#[test]
fn exact_counts_repeat_for_a_seed() {
    let names = ["explore.runs", "explore.schedules", "simnet.msgs", "simnet.words"];
    let first = tiny("dpor-alg1", true, false);
    let second = tiny("dpor-alg1", true, false);
    for name in names {
        assert_eq!(first.get(name), second.get(name), "{name} drifted");
        assert!(first.get(name).is_some_and(|v| v > 0.0), "{name} missing");
    }
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
    let metrics = END_TO_END.iter().copied().chain(PER_LAYER.iter().map(|l| (l.name, l.unit)));
    let mut n = 0;
    for (name, unit) in metrics {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        n += 1;
    }
    for w in WORKLOADS {
        assert!(compact.contains(&format!("\"name\":\"{w}\"")), "BENCHMARK.json lacks {w}");
    }
    assert_eq!(compact.matches("\"name\":").count(), n + WORKLOADS.len(), "extra names");
}
