//! The metric catalogue: every end-to-end and per-layer metric with its
//! unit, and for each per-layer metric the end-to-end metric it should
//! move, on which workload, and where it should not move. `BENCHMARK.json`
//! lists the same names; the traced run prints this map next to the
//! numbers.

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
    ("throughput", "1/s"),
    ("op_ms_p50", "ms"),
];

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The end-to-end metric it should move, and on which workload.
    pub moves: &'static str,
    /// Where it should not move.
    pub not_moves: &'static str,
}

const fn l(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    not_moves: &'static str,
) -> Layer {
    Layer { name, unit, moves, not_moves }
}

/// The workload that does not touch the simulator.
const SERVE: &str = "advisor-serve";
/// The workloads that do not touch the service.
const SIMULATOR: &str = "alg1-*, dpor-alg1";

/// Per-layer metrics, reported by every traced run. A workload that does
/// not exercise a layer reports 0 for it. This is the only copy of the
/// per-layer → end-to-end map; the traced run prints it next to the
/// numbers.
pub const PER_LAYER: [Layer; 28] = [
    l(
        "simnet.spawn_ns_per_rank",
        "ns",
        "setup_s, throughput on alg1-many-ranks and dpor-alg1",
        "alg1-big-blocks",
    ),
    l("simnet.msg_ns", "ns", "throughput, op_ms_p50 on alg1-many-ranks", "alg1-big-blocks"),
    l("simnet.verify_ns_per_msg", "ns", "throughput on alg1-many-ranks", SERVE),
    l("simnet.copy_gbps", "GB/s", "throughput on alg1-big-blocks", "little on alg1-many-ranks"),
    l("simnet.replay_us", "us", "throughput on dpor-alg1", "alg1-*"),
    l(
        "collectives.split_ns_per_rank",
        "ns",
        "throughput on alg1-many-ranks, alg1-big-blocks",
        SERVE,
    ),
    l("collectives.all_gather_ns", "ns", "throughput on alg1-many-ranks, alg1-big-blocks", SERVE),
    l(
        "collectives.reduce_scatter_ns",
        "ns",
        "throughput on alg1-big-blocks (summation), less on alg1-many-ranks",
        SERVE,
    ),
    l("dense.gemm_gflops", "GFLOP/s", "throughput on alg1-big-blocks", "alg1-many-ranks"),
    l("dense.gemm_share", "ratio", "throughput on alg1-big-blocks", "alg1-many-ranks"),
    l("algs.self_s", "s", "throughput on alg1-* (derived: execution minus isolated layers)", SERVE),
    l("explore.replays_per_s", "1/s", "throughput on dpor-alg1", "alg1-*, advisor-serve"),
    l(
        "explore.useful_ratio",
        "ratio",
        "throughput on dpor-alg1 (schedules over runs)",
        "alg1-*, advisor-serve",
    ),
    l("core.recommend_us", "us", "throughput on advisor-serve (the miss path)", SIMULATOR),
    l("serve.handle_us", "us", "op_ms_p50, throughput on advisor-serve", SIMULATOR),
    l("serve.submit_us", "us", "op_ms_p50, throughput on advisor-serve", SIMULATOR),
    l(
        "serve.transport_us",
        "us",
        "op_ms_p50, throughput on advisor-serve (derived: TCP p50 minus submit p50)",
        SIMULATOR,
    ),
    l("serve.cache_hit_ratio", "ratio", "throughput on advisor-serve", SIMULATOR),
    l("serve.shed", "count", "success_ratio, throughput on advisor-serve", SIMULATOR),
    l("serve.timeouts", "count", "success_ratio, throughput on advisor-serve", SIMULATOR),
    l("simnet.msgs", "count", "exact: the collectives' message counts on alg1-*, dpor-alg1", "-"),
    l("simnet.words", "count", "exact: eq. (3) times P on alg1-*, dpor-alg1", "-"),
    l("algs.phase_words.all_gather_a", "count", "exact: eq. (3) A term times P", "-"),
    l("algs.phase_words.all_gather_b", "count", "exact: eq. (3) B term times P", "-"),
    l("algs.phase_words.reduce_scatter_c", "count", "exact: eq. (3) C term times P", "-"),
    l("explore.runs", "count", "exact per seed: throughput on dpor-alg1", "-"),
    l("explore.schedules", "count", "exact per seed: the schedule cap on dpor-alg1", "-"),
    l("trace.overhead_ratio", "ratio", "none: traced over untraced op_ms_p50, minus 1", "-"),
];
