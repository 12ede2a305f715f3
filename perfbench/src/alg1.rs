//! Algorithm 1 on the simulated machine: the `alg1-many-ranks` and
//! `alg1-big-blocks` workloads, the exact-count gate against eq. (3),
//! and the per-layer probes (simnet, collectives, dense, algs) that the
//! traced run times from outside.

use std::sync::Arc;

use pmm::algs::fiber_comms_a;
use pmm::collectives::costs::{all_gather_cost, reduce_scatter_cost};
use pmm::collectives::{all_gather_v_a, reduce_scatter_v_a, AllGatherAlgo, ReduceScatterAlgo};
use pmm::dense::{block_range, chunk_of_block};
use pmm::prelude::*;

use crate::common::{
    input_seed, median, median_secs, spread_ms, timed, window, Opts, Outcome, Probe, SetupTimes,
    SpanLog, PROBE_MB,
};

/// One Algorithm 1 problem: dimensions, §5.2 grid, local kernel.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Problem dimensions.
    pub dims: MatMulDims,
    /// Processor grid `[p1, p2, p3]`.
    pub grid: [usize; 3],
    /// Local kernel.
    pub kernel: Kernel,
}

impl Shape {
    /// Number of ranks.
    pub fn p(&self) -> usize {
        self.grid.iter().product()
    }

    /// The run's configuration.
    pub fn cfg(&self) -> Alg1Config {
        Alg1Config {
            dims: self.dims,
            grid: Grid3::from_dims(self.grid),
            kernel: self.kernel,
            assembly: Assembly::ReduceScatter,
        }
    }

    /// Local block extents `(h1, h2, h3)` of rank 0 (all ranks agree on
    /// the grids used here, which divide the dimensions).
    pub fn block(&self) -> (usize, usize, usize) {
        let d = self.dims;
        (
            block_range(d.n1 as usize, self.grid[0], 0).len(),
            block_range(d.n2 as usize, self.grid[1], 0).len(),
            block_range(d.n3 as usize, self.grid[2], 0).len(),
        )
    }

    /// The tier the local kernel resolves to on the local block.
    pub fn resolved_kernel(&self) -> Kernel {
        let (h1, h2, h3) = self.block();
        self.kernel.resolve(h1, h2, h3)
    }

    /// `2·n1·n2·n3` floating-point operations of one product.
    pub fn flops(&self) -> f64 {
        2.0 * self.dims.n1 as f64 * self.dims.n2 as f64 * self.dims.n3 as f64
    }
}

/// Global inputs (shared by every rank program) and the reference product.
pub struct Inputs {
    /// `A`, `n1 × n2`.
    pub a: Arc<Matrix>,
    /// `B`, `n2 × n3`.
    pub b: Arc<Matrix>,
    /// `C = A·B`, computed serially.
    pub c_ref: Matrix,
}

/// Integer-valued inputs from `seed` (products are exact, so they
/// compare bitwise) and their serial reference product.
pub fn make_inputs(shape: &Shape, seed: u64) -> Inputs {
    let d = shape.dims;
    let a = random_int_matrix(d.n1 as usize, d.n2 as usize, -3..4, input_seed(seed, 1));
    let b = random_int_matrix(d.n2 as usize, d.n3 as usize, -3..4, input_seed(seed, 2));
    let c_ref = gemm(&a, &b, Kernel::Blocked);
    Inputs { a: Arc::new(a), b: Arc::new(b), c_ref }
}

/// What an execution must reproduce exactly: eq. (3) per rank and phase,
/// the critical path, and the message and word totals.
#[derive(Debug, Clone)]
pub struct Expect {
    /// Eq. (3) terms per rank, per phase.
    pub pred: Alg1Prediction,
    /// Messages sent, summed over ranks.
    pub msgs: u64,
    /// Words sent, summed over ranks.
    pub words: u64,
    /// Words sent per phase `[A, B, C]`, summed over ranks.
    pub phase_words: [u64; 3],
}

/// Expected exact counts of one execution of `shape`.
pub fn expect(shape: &Shape) -> Expect {
    let pred = alg1_prediction(shape.dims, shape.grid);
    let p = shape.p() as u64;
    let [p1, p2, p3] = shape.grid;
    let (h1, h2, h3) = shape.block();
    let per_rank_msgs = all_gather_cost(AllGatherAlgo::Auto, p3, h1 * h2 / p3).messages
        + all_gather_cost(AllGatherAlgo::Auto, p1, h2 * h3 / p1).messages
        + reduce_scatter_cost(ReduceScatterAlgo::Auto, p2, h1 * h3 / p2).messages;
    let phase_words = pred.phases().map(|w| w as u64 * p);
    Expect { pred, msgs: per_rank_msgs as u64 * p, words: phase_words.iter().sum(), phase_words }
}

/// The rank program: Algorithm 1 on shared inputs.
pub fn program(
    shape: &Shape,
    inputs: &Inputs,
) -> impl for<'a> Fn(&'a mut Rank) -> LocalBoxFuture<'a, Alg1Output> + Send + Sync {
    let cfg = shape.cfg();
    let (a, b) = (inputs.a.clone(), inputs.b.clone());
    move |rank| {
        let cfg = cfg.clone();
        let (a, b) = (a.clone(), b.clone());
        Box::pin(async move { alg1_a(rank, &cfg, &a, &b).await })
    }
}

/// Check one execution: bitwise product, per-rank per-phase duplex words,
/// critical path, and message / word totals. Returns the problems found.
pub fn check_run(
    shape: &Shape,
    exp: &Expect,
    inputs: &Inputs,
    out: &WorldResult<Alg1Output>,
) -> Vec<String> {
    let mut problems = Vec::new();
    let chunks: Vec<Vec<f64>> = out.values.iter().map(|v| v.c_chunk.clone()).collect();
    let c = assemble_c(shape.dims, Grid3::from_dims(shape.grid), &chunks);
    let same = c.as_slice().len() == inputs.c_ref.as_slice().len()
        && c.as_slice()
            .iter()
            .zip(inputs.c_ref.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits());
    if !same {
        problems.push("product differs from the serial reference".to_string());
    }
    let want = exp.pred.phases();
    'ranks: for (r, v) in out.values.iter().enumerate() {
        for (i, ph) in v.phases.iter().enumerate() {
            if ph.meter.duplex_words() as f64 != want[i] {
                problems.push(format!(
                    "rank {r} phase '{}' moved {} words, eq. (3) says {}",
                    ph.label,
                    ph.meter.duplex_words(),
                    want[i]
                ));
                break 'ranks;
            }
        }
    }
    for i in 0..3 {
        let got: u64 = out.values.iter().map(|v| v.phases[i].meter.words_sent).sum();
        if got != exp.phase_words[i] {
            problems.push(format!("phase {i} words {got} != {}", exp.phase_words[i]));
        }
    }
    let cp = out.critical_path_time();
    if (cp - exp.pred.total()).abs() > 1e-9 * exp.pred.total().max(1.0) {
        problems.push(format!("critical path {cp} != eq. (3) total {}", exp.pred.total()));
    }
    let (msgs, words) = totals(out);
    if msgs != exp.msgs {
        problems.push(format!("messages {msgs} != {}", exp.msgs));
    }
    if words != exp.words {
        problems.push(format!("words {words} != {}", exp.words));
    }
    problems
}

/// Messages and words sent, summed over ranks.
pub fn totals<T>(out: &WorldResult<T>) -> (u64, u64) {
    out.reports.iter().fold((0, 0), |(m, w), r| (m + r.meter.msgs_sent, w + r.meter.words_sent))
}

/// The world `tests/scale.rs` runs its cells on: event loop, schedule
/// recording off, targeted wakeup, tracer off, vector-clock audit at its
/// default (on up to P = 4096).
pub fn scale_world(p: usize) -> World {
    World::new(p, MachineParams::BANDWIDTH_ONLY)
        .with_engine(Engine::EventLoop)
        .with_schedule_recording(false)
        .with_targeted_wakeup(true)
        .with_trace(false)
        .without_watchdog()
}

/// The two Algorithm 1 workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    /// P = 4096 on 16×16×16 of 256³.
    ManyRanks,
    /// P = 8 on 2×2×2 of 1536³.
    BigBlocks,
}

/// The workload's shape (`tiny` for the smoke test).
pub fn shape_of(which: Which, tiny: bool) -> Shape {
    let (n, grid, kernel) = match (which, tiny) {
        (Which::ManyRanks, false) => (256, [16, 16, 16], Kernel::Naive),
        (Which::ManyRanks, true) => (32, [4, 4, 4], Kernel::Naive),
        (Which::BigBlocks, false) => (1536, [2, 2, 2], Kernel::Auto),
        (Which::BigBlocks, true) => (192, [2, 2, 2], Kernel::Auto),
    };
    Shape { dims: MatMulDims::new(n, n, n), grid, kernel }
}

/// Run an Algorithm 1 workload.
pub fn run(which: Which, opts: &Opts) -> Outcome {
    let shape = shape_of(which, opts.tiny);
    let p = shape.p();
    assert_eq!(best_grid(shape.dims, p).grid, shape.grid, "workload grid is not the §5.2 optimum");
    let exp = expect(&shape);
    let mut out = Outcome::default();
    let mut probe = Probe::new();

    let ((inputs, world), mut setups) =
        SetupTimes::first(&mut probe, 0.04, || (make_inputs(&shape, opts.seed), scale_world(p)));
    let prog = program(&shape, &inputs);
    // One execution: timed `run_async`, then the checks (untimed).
    let exec = |out: &mut Outcome, log: Option<(&mut SpanLog, u64)>| -> f64 {
        let (mut res, secs) = match log {
            Some((log, id)) => log.span("alg1.execution", id, None, || world.run_async(&prog)),
            None => timed(|| world.run_async(&prog)),
        };
        if opts.corrupt {
            res.values[0].c_chunk[0] += 1.0;
        }
        out.check(check_run(&shape, &exp, &inputs, &res));
        secs
    };

    let (h1, h2, h3) = shape.block();
    out.notes.push(format!(
        "workload: alg1 P={p} grid={:?} dims={}^3 block={h1}x{h2}x{h3} kernel={} msgs={} \
         words={} per execution",
        shape.grid,
        shape.dims.n1,
        shape.resolved_kernel(),
        exp.msgs,
        exp.words
    ));
    if !opts.trace {
        let mut norm = Vec::new();
        setups.spread_over(opts.seconds);
        let mut times = window(opts.seconds, 3, 100_000, || {
            let (t, t_norm) = probe.normalized(|| exec(&mut out, None));
            norm.push(t_norm);
            setups.tick(&mut probe);
            t
        });
        out.notes.push(spread_ms(&times));
        let n = times.len();
        let t50 = median(&mut times);
        let t50_norm = median(&mut norm);
        let (setup_s, setup_raw) = setups.medians();
        out.end_to_end(setup_s, p as f64 / t50_norm, t50_norm, PROBE_MB);
        out.notes.push(format!(
            "alg1.ranks_per_s={:.1} alg1.gflops={:.3} alg1.host_ns_per_msg={:.1} \
             (raw medians over {n} executions; normalized op_ms_p50={:.3}); \
             setup_s raw={setup_raw:.6} normalized={setup_s:.6}",
            p as f64 / t50,
            shape.flops() / t50 * 1e-9,
            t50 * 1e9 / exp.msgs as f64,
            t50_norm * 1e3
        ));
        return out;
    }

    // Traced run: half the window untraced, half with a span around
    // every execution, then the layer probes.
    let mut log = SpanLog::new(std::time::Instant::now());
    let mut plain = window(opts.seconds / 2.0, 2, 100_000, || exec(&mut out, None));
    let mut id = 0;
    let mut traced = window(opts.seconds / 2.0, 2, 100_000, || {
        id += 1;
        exec(&mut out, Some((&mut log, id)))
    });
    let t_exec = median(&mut traced);
    out.metric("trace.overhead_ratio", t_exec / median(&mut plain) - 1.0);
    probe_layers(&shape, &exp, &inputs, &scale_world, t_exec, &mut log, &mut out);
    out.spans = log.spans;
    out
}

/// Time each layer of one Algorithm 1 execution in isolation, on the
/// workload's shapes and world configuration (`world_of(size)`), and run
/// one execution with the simulator's tracer for the exact counts.
/// `t_exec` is the median execution time the shares refer to.
pub fn probe_layers(
    shape: &Shape,
    exp: &Expect,
    inputs: &Inputs,
    world_of: &dyn Fn(usize) -> World,
    t_exec: f64,
    log: &mut SpanLog,
    out: &mut Outcome,
) {
    let p = shape.p();
    let world = world_of(p);
    let grid = Grid3::from_dims(shape.grid);
    let [p1, p2, p3] = shape.grid;
    let (h1, h2, h3) = shape.block();
    let root = log.open("probes", 0, None);
    let reps = |secs: f64| ((0.3 / secs.max(1e-6)) as usize).clamp(3, 200);

    // simnet: spawning an empty world.
    let (t_spawn, _) = log.span("simnet.spawn", 0, Some(root), || {
        median_secs(3, 50, 0.2, || {
            world.run_async(|_rank| Box::pin(async {}));
        })
    });
    out.metric("simnet.spawn_ns_per_rank", t_spawn * 1e9 / p as f64);

    // simnet: point-to-point traffic with the execution's message count
    // and mean size, with and without the vector-clock audit.
    let per_rank = (exp.msgs / p as u64).max(1) as usize;
    let words = (exp.words / exp.msgs.max(1)).max(1) as usize;
    let exchange = |w: &World, msgs: usize, words: usize| {
        w.run_async(move |rank| {
            Box::pin(async move {
                let comm = rank.world_comm();
                let (me, size) = (comm.index(), comm.size());
                let payload = vec![1.0; words];
                for j in 0..msgs {
                    let off = 1 + j % (size - 1);
                    let m = rank.exchange_a(
                        &comm,
                        (me + off) % size,
                        (me + size - off) % size,
                        &payload,
                    );
                    std::hint::black_box(m.await.payload.len());
                }
            })
        });
    };
    if p > 1 {
        let n = reps(t_exec / 4.0);
        let (t_msg, _) = log.span("simnet.msg", 0, Some(root), || {
            median_secs(3, n, 0.3, || exchange(&world, per_rank, words))
        });
        let quiet = world.clone().with_vclock_audit(false);
        let (t_quiet, _) = log.span("simnet.msg_no_audit", 0, Some(root), || {
            median_secs(3, n, 0.3, || exchange(&quiet, per_rank, words))
        });
        let msgs = (per_rank * p) as f64;
        out.metric("simnet.msg_ns", (t_msg - t_spawn).max(0.0) * 1e9 / msgs);
        out.metric("simnet.verify_ns_per_msg", (t_msg - t_quiet) * 1e9 / msgs);
    }

    // simnet: payload copy rate, 2-rank exchange at the mean message size.
    let pair = world_of(2);
    let rounds = ((4 << 20) / words.max(1)).clamp(1, 64);
    let t_pair0 = median_secs(3, 50, 0.1, || {
        pair.run_async(|_rank| Box::pin(async {}));
    });
    let (t_pair, _) = log.span("simnet.copy", 0, Some(root), || {
        median_secs(3, 50, 0.3, || exchange(&pair, rounds, words))
    });
    let bytes = 2.0 * rounds as f64 * words as f64 * 8.0;
    out.metric("simnet.copy_gbps", bytes / (t_pair - t_pair0).max(1e-9) * 1e-9);

    // collectives: the three fiber splits, then each collective alone.
    let a_counts: Vec<usize> = (0..p3).map(|t| chunk_of_block(h1 * h2, p3, t).len()).collect();
    let b_counts: Vec<usize> = (0..p1).map(|t| chunk_of_block(h2 * h3, p1, t).len()).collect();
    let c_counts: Vec<usize> = (0..p2).map(|t| chunk_of_block(h1 * h3, p2, t).len()).collect();
    let counts = Arc::new([a_counts, b_counts, c_counts]);
    let collective = |stage: Stage| collective_program(grid, (h1, h3), counts.clone(), stage);
    let n = reps(t_exec / 2.0);
    let (t_split, _) = log.span("collectives.split", 0, Some(root), || {
        median_secs(3, n, 0.3, || {
            world.run_async(collective(Stage::Split));
        })
    });
    let (t_ag, _) = log.span("collectives.all_gather", 0, Some(root), || {
        median_secs(3, n, 0.3, || {
            world.run_async(collective(Stage::AllGather));
        })
    });
    let (t_rs, _) = log.span("collectives.reduce_scatter", 0, Some(root), || {
        median_secs(3, n, 0.3, || {
            world.run_async(collective(Stage::ReduceScatter));
        })
    });
    out.metric("collectives.split_ns_per_rank", (t_split - t_spawn).max(0.0) * 1e9 / p as f64);
    out.metric("collectives.all_gather_ns", (t_ag - t_split) * 1e9);
    out.metric("collectives.reduce_scatter_ns", (t_rs - t_split) * 1e9);

    // dense: the local product on the block shape.
    let a_blk = random_int_matrix(h1, h2, -3..4, 7);
    let b_blk = random_int_matrix(h2, h3, -3..4, 8);
    let (t_gemm, _) = log.span("dense.gemm", 0, Some(root), || {
        median_secs(3, 1000, 0.3, || {
            std::hint::black_box(gemm(&a_blk, &b_blk, shape.kernel));
        })
    });
    out.metric("dense.gemm_gflops", 2.0 * (h1 * h2 * h3) as f64 / t_gemm * 1e-9);
    out.metric("dense.gemm_share", p as f64 * t_gemm / t_exec);

    // algs (derived): execution time the isolated layers do not explain
    // (spawn and splits once, both gathers, the reduce-scatter, P products).
    let isolated = t_ag + t_rs - t_split + p as f64 * t_gemm;
    out.metric("algs.self_s", t_exec - isolated);

    // Exact counts from one execution with the simulator's tracer on.
    let traced_world = world.clone().with_trace(true);
    let (res, _) = log.span("simnet.traced_execution", 0, Some(root), || {
        traced_world.run_async(program(shape, inputs))
    });
    let mut problems = check_run(shape, exp, inputs, &res);
    let (msgs, words) = totals(&res);
    out.metric("simnet.msgs", msgs as f64);
    out.metric("simnet.words", words as f64);
    let totals = res.tracer().map(|t| t.phase_totals()).unwrap_or_default();
    for (i, (label, name)) in PHASES.iter().enumerate() {
        let got: u64 =
            totals.iter().filter(|t| t.label == *label).flat_map(|t| t.sent.iter()).sum();
        if got != exp.phase_words[i] {
            problems.push(format!("traced phase '{label}' words {got} != {}", exp.phase_words[i]));
        }
        out.metric(name, got as f64);
    }
    out.check(problems);
    log.close(root);
}

/// How far a collective probe runs: the fiber splits alone, or followed
/// by one of Algorithm 1's collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Split,
    AllGather,
    ReduceScatter,
}

/// A rank program that splits the fiber communicators and then runs the
/// `stage` collective(s) on Algorithm 1's block sizes (`counts` per
/// phase, `(h1, h3)` the C block).
fn collective_program(
    grid: Grid3,
    (h1, h3): (usize, usize),
    counts: Arc<[Vec<usize>; 3]>,
    stage: Stage,
) -> impl for<'a> Fn(&'a mut Rank) -> LocalBoxFuture<'a, usize> + Send + Sync {
    move |rank| {
        let counts = counts.clone();
        Box::pin(async move {
            let comms = fiber_comms_a(rank, grid).await;
            let [a_counts, b_counts, c_counts] = &*counts;
            match stage {
                Stage::Split => 0,
                Stage::AllGather => {
                    let a = vec![1.0; a_counts[comms[2].index()]];
                    let ga = all_gather_v_a(rank, &comms[2], &a, a_counts, AllGatherAlgo::Auto);
                    let n = ga.await.len();
                    let b = vec![1.0; b_counts[comms[0].index()]];
                    let gb = all_gather_v_a(rank, &comms[0], &b, b_counts, AllGatherAlgo::Auto);
                    n + gb.await.len()
                }
                Stage::ReduceScatter => {
                    let d = vec![1.0; h1 * h3];
                    let rs =
                        reduce_scatter_v_a(rank, &comms[1], &d, c_counts, ReduceScatterAlgo::Auto);
                    rs.await.len()
                }
            }
        })
    }
}

/// Algorithm 1's communicating phases: tracer label → metric name.
pub const PHASES: [(&str, &str); 3] = [
    ("all-gather A", "algs.phase_words.all_gather_a"),
    ("all-gather B", "algs.phase_words.all_gather_b"),
    ("reduce-scatter C", "algs.phase_words.reduce_scatter_c"),
];
