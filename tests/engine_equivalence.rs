//! Golden-digest suite: the event loop against recorded thread-engine
//! behaviour.
//!
//! The workspace once had two execution engines, and this suite ran
//! every workload on both and compared them. Before the thread engine
//! was retired, each workload below was run on it and every observable
//! artifact was hashed: per-rank values, meters, simulated clocks
//! (`time.to_bits()`), memory peaks, final vector clocks, and the
//! rendered `ScheduleTrace`. The digests live in
//! `tests/golden/engine_digests.txt`; the event loop must reproduce them
//! bit for bit. The workloads are
//!
//! * the pinned `(program, seed)` workloads of `tests/determinism.rs`
//!   (Algorithm 1 P = 12, Cannon P = 9, SUMMA P = 6, 2.5D P = 8);
//! * all six algorithms across the three Theorem 3 regimes of the
//!   `tests/conformance.rs` sweep instance `(96, 24, 12)` — 1D interior
//!   (P = 2), 2D interior (P = 8), 3D interior (P = 64);
//! * armed fault plans: message faults, checkpointed recovery under a
//!   multi-fault plan, and the `tests/chaos.rs` certification cell;
//! * worlds with no schedule at all (which record no trace).
//!
//! The hash is FNV-1a over canonical little-endian bytes, so digests do
//! not depend on the Rust release. On a mismatch a test prints the line
//! it computed next to the recorded one.

use pmm::prelude::*;

const GOLDEN: &str = include_str!("golden/engine_digests.txt");

/// Canonical byte encoding of an observable.
#[derive(Default)]
struct Canon(Vec<u8>);

impl Canon {
    fn u64(&mut self, v: u64) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }

    fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.u64(b.len() as u64);
        self.0.extend_from_slice(b);
        self
    }

    fn f64s(&mut self, v: &[f64]) -> &mut Self {
        self.u64(v.len() as u64);
        v.iter().for_each(|&x| {
            self.f64(x);
        });
        self
    }

    fn u64s(&mut self, v: &[u64]) -> &mut Self {
        self.u64(v.len() as u64);
        v.iter().for_each(|&x| {
            self.u64(x);
        });
        self
    }

    fn meter(&mut self, m: &Meter) -> &mut Self {
        self.u64(m.words_sent).u64(m.words_recv).u64(m.msgs_sent).u64(m.msgs_recv);
        self.f64(m.flops);
        self.u64(m.retry_words_sent).u64(m.retry_msgs_sent);
        self.u64(m.retry_words_recv).u64(m.retry_msgs_recv)
    }

    fn alg1(&mut self, out: &Alg1Output) -> &mut Self {
        self.f64s(&out.c_chunk);
        for ph in &out.phases {
            self.bytes(ph.label.as_bytes()).meter(&ph.meter);
        }
        self
    }

    fn matrix(&mut self, m: Option<&Matrix>) -> &mut Self {
        match m {
            None => self.u64(0),
            Some(m) => self.u64(1).u64(m.rows() as u64).u64(m.cols() as u64).f64s(m.as_slice()),
        }
    }

    fn recovered(&mut self, r: &Result<Recovered, RankFailed>) -> &mut Self {
        let ok = match r {
            Err(e) => return self.u64(0).u64(e.rank as u64).bytes(e.detail.as_bytes()),
            Ok(ok) => ok,
        };
        self.u64(1);
        match &ok.share {
            CShare::Chunk(out) => self.u64(0).alg1(out),
            CShare::Block(m) => self.u64(1).matrix(m.as_ref()),
            CShare::Flat(v) => match v {
                None => self.u64(2).u64(0),
                Some(v) => self.u64(2).u64(1).f64s(v),
            },
        };
        self.bytes(ok.plan.to_string().as_bytes());
        let survivors: Vec<u64> = ok.survivors.iter().map(|&w| w as u64).collect();
        self.u64s(&survivors);
        for plan in &ok.attempt_plans {
            self.bytes(plan.to_string().as_bytes());
        }
        let counts: Vec<u64> = ok.attempt_survivors.iter().map(|&n| n as u64).collect();
        self.u64s(&counts).meter(&ok.restore_meter).meter(&ok.run_meter)
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The digest line of one run: one hash per observable, so a mismatch
/// names the observable that moved.
fn digest_line(label: &str, out: &WorldResult<Canon>) -> String {
    let mut values = Canon::default();
    let (mut meters, mut clocks, mut mem, mut vclocks) =
        (Canon::default(), Canon::default(), Canon::default(), Canon::default());
    for (v, r) in out.values.iter().zip(&out.reports) {
        values.bytes(&v.0);
        meters.meter(&r.meter);
        clocks.f64(r.time);
        mem.u64(r.peak_mem_words);
        vclocks.u64s(&r.final_vclock);
    }
    let trace = out.schedule_trace.as_ref().map_or_else(|| "<none>".to_string(), |t| t.render());
    format!(
        "{label} ranks={} values={:016x} meters={:016x} clocks={:016x} mem={:016x} \
         vclocks={:016x} trace={:016x}",
        out.values.len(),
        fnv1a(&values.0),
        fnv1a(&meters.0),
        fnv1a(&clocks.0),
        fnv1a(&mem.0),
        fnv1a(&vclocks.0),
        fnv1a(trace.as_bytes()),
    )
}

/// Run `program` on `world` and check its digest line against the
/// recorded one. Returns the run for further checks.
fn check_digest<F>(label: &str, world: &World, program: F) -> WorldResult<Canon>
where
    F: AsyncFn(&mut Rank) -> Canon,
{
    assert!(!label.contains(' '), "labels are single tokens: {label:?}");
    let out = world.run(program);
    let line = digest_line(label, &out);
    let recorded = GOLDEN.lines().find(|l| l.split(' ').next() == Some(label));
    assert_eq!(
        recorded,
        Some(line.as_str()),
        "{label}: observables differ from the recorded thread-engine digest\ncomputed: {line}"
    );
    out
}

fn inputs(dims: MatMulDims) -> (Matrix, Matrix) {
    (
        random_int_matrix(dims.n1 as usize, dims.n2 as usize, -3..4, 101),
        random_int_matrix(dims.n2 as usize, dims.n3 as usize, -3..4, 202),
    )
}

fn alg1_cell(label: &str, world: &World, cfg: Alg1Config) -> WorldResult<Canon> {
    let dims = cfg.dims;
    check_digest(label, world, async |rank| {
        let (a, b) = inputs(dims);
        let mut c = Canon::default();
        c.alg1(&alg1_a(rank, &cfg, &a, &b).await);
        c
    })
}

fn pinned_alg1() -> Alg1Config {
    Alg1Config {
        dims: MatMulDims::new(24, 12, 18),
        grid: Grid3::new(2, 3, 2),
        kernel: Kernel::Naive,
        assembly: Assembly::ReduceScatter,
    }
}

fn cannon_cell(label: &str, world: &World, cfg: CannonConfig) {
    check_digest(label, world, async |rank| {
        let (a, b) = inputs(cfg.dims);
        let mut c = Canon::default();
        c.matrix(Some(&cannon_a(rank, &cfg, &a, &b).await.c_block));
        c
    });
}

fn summa_cell(label: &str, world: &World, cfg: SummaConfig) {
    check_digest(label, world, async |rank| {
        let (a, b) = inputs(cfg.dims);
        let mut c = Canon::default();
        c.matrix(Some(&summa_a(rank, &cfg, &a, &b).await.c_block));
        c
    });
}

fn twofived_cell(label: &str, world: &World, cfg: TwoFiveDConfig) {
    check_digest(label, world, async |rank| {
        let (a, b) = inputs(cfg.dims);
        let mut c = Canon::default();
        c.matrix(twofived_a(rank, &cfg, &a, &b).await.c_block.as_ref());
        c
    });
}

/// The Algorithm 1 workload: P = 12 on a 2 × 3 × 2 grid, seeded and
/// without a schedule.
#[test]
fn engines_agree_on_the_pinned_alg1_workload() {
    let world = World::new(12, MachineParams::BANDWIDTH_ONLY);
    for seed in [0xA11CE_u64, 0xC1EA4, 0, 5] {
        let seeded = world.clone().with_seed(seed);
        let out = alg1_cell(&format!("alg1/p12/seed{seed:#x}"), &seeded, pinned_alg1());
        assert!(out.schedule_trace.expect("seeded run records a trace").events.len() > 12);
    }
    // No schedule: nothing is recorded, and the observables are those
    // of the free-running thread engine.
    let out = alg1_cell("alg1/p12/unseeded", &world, pinned_alg1());
    assert!(out.schedule_trace.is_none() && out.choice_points.is_none());
}

#[test]
fn engines_agree_on_the_pinned_cannon_summa_and_twofived_workloads() {
    let dims = MatMulDims::new(24, 12, 18);
    let bw = MachineParams::BANDWIDTH_ONLY;
    let ccfg = CannonConfig { dims, q: 3, kernel: Kernel::Naive };
    cannon_cell("cannon/p9/seed0xa11ce", &World::new(9, bw).with_seed(0xA11CE), ccfg.clone());
    cannon_cell("cannon/p9/unseeded", &World::new(9, bw), ccfg);
    let scfg = SummaConfig { dims, pr: 2, pc: 3, kernel: Kernel::Naive };
    summa_cell("summa/p6/seed0xa11ce", &World::new(6, bw).with_seed(0xA11CE), scfg);
    let tcfg = TwoFiveDConfig { dims, q: 2, c: 2, kernel: Kernel::Naive };
    twofived_cell("2.5d/p8/seed0xa11ce", &World::new(8, bw).with_seed(0xA11CE), tcfg);
}

/// The remaining seeds `tests/determinism.rs` pins: Algorithm 1 at
/// seeds 1–4 (with 0 and 5 above, the `different_seeds` and fuzz-smoke
/// range) and the zero-fault-plan twin of the 0xC1EA4 run; Cannon, SUMMA
/// and 2.5D at the fuzz seeds 1–3.
#[test]
fn event_loop_reproduces_the_determinism_suite_digests() {
    let world = World::new(12, MachineParams::BANDWIDTH_ONLY);
    for seed in [1u64, 2, 3, 4] {
        let seeded = world.clone().with_seed(seed);
        alg1_cell(&format!("alg1/p12/seed{seed:#x}"), &seeded, pinned_alg1());
    }
    let armed = world.with_seed(0xC1EA4).with_faults(FaultPlan::none());
    alg1_cell("alg1/p12/seed0xc1ea4/zero-fault-plan", &armed, pinned_alg1());
    let dims = MatMulDims::new(24, 12, 18);
    let bw = MachineParams::BANDWIDTH_ONLY;
    for seed in [1u64, 2, 3] {
        let ccfg = CannonConfig { dims, q: 3, kernel: Kernel::Naive };
        cannon_cell(&format!("cannon/p9/seed{seed:#x}"), &World::new(9, bw).with_seed(seed), ccfg);
        let scfg = SummaConfig { dims, pr: 2, pc: 3, kernel: Kernel::Naive };
        summa_cell(&format!("summa/p6/seed{seed:#x}"), &World::new(6, bw).with_seed(seed), scfg);
        let tcfg = TwoFiveDConfig { dims, q: 2, c: 2, kernel: Kernel::Naive };
        twofived_cell(&format!("2.5d/p8/seed{seed:#x}"), &World::new(8, bw).with_seed(seed), tcfg);
    }
}

/// One Theorem 3 regime point of the conformance instance
/// `(96, 24, 12)`: every algorithm that admits the processor count.
fn regime_point(p: usize, label: &str) {
    let dims = MatMulDims::new(96, 24, 12);
    let world = World::new(p, MachineParams::BANDWIDTH_ONLY).with_seed(0xA11CE);
    let choice = best_divisible_grid(dims, p)
        .unwrap_or_else(|| panic!("{label}: no divisible factorization of {p}"));
    let grid = Grid3::from_dims(choice.grid);

    for assembly in [Assembly::ReduceScatter, Assembly::AllToAllSum] {
        let cfg = Alg1Config { dims, grid, kernel: Kernel::Naive, assembly };
        alg1_cell(&format!("{label}/alg1/{assembly:?}"), &world, cfg);
    }
    check_digest(&format!("{label}/alg1-streamed"), &world, async |rank| {
        let (a, b) = inputs(dims);
        let mut c = Canon::default();
        c.alg1(&alg1_streamed_a(rank, dims, grid, 2, Kernel::Naive, &a, &b).await);
        c
    });
    let q = (p as f64).sqrt() as usize;
    if q * q == p {
        cannon_cell(
            &format!("{label}/cannon"),
            &world,
            CannonConfig { dims, q, kernel: Kernel::Naive },
        );
    }
    let (pr, pc) = near_square_factors(p);
    summa_cell(
        &format!("{label}/summa"),
        &world,
        SummaConfig { dims, pr, pc, kernel: Kernel::Naive },
    );
    if let Some((q, c)) = [(2usize, 2usize), (4, 1), (4, 4), (2, 1), (8, 1)]
        .into_iter()
        .find(|&(q, c)| q * q * c == p)
    {
        let tcfg = TwoFiveDConfig { dims, q, c, kernel: Kernel::Naive };
        twofived_cell(&format!("{label}/2.5d"), &world, tcfg);
    }
    if p.is_power_of_two() {
        check_digest(&format!("{label}/carma"), &world, async |rank| {
            let (a, b) = inputs(dims);
            let (sa, sb) = carma_shares(p, rank.world_rank(), &a, &b);
            let comm = rank.world_comm();
            let mut c = Canon::default();
            c.f64s(&carma_a(rank, &comm, dims, Kernel::Naive, sa, sb).await);
            c
        });
    }
}

#[test]
fn engines_agree_across_the_1d_regime() {
    // P = 2 < m/n = 4: strictly inside the 1D case.
    regime_point(2, "1d/p2");
}

#[test]
fn engines_agree_across_the_2d_regime() {
    // m/n = 4 < P = 8 < mn/k² = 16: strictly inside the 2D case.
    regime_point(8, "2d/p8");
}

#[test]
fn engines_agree_across_the_3d_regime() {
    // P = 64 > mn/k² = 16: strictly inside the 3D case.
    regime_point(64, "3d/p64");
    // The same grid with no schedule (a scale-style world).
    let dims = MatMulDims::new(96, 24, 12);
    let choice = best_divisible_grid(dims, 64).expect("64 factors");
    let cfg = Alg1Config {
        dims,
        grid: Grid3::from_dims(choice.grid),
        kernel: Kernel::Naive,
        assembly: Assembly::ReduceScatter,
    };
    alg1_cell("3d/p64/alg1/unseeded", &World::new(64, MachineParams::BANDWIDTH_ONLY), cfg);
}

#[test]
fn engines_agree_with_a_fault_plan_armed() {
    // Message faults are pure hashes of (fault seed, channel, seq,
    // attempt), so an armed plan leaves every observable pinned,
    // including the retry (waste) counters.
    let plan = FaultPlan::none()
        .with_seed(0x5EED_FA17)
        .with_drop(0.10)
        .with_duplicate(0.05)
        .with_delay(0.05);
    let world = World::new(12, MachineParams::BANDWIDTH_ONLY).with_seed(0xA11CE).with_faults(plan);
    let out = alg1_cell("alg1/p12/faults", &world, pinned_alg1());
    let retries: u64 = out.reports.iter().map(|r| r.meter.retry_overhead_words()).sum();
    assert!(retries > 0, "a 10% drop rate must force at least one retransmission");
}

fn recovery_cell(
    label: &str,
    world: &World,
    spec: Recoverable,
    dims: MatMulDims,
    seeds: (u64, u64),
) -> WorldResult<Canon> {
    let (a, b) = (
        random_int_matrix(dims.n1 as usize, dims.n2 as usize, -3..4, seeds.0),
        random_int_matrix(dims.n2 as usize, dims.n3 as usize, -3..4, seeds.1),
    );
    check_digest(label, world, async |rank| {
        let mut c = Canon::default();
        c.recovered(&run_recoverable_a(rank, &spec, dims, &a, &b).await);
        c
    })
}

#[test]
fn engines_agree_on_checkpointed_recovery_under_a_multi_fault_plan() {
    // Checkpoint ring, a direct kill, a cascading kill armed on the
    // first death, a healing partition, a straggler storm, and
    // background message faults.
    let dims = MatMulDims::new(24, 24, 24);
    let plan = FaultPlan::none()
        .with_seed(0xFA17)
        .with_drop(0.06)
        .with_duplicate(0.02)
        .with_kill(4, 6)
        .with_cascade(7, 1)
        .with_partition(vec![0, 1], 5..20, 2)
        .with_storm(0.3, 2.0);
    let world = World::new(9, MachineParams::BANDWIDTH_ONLY).with_seed(0xA11CE).with_faults(plan);
    let spec = Recoverable::Alg1 { kernel: Kernel::Naive, assembly: Assembly::ReduceScatter };
    recovery_cell("recovery/p9/multi-fault", &world, spec, dims, (101, 202));
}

#[test]
fn event_loop_reproduces_the_chaos_cert_digests() {
    // The tests/chaos.rs certification cell: all six algorithms, P = 10,
    // schedule seed 0xC0DE, the tier-1 multi-fault plan.
    let dims = MatMulDims::new(24, 24, 24);
    let plan = FaultPlan::none()
        .with_seed(0xC4A0_5CE7)
        .with_drop(0.05)
        .with_duplicate(0.02)
        .with_kill(2, 3)
        .with_cascade(7, 1)
        .with_partition(vec![0, 1], 2..30, 2)
        .with_storm(0.25, 2.0);
    let world = World::new(10, MachineParams::BANDWIDTH_ONLY).with_seed(0xC0DE).with_faults(plan);
    let specs = [
        ("alg1", Recoverable::Alg1 { kernel: Kernel::Naive, assembly: Assembly::ReduceScatter }),
        ("alg1_streamed", Recoverable::Alg1Streamed { kernel: Kernel::Naive, slabs: 2 }),
        ("summa", Recoverable::Summa { kernel: Kernel::Naive }),
        ("cannon", Recoverable::Cannon { kernel: Kernel::Naive }),
        ("twofived", Recoverable::TwoFiveD { kernel: Kernel::Naive }),
        ("carma", Recoverable::Carma { kernel: Kernel::Naive }),
    ];
    for (alg, spec) in specs {
        recovery_cell(&format!("chaos-cert/p10/{alg}"), &world, spec, dims, (31, 32));
    }
}

#[test]
fn engines_agree_under_random_seeds_and_faults() {
    // A messaging-heavy 4-rank exchange ring under 16 pinned draws of
    // (schedule seed, fault seed, drop, duplicate, delay, rounds).
    let mut state = 0x00DD_BA11_u64;
    let mut next = move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        state >> 11
    };
    for case in 0..16 {
        let seed = next() % 1_000_000;
        let fault_seed = next() % 1_000_000;
        let unit = |x: u64| (x % 1000) as f64 / 1000.0;
        let (drop, dup, delay) = (0.30 * unit(next()), 0.15 * unit(next()), 0.15 * unit(next()));
        let rounds = 1 + (next() % 5) as usize;
        let mut plan = FaultPlan::none()
            .with_seed(fault_seed)
            .with_drop(drop)
            .with_duplicate(dup)
            .with_delay(delay);
        plan.max_retries = 64;
        let world = World::new(4, MachineParams::BANDWIDTH_ONLY).with_seed(seed).with_faults(plan);
        check_digest(&format!("ring/case{case}"), &world, async |rank| {
            let comm = rank.world_comm();
            let me = rank.world_rank();
            let n = comm.size();
            let mut acc = vec![me as f64];
            for round in 0..rounds {
                let (to, from) = ((me + 1) % n, (me + n - 1) % n);
                let msg = rank.exchange_a(&comm, to, from, &[acc[round] + 1.0]).await;
                acc.push(msg.payload[0]);
            }
            let mut c = Canon::default();
            c.f64s(&acc);
            c
        });
    }
}
