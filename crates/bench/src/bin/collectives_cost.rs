//! **E10 — collective cost optimality** (§3.1 / §5.1): the All-Gather and
//! Reduce-Scatter implementations used by Algorithm 1 move exactly
//! `(1 − 1/p)·w` words per processor (Thakur et al. 2005; Chan et al.
//! 2007) — the property §5.1's cost analysis, and hence the tightness
//! claim, relies on.
//!
//! Sweeps `p` and `w`, measures every algorithm variant, and compares to
//! the closed forms. Also shows the latency ablation (ring vs recursive
//! doubling: same bandwidth, `p−1` vs `log2 p` messages).
//!
//! ```sh
//! cargo run --release -p pmm-bench --bin collectives_cost
//! ```

use pmm_bench::{fnum, print_table, Checks};
use pmm_collectives::{
    all_gather_a, all_reduce_a, all_to_all_a, bcast_a, costs, reduce_scatter_a, AllGatherAlgo,
    AllReduceAlgo, AllToAllAlgo, BcastAlgo, ReduceScatterAlgo,
};
use pmm_simnet::{MachineParams, World};

fn main() {
    let mut checks = Checks::new();

    println!("collective bandwidth per processor (measured on the simulator)");
    println!("vs the (1 − 1/p)·W optimum, W = total data\n");

    let mut rows = Vec::new();
    for p in [2usize, 3, 4, 7, 8, 16, 32] {
        let w = 120usize; // per-rank block; W = p·w for AG/RS

        // All-Gather (both algorithms where applicable).
        for (name, algo) in [
            ("all-gather/ring", AllGatherAlgo::Ring),
            ("all-gather/recdoubling", AllGatherAlgo::RecursiveDoubling),
        ] {
            if matches!(algo, AllGatherAlgo::RecursiveDoubling) && !p.is_power_of_two() {
                continue;
            }
            let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
                let comm = rank.world_comm();
                all_gather_a(rank, &comm, &vec![1.0; w], algo).await;
                rank.time()
            });
            let measured = out.critical_path_time();
            let optimal = (1.0 - 1.0 / p as f64) * (p * w) as f64;
            let model = costs::all_gather_cost(algo, p, w);
            checks.check(format!("{name} p={p}: measured == model"), measured == model.words);
            checks.check(
                format!("{name} p={p}: bandwidth-optimal"),
                (measured - optimal).abs() < 1e-9,
            );
            rows.push(vec![name.into(), p.to_string(), fnum(measured), fnum(optimal)]);
        }

        // Reduce-Scatter.
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
            let comm = rank.world_comm();
            reduce_scatter_a(rank, &comm, &vec![1.0; p * w], ReduceScatterAlgo::Auto).await;
            rank.time()
        });
        let measured = out.critical_path_time();
        let optimal = (1.0 - 1.0 / p as f64) * (p * w) as f64;
        checks.check(
            format!("reduce-scatter p={p}: bandwidth-optimal"),
            (measured - optimal).abs() < 1e-9,
        );
        rows.push(vec!["reduce-scatter/auto".into(), p.to_string(), fnum(measured), fnum(optimal)]);

        // All-Reduce (Rabenseifner): optimal 2(1 − 1/p)·w.
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
            let comm = rank.world_comm();
            all_reduce_a(rank, &comm, &vec![1.0; p * w], AllReduceAlgo::ReduceScatterAllGather)
                .await;
            rank.time()
        });
        let measured = out.critical_path_time();
        let optimal = 2.0 * (1.0 - 1.0 / p as f64) * (p * w) as f64;
        checks.check(format!("all-reduce p={p}: 2(1-1/p)w"), (measured - optimal).abs() < 1e-9);
        rows.push(vec!["all-reduce/rsag".into(), p.to_string(), fnum(measured), fnum(optimal)]);

        // All-to-All (pairwise): (p−1)·w.
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
            let comm = rank.world_comm();
            all_to_all_a(rank, &comm, &vec![1.0; p * w], AllToAllAlgo::Pairwise).await;
            rank.time()
        });
        let measured = out.critical_path_time();
        let optimal = ((p - 1) * w) as f64;
        checks.check(format!("all-to-all p={p}: (p-1)w"), (measured - optimal).abs() < 1e-9);
        rows.push(vec!["all-to-all/pairwise".into(), p.to_string(), fnum(measured), fnum(optimal)]);
    }
    print_table(&["collective", "p", "measured words", "optimal"], &rows);

    // ---- latency ablation ---------------------------------------------------
    println!("\nlatency ablation (α = 1, β = γ = 0): messages on the critical path");
    let params = MachineParams::new(1.0, 0.0, 0.0);
    let mut rows = Vec::new();
    for p in [4usize, 8, 16, 32] {
        let ring = World::new(p, params)
            .run(async move |rank| {
                let comm = rank.world_comm();
                all_gather_a(rank, &comm, &[1.0; 4], AllGatherAlgo::Ring).await;
                rank.time()
            })
            .critical_path_time();
        let rd = World::new(p, params)
            .run(async move |rank| {
                let comm = rank.world_comm();
                all_gather_a(rank, &comm, &[1.0; 4], AllGatherAlgo::RecursiveDoubling).await;
                rank.time()
            })
            .critical_path_time();
        checks.check(format!("latency p={p}: ring == p-1"), ring == (p - 1) as f64);
        checks.check(format!("latency p={p}: recdoubling == log2 p"), rd == (p.ilog2()) as f64);
        rows.push(vec![p.to_string(), fnum(ring), fnum(rd)]);
    }
    print_table(&["p", "ring (p-1 msgs)", "recursive doubling (log2 p)"], &rows);

    // ---- bcast variants -----------------------------------------------------
    println!("\nbroadcast bandwidth: binomial log2(p)·w vs scatter-allgather 2(1-1/p)·w");
    let mut rows = Vec::new();
    for p in [4usize, 8, 16] {
        let w = 160usize;
        let run = |algo: BcastAlgo| {
            World::new(p, MachineParams::BANDWIDTH_ONLY)
                .run(async move |rank| {
                    let comm = rank.world_comm();
                    bcast_a(rank, &comm, &vec![1.0; w], 0, algo).await;
                })
                .critical_path_time()
        };
        let bin = run(BcastAlgo::Binomial);
        let sag = run(BcastAlgo::ScatterAllGather);
        checks.check(format!("bcast p={p}: SAG beats binomial at large w"), sag < bin);
        checks.check(
            format!("bcast p={p}: SAG == 2(1-1/p)w"),
            (sag - 2.0 * (1.0 - 1.0 / p as f64) * w as f64).abs() < 1e-9,
        );
        rows.push(vec![p.to_string(), fnum(bin), fnum(sag)]);
    }
    print_table(&["p", "binomial", "scatter-allgather"], &rows);

    checks.finish();
}
