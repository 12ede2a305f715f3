//! Serial-reference oracles and cost-meter checks for the collectives
//! that the matmul algorithms do **not** exercise: `scan`/`exscan`,
//! `all_to_all`, `bcast` and `all_reduce`.
//!
//! Each test compares a simulated run against an oracle computed
//! serially from the full input set, then holds the per-rank meters
//! against the closed forms in `pmm_collectives::costs`. Runs use
//! `World::with_seed`, so the collectives are also exercised under the
//! deterministic scheduler (and any failure names a replayable seed).

use pmm_collectives::{
    all_reduce_a, all_to_all_a, bcast_a, costs, exscan_a, scan_a, AllReduceAlgo, AllToAllAlgo,
    BcastAlgo,
};
use pmm_simnet::{MachineParams, Meter, World};

const SEED: u64 = 0x5EED;

/// Integer-valued contribution of `rank`, `w` words — exact in f64.
fn contribution(rank: usize, w: usize) -> Vec<f64> {
    (0..w).map(|e| ((rank * 31 + e * 7) % 100) as f64 - 17.0).collect()
}

fn run_collective<T, F>(p: usize, program: F) -> (Vec<T>, Vec<Meter>)
where
    F: AsyncFn(&mut pmm_simnet::Rank) -> T,
{
    let out = World::new(p, MachineParams::BANDWIDTH_ONLY)
        .with_seed(SEED)
        .run(async |rank| (program(rank).await, rank.meter()));
    out.values.into_iter().unzip()
}

#[test]
fn scan_matches_serial_prefix_sums_and_the_cost_model() {
    for p in [2usize, 3, 5, 8, 16] {
        let w = 4;
        let (values, meters) = run_collective(p, async move |rank| {
            let comm = rank.world_comm();
            scan_a(rank, &comm, &contribution(rank.world_rank(), w)).await
        });
        let model = costs::scan_cost(p, w);
        let rounds = model.messages as u32;
        for (r, v) in values.iter().enumerate() {
            // Serial oracle: element-wise sum of contributions 0..=r.
            let want: Vec<f64> =
                (0..w).map(|e| (0..=r).map(|q| contribution(q, w)[e]).sum()).collect();
            assert_eq!(v, &want, "scan p={p} rank {r}");
            // Exact per-rank traffic: rank r sends in rounds where
            // r + 2^s < p and receives where r ≥ 2^s.
            let sent = (0..rounds).filter(|s| r + (1usize << s) < p).count();
            let recv = (0..rounds).filter(|s| r >= (1usize << s)).count();
            assert_eq!(meters[r].words_sent as usize, sent * w, "scan p={p} rank {r} sent");
            assert_eq!(meters[r].words_recv as usize, recv * w, "scan p={p} rank {r} recv");
        }
        // The closed form is the per-rank maximum, attained by rank p−1.
        let max_duplex = meters.iter().map(Meter::duplex_words).max().unwrap_or(0);
        assert_eq!(max_duplex as f64, model.words, "scan p={p} duplex vs model");
        let max_flops = meters.iter().map(|m| m.flops).fold(0.0, f64::max);
        assert_eq!(max_flops, model.flops, "scan p={p} flops vs model");
    }
}

#[test]
fn exscan_shifts_the_scan_by_one_rank_at_the_same_cost() {
    let (p, w) = (7usize, 3usize);
    let (values, meters) = run_collective(p, async move |rank| {
        let comm = rank.world_comm();
        exscan_a(rank, &comm, &contribution(rank.world_rank(), w)).await
    });
    for (r, v) in values.iter().enumerate() {
        let want: Vec<f64> = (0..w).map(|e| (0..r).map(|q| contribution(q, w)[e]).sum()).collect();
        assert_eq!(v, &want, "exscan rank {r}");
    }
    let model = costs::exscan_cost(p, w);
    let max_duplex = meters.iter().map(Meter::duplex_words).max().unwrap_or(0);
    assert_eq!(max_duplex as f64, model.words, "exscan duplex vs model");
}

#[test]
fn alltoall_transposes_blocks_and_every_rank_meets_the_cost_model() {
    for p in [2usize, 4, 6, 8] {
        let w = 3;
        let (values, meters) = run_collective(p, async move |rank| {
            let me = rank.world_rank();
            // Block destined for rank j carries (me, j)-tagged values.
            let data: Vec<f64> =
                (0..p * w).map(|i| (me * 1000 + (i / w) * 10 + i % w) as f64).collect();
            let comm = rank.world_comm();
            all_to_all_a(rank, &comm, &data, AllToAllAlgo::Pairwise).await
        });
        let model = costs::all_to_all_cost(AllToAllAlgo::Pairwise, p, w);
        for (r, v) in values.iter().enumerate() {
            // Oracle: slot j of rank r's output is rank j's block for r.
            let want: Vec<f64> =
                (0..p * w).map(|i| ((i / w) * 1000 + r * 10 + i % w) as f64).collect();
            assert_eq!(v, &want, "alltoall p={p} rank {r}");
            // Pairwise exchange is perfectly symmetric: every rank sends
            // and receives exactly (p−1)·w words.
            assert_eq!(meters[r].words_sent as f64, model.words, "p={p} rank {r} sent");
            assert_eq!(meters[r].words_recv as f64, model.words, "p={p} rank {r} recv");
            assert_eq!(meters[r].msgs_sent as f64, model.messages, "p={p} rank {r} msgs");
        }
    }
}

#[test]
fn bcast_delivers_root_data_from_any_root_and_meets_the_cost_model() {
    for p in [2usize, 3, 5, 8] {
        for root in [0, p / 2, p - 1] {
            let w = p * 2; // p | w, so both algorithms are legal.
            for algo in [BcastAlgo::Binomial, BcastAlgo::ScatterAllGather] {
                let (values, meters) = run_collective(p, async move |rank| {
                    let comm = rank.world_comm();
                    bcast_a(rank, &comm, &contribution(root, w), root, algo).await
                });
                let want = contribution(root, w);
                for (r, v) in values.iter().enumerate() {
                    assert_eq!(v, &want, "bcast {algo:?} p={p} root={root} rank {r}");
                }
                // The model reports the critical-path rank: the root for
                // the binomial tree (⌈log2 p⌉ sends of w), any rank for
                // scatter–all-gather (duplex (p−1)/p·2w).
                let model = costs::bcast_cost(algo, p, w);
                let max_duplex = meters.iter().map(Meter::duplex_words).max().unwrap_or(0);
                assert_eq!(
                    max_duplex as f64, model.words,
                    "bcast {algo:?} p={p} root={root} duplex vs model"
                );
            }
        }
    }
}

#[test]
fn allreduce_all_algorithms_match_the_serial_sum() {
    // Power-of-two p with p | w: all three selectable algorithms.
    for p in [2usize, 4, 8] {
        let w = p * 3;
        for algo in [
            AllReduceAlgo::ReduceScatterAllGather,
            AllReduceAlgo::RecursiveDoubling,
            AllReduceAlgo::Auto,
        ] {
            let (values, meters) = run_collective(p, async move |rank| {
                let comm = rank.world_comm();
                all_reduce_a(rank, &comm, &contribution(rank.world_rank(), w), algo).await
            });
            let want: Vec<f64> =
                (0..w).map(|e| (0..p).map(|q| contribution(q, w)[e]).sum()).collect();
            for (r, v) in values.iter().enumerate() {
                assert_eq!(v, &want, "allreduce {algo:?} p={p} rank {r}");
            }
            // Both power-of-two algorithms are rank-symmetric: every
            // rank's duplex volume equals the model exactly.
            let model = costs::all_reduce_cost(algo, p, w);
            for (r, m) in meters.iter().enumerate() {
                assert_eq!(
                    m.duplex_words() as f64,
                    model.words,
                    "allreduce {algo:?} p={p} rank {r} duplex vs model"
                );
            }
        }
    }
    // Non-power-of-two p exercises the v-collective fallback; the uniform
    // cost model is an approximation there, so only semantics + global
    // conservation are exact.
    for p in [3usize, 6] {
        let w = 5;
        let (values, meters) = run_collective(p, async move |rank| {
            let comm = rank.world_comm();
            all_reduce_a(rank, &comm, &contribution(rank.world_rank(), w), AllReduceAlgo::Auto)
                .await
        });
        let want: Vec<f64> = (0..w).map(|e| (0..p).map(|q| contribution(q, w)[e]).sum()).collect();
        for (r, v) in values.iter().enumerate() {
            assert_eq!(v, &want, "allreduce auto p={p} rank {r}");
        }
        let sent: u64 = meters.iter().map(|m| m.words_sent).sum();
        let recv: u64 = meters.iter().map(|m| m.words_recv).sum();
        assert_eq!(sent, recv, "allreduce auto p={p} conservation");
    }
}

#[test]
fn collectives_on_split_subcommunicators_use_local_sizes() {
    // Two color groups of different sizes (4 and 2): each runs its own
    // scan + bcast; oracles and meters are per-subcommunicator.
    let p = 6usize;
    let w = 2usize;
    let (values, meters) = run_collective(p, async move |rank| {
        let world = rank.world_comm();
        let me = rank.world_rank();
        let color = usize::from(me >= 4);
        let sub = rank.split_a(&world, color as i64, me as i64).await.expect("member of a color");
        let s = scan_a(rank, &sub, &contribution(me, w)).await;
        let b = bcast_a(rank, &sub, &contribution(100 + color, w), 0, BcastAlgo::Binomial).await;
        (s, b)
    });
    for (r, (s, b)) in values.iter().enumerate() {
        let lo = if r < 4 { 0 } else { 4 };
        let want_scan: Vec<f64> =
            (0..w).map(|e| (lo..=r).map(|q| contribution(q, w)[e]).sum()).collect();
        assert_eq!(s, &want_scan, "sub-scan rank {r}");
        let color = usize::from(r >= 4);
        assert_eq!(b, &contribution(100 + color, w), "sub-bcast rank {r}");
    }
    // Meters reflect the subgroup size, not the world size: the largest
    // duplex in the 2-rank group is the 2-rank model, not the 6-rank one.
    let small_model = costs::scan_cost(2, w) + costs::bcast_cost(BcastAlgo::Binomial, 2, w);
    let small_max = meters[4..].iter().map(Meter::duplex_words).max().unwrap_or(0);
    assert_eq!(small_max as f64, small_model.words);
}
