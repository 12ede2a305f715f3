//! Broadcast: the root's buffer is replicated to every rank.

use std::future::Future;
use std::panic::Location;

use pmm_simnet::{CollectiveOp, Comm, Rank};

use crate::allgather::{all_gather_v_a, AllGatherAlgo};
use crate::gather_scatter::{scatter_v_a, ScatterAlgo};

/// Algorithm selector for [`bcast_a`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BcastAlgo {
    /// Binomial tree: `⌈log2 p⌉` rounds, good for small messages.
    Binomial,
    /// Scatter followed by ring All-Gather (van de Geijn): near-optimal
    /// bandwidth `2(1 − 1/p)·w` for large messages. Requires `p | w`.
    ScatterAllGather,
    /// Binomial (latency-optimal default).
    Auto,
}

/// Broadcast `data` from member `root`.
///
/// On the root, `data` must hold the message; on other ranks `data` is
/// ignored (pass `&[]`). Returns the broadcast message on every rank.
#[track_caller]
pub fn bcast_a<'r>(
    rank: &'r mut Rank,
    comm: &'r Comm,
    data: &'r [f64],
    root: usize,
    algo: BcastAlgo,
) -> impl Future<Output = Vec<f64>> + 'r {
    let site = Location::caller();
    async move {
        let p = comm.size();
        assert!(root < p, "root out of communicator");
        rank.collective_begin_at(comm, CollectiveOp::Bcast, data.len() as u64, site).await;
        if p == 1 {
            return data.to_vec();
        }
        match algo {
            BcastAlgo::Binomial | BcastAlgo::Auto => binomial(rank, comm, data, root).await,
            BcastAlgo::ScatterAllGather => scatter_allgather(rank, comm, data, root).await,
        }
    }
}

async fn binomial(rank: &mut Rank, comm: &Comm, data: &[f64], root: usize) -> Vec<f64> {
    let p = comm.size();
    let me = comm.index();
    let vrank = (me + p - root) % p;
    let unvrank = |v: usize| (v + root) % p;

    let mut buf: Vec<f64> = if me == root { data.to_vec() } else { Vec::new() };

    // Receive phase: wait for the message from the subtree parent.
    let mut mask = 1usize;
    while mask < p {
        if vrank & mask != 0 {
            let src = unvrank(vrank - mask);
            buf = rank.recv_a(comm, src).await.payload;
            break;
        }
        mask <<= 1;
    }
    // Send phase: forward to children at decreasing distances.
    mask >>= 1;
    while mask > 0 {
        if vrank + mask < p {
            let dst = unvrank(vrank + mask);
            rank.send_a(comm, dst, &buf).await;
        }
        mask >>= 1;
    }
    buf
}

async fn scatter_allgather(rank: &mut Rank, comm: &Comm, data: &[f64], root: usize) -> Vec<f64> {
    let p = comm.size();
    // MPI convention: the message length is collective knowledge, so every
    // rank must pass a `data` slice of the same length (contents only
    // matter at the root).
    assert!(
        data.len().is_multiple_of(p),
        "scatter-allgather bcast requires p | message length (len {} , p {p})",
        data.len()
    );
    let chunk = data.len() / p;
    let counts = vec![chunk; p];
    let mine = scatter_v_a(rank, comm, data, &counts, root, ScatterAlgo::Binomial).await;
    debug_assert_eq!(mine.len(), chunk);
    // Ring all-gather reassembles the full message everywhere. Blocks are
    // indexed by communicator order, matching the scatter.
    all_gather_v_a(rank, comm, &mine, &counts, AllGatherAlgo::Ring).await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs;
    use pmm_simnet::{MachineParams, World};

    fn check(p: usize, root: usize, len: usize, algo: BcastAlgo) {
        let msg: Vec<f64> = (0..len).map(|i| i as f64 * 1.5).collect();
        let want = msg.clone();
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(async |rank| {
            let comm = rank.world_comm();
            let data = if rank.world_rank() == root { msg.clone() } else { vec![0.0; len] };
            bcast_a(rank, &comm, &data, root, algo).await
        });
        for (r, v) in out.values.iter().enumerate() {
            assert_eq!(v, &want, "rank {r} (p={p}, root={root}, {algo:?})");
        }
    }

    #[test]
    fn binomial_various_p_and_roots() {
        for p in [2, 3, 5, 8] {
            for root in [0, p - 1, p / 2] {
                check(p, root, 6, BcastAlgo::Binomial);
            }
        }
    }

    #[test]
    fn scatter_allgather_various() {
        check(4, 0, 8, BcastAlgo::ScatterAllGather);
        check(4, 2, 12, BcastAlgo::ScatterAllGather);
        check(6, 1, 18, BcastAlgo::ScatterAllGather);
    }

    #[test]
    fn root_cost_matches_binomial_model() {
        let (p, w) = (8usize, 10usize);
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
            let comm = rank.world_comm();
            let data = vec![1.0; w];
            bcast_a(rank, &comm, &data, 0, BcastAlgo::Binomial).await;
            rank.time()
        });
        let model = costs::bcast_cost(BcastAlgo::Binomial, p, w);
        // The root sends log2 p messages of w words; its clock is the model.
        assert_eq!(out.values[0], model.words);
        assert_eq!(out.reports[0].meter.words_sent as f64, model.words);
        // Critical path over all ranks equals the root's cost for binomial.
        assert_eq!(out.critical_path_time(), model.words);
    }

    #[test]
    fn scatter_allgather_beats_binomial_bandwidth() {
        let (p, w) = (8usize, 64usize);
        let run = |algo: BcastAlgo| {
            World::new(p, MachineParams::BANDWIDTH_ONLY)
                .run(async move |rank| {
                    let comm = rank.world_comm();
                    let data = vec![1.0; w];
                    bcast_a(rank, &comm, &data, 0, algo).await;
                })
                .critical_path_time()
        };
        let t_sag = run(BcastAlgo::ScatterAllGather);
        let t_bin = run(BcastAlgo::Binomial);
        assert!(t_sag < t_bin, "SAG {t_sag} should beat binomial {t_bin} at large w");
    }

    #[test]
    fn single_rank_identity() {
        let out = World::new(1, MachineParams::BANDWIDTH_ONLY).run(async |rank| {
            let comm = rank.world_comm();
            bcast_a(rank, &comm, &[5.0], 0, BcastAlgo::Auto).await
        });
        assert_eq!(out.values[0], vec![5.0]);
    }
}
