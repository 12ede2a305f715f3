//! All-Gather: after the call, every rank holds the concatenation of all
//! ranks' contributions, in communicator order.
//!
//! Two bandwidth-optimal algorithms are provided (Thakur et al. 2005):
//!
//! * **Ring** (bidirectional-exchange ring): `p − 1` steps, each rank
//!   forwards one block to its right neighbor while receiving from the
//!   left. Works for any `p` and any (possibly uneven, possibly empty)
//!   block sizes.
//! * **Recursive doubling**: `log2 p` steps for power-of-two `p`; at step
//!   `s` each rank exchanges everything it holds with its partner at XOR
//!   distance `2^s`.
//!
//! Both move exactly `W − w_me` words per rank, i.e. `(1 − 1/p)·W` for
//! uniform blocks, which is optimal.

use std::future::Future;
use std::panic::Location;

use pmm_simnet::{CollectiveOp, Comm, Rank};

use crate::util::{is_pow2, offsets};

/// Algorithm selector for [`all_gather_v_a`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllGatherAlgo {
    /// Bidirectional ring; any `p`.
    Ring,
    /// Recursive doubling; requires power-of-two `p`.
    RecursiveDoubling,
    /// Bruck's algorithm: `⌈log2 p⌉` rounds for **any** `p` (each round
    /// sends everything held to rank `−2^s` and receives from `+2^s`),
    /// at the price of a final local rotation. Latency-optimal where the
    /// ring is bandwidth-optimal-but-slow to start.
    Bruck,
    /// Recursive doubling when `p` is a power of two, ring otherwise.
    Auto,
}

/// All-Gather with uniform block sizes.
///
/// Every rank contributes `mine` (all contributions must have equal
/// length); returns the concatenation in communicator order.
#[track_caller]
pub fn all_gather_a<'r>(
    rank: &'r mut Rank,
    comm: &'r Comm,
    mine: &'r [f64],
    algo: AllGatherAlgo,
) -> impl Future<Output = Vec<f64>> + 'r {
    let site = Location::caller();
    async move {
        let counts = vec![mine.len(); comm.size()];
        all_gather_v_at(rank, comm, mine, &counts, algo, site).await
    }
}

/// All-Gather with per-rank block sizes (`MPI_Allgatherv`).
///
/// `counts[i]` is the contribution length of member `i` and must be known
/// (and identical) at every rank; `counts[comm.index()] == mine.len()`.
#[track_caller]
pub fn all_gather_v_a<'r>(
    rank: &'r mut Rank,
    comm: &'r Comm,
    mine: &'r [f64],
    counts: &'r [usize],
    algo: AllGatherAlgo,
) -> impl Future<Output = Vec<f64>> + 'r {
    all_gather_v_at(rank, comm, mine, counts, algo, Location::caller())
}

pub(crate) async fn all_gather_v_at(
    rank: &mut Rank,
    comm: &Comm,
    mine: &[f64],
    counts: &[usize],
    algo: AllGatherAlgo,
    site: &'static Location<'static>,
) -> Vec<f64> {
    let p = comm.size();
    assert_eq!(counts.len(), p, "counts length must equal communicator size");
    assert_eq!(counts[comm.index()], mine.len(), "own count disagrees with contribution");
    rank.collective_begin_at(comm, CollectiveOp::AllGather, mine.len() as u64, site).await;
    if p == 1 {
        return mine.to_vec();
    }
    match algo {
        AllGatherAlgo::Ring => ring(rank, comm, mine, counts).await,
        AllGatherAlgo::RecursiveDoubling => {
            assert!(is_pow2(p), "recursive doubling requires power-of-two communicator");
            recursive_doubling(rank, comm, mine, counts).await
        }
        AllGatherAlgo::Bruck => bruck(rank, comm, mine, counts).await,
        AllGatherAlgo::Auto => {
            if is_pow2(p) {
                recursive_doubling(rank, comm, mine, counts).await
            } else {
                ring(rank, comm, mine, counts).await
            }
        }
    }
}

/// Bruck's all-gather: rank `r` accumulates blocks in *relative* order
/// `r, r+1, r+2, …` (mod `p`); at step `s` it sends its current prefix of
/// `min(2^s, p − 2^s)` blocks to `r − 2^s` and receives the next blocks
/// from `r + 2^s`. `⌈log2 p⌉` rounds for any `p`; moves the same
/// `W − w_me` words as the ring.
async fn bruck(rank: &mut Rank, comm: &Comm, mine: &[f64], counts: &[usize]) -> Vec<f64> {
    let p = comm.size();
    let me = comm.index();
    // Blocks held, in relative order starting at my own block.
    let mut have: Vec<Vec<f64>> = Vec::with_capacity(p);
    have.push(mine.to_vec());

    let mut dist = 1usize;
    while dist < p {
        // We hold `have.len() = min(2^s, p)` blocks and need `p − have.len()`
        // more; this round provides up to `dist` of them. The partner at
        // `me − dist` holds blocks `me−dist … me−dist+have.len()−1` and is
        // missing our prefix next, so the payload is our first
        // `n_this_round` blocks.
        let n_this_round = (p - have.len()).min(dist);
        let payload: Vec<f64> = have[..n_this_round].iter().flatten().copied().collect();
        let to = (me + p - dist) % p;
        let from = (me + dist) % p;
        let msg = rank.exchange_a(comm, to, from, &payload).await;
        // Received: blocks (me + dist), (me + dist + 1), … in relative
        // order — split by their global counts.
        let mut off = 0usize;
        for i in 0..n_this_round {
            let owner = (me + dist + i) % p;
            let len = counts[owner];
            have.push(msg.payload[off..off + len].to_vec());
            off += len;
        }
        assert_eq!(off, msg.payload.len(), "Bruck round size mismatch");
        dist <<= 1;
    }

    // Local rotation into absolute block order.
    let off = offsets(counts);
    let mut out = vec![0.0f64; off[p]];
    for (i, block) in have.into_iter().enumerate() {
        let owner = (me + i) % p;
        out[off[owner]..off[owner + 1]].copy_from_slice(&block);
    }
    out
}

async fn ring(rank: &mut Rank, comm: &Comm, mine: &[f64], counts: &[usize]) -> Vec<f64> {
    let p = comm.size();
    let me = comm.index();
    let off = offsets(counts);
    let total = off[p];
    let mut out = vec![0.0f64; total];
    out[off[me]..off[me + 1]].copy_from_slice(mine);

    let right = (me + 1) % p;
    let left = (me + p - 1) % p;
    // At step s we forward block (me − s mod p) rightward and receive block
    // (me − 1 − s mod p) from the left.
    for s in 0..p - 1 {
        let send_block = (me + p - s) % p;
        let recv_block = (me + p - 1 - s) % p;
        let payload = out[off[send_block]..off[send_block + 1]].to_vec();
        let msg = rank.exchange_a(comm, right, left, &payload).await;
        assert_eq!(msg.payload.len(), counts[recv_block], "ring block size mismatch");
        out[off[recv_block]..off[recv_block + 1]].copy_from_slice(&msg.payload);
    }
    out
}

async fn recursive_doubling(
    rank: &mut Rank,
    comm: &Comm,
    mine: &[f64],
    counts: &[usize],
) -> Vec<f64> {
    let p = comm.size();
    let me = comm.index();
    let off = offsets(counts);
    let total = off[p];
    let mut out = vec![0.0f64; total];
    out[off[me]..off[me + 1]].copy_from_slice(mine);

    let mut mask = 1usize;
    while mask < p {
        let partner = me ^ mask;
        // After s steps each rank holds the contiguous block group
        // [⌊me/mask⌋·mask, ⌊me/mask⌋·mask + mask).
        let g_mine = (me / mask) * mask;
        let g_theirs = (partner / mask) * mask;
        let payload = out[off[g_mine]..off[g_mine + mask]].to_vec();
        let msg = rank.exchange_a(comm, partner, partner, &payload).await;
        let expect: usize = off[g_theirs + mask] - off[g_theirs];
        assert_eq!(msg.payload.len(), expect, "recursive-doubling block size mismatch");
        out[off[g_theirs]..off[g_theirs + mask]].copy_from_slice(&msg.payload);
        mask <<= 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs;
    use pmm_simnet::{MachineParams, World};

    fn expected(counts: &[usize]) -> Vec<f64> {
        let mut v = Vec::new();
        for (i, &c) in counts.iter().enumerate() {
            v.extend(std::iter::repeat_n(i as f64 + 0.5, c));
        }
        v
    }

    fn check(p: usize, counts: Vec<usize>, algo: AllGatherAlgo) {
        let want = expected(&counts);
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(async |rank| {
            let comm = rank.world_comm();
            let mine = vec![rank.world_rank() as f64 + 0.5; counts[rank.world_rank()]];
            all_gather_v_a(rank, &comm, &mine, &counts, algo).await
        });
        for (r, v) in out.values.iter().enumerate() {
            assert_eq!(v, &want, "rank {r} gathered wrong data (p={p}, {algo:?})");
        }
    }

    #[test]
    fn ring_uniform_various_p() {
        for p in [2, 3, 4, 5, 7, 8] {
            check(p, vec![3; p], AllGatherAlgo::Ring);
        }
    }

    #[test]
    fn recursive_doubling_uniform_pow2() {
        for p in [2, 4, 8, 16] {
            check(p, vec![2; p], AllGatherAlgo::RecursiveDoubling);
        }
    }

    #[test]
    fn uneven_and_empty_blocks() {
        check(5, vec![0, 3, 1, 0, 4], AllGatherAlgo::Ring);
        check(4, vec![2, 0, 5, 1], AllGatherAlgo::RecursiveDoubling);
    }

    #[test]
    fn auto_picks_valid_algorithm() {
        check(6, vec![1; 6], AllGatherAlgo::Auto);
        check(8, vec![1; 8], AllGatherAlgo::Auto);
    }

    #[test]
    fn bruck_any_p_and_uneven_blocks() {
        for p in [2usize, 3, 5, 6, 7, 8, 13] {
            check(p, vec![2; p], AllGatherAlgo::Bruck);
        }
        check(5, vec![0, 3, 1, 0, 4], AllGatherAlgo::Bruck);
        check(7, vec![1, 2, 0, 3, 1, 0, 2], AllGatherAlgo::Bruck);
    }

    #[test]
    fn bruck_latency_is_ceil_log2_for_any_p() {
        let params = MachineParams::new(1.0, 0.0, 0.0);
        for (p, want) in [(5usize, 3.0), (6, 3.0), (7, 3.0), (8, 3.0), (9, 4.0)] {
            let out = World::new(p, params).run(async move |rank| {
                let comm = rank.world_comm();
                all_gather_a(rank, &comm, &[1.0], AllGatherAlgo::Bruck).await;
                rank.time()
            });
            for r in 0..p {
                assert_eq!(out.values[r], want, "p={p} rank {r}");
            }
        }
    }

    #[test]
    fn bruck_moves_same_words_as_ring() {
        // Both send exactly W − w_me per rank (uniform case): (p−1)·w.
        let (p, w) = (6usize, 5usize);
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
            let comm = rank.world_comm();
            all_gather_a(rank, &comm, &vec![1.0; w], AllGatherAlgo::Bruck).await;
            rank.meter().words_sent
        });
        for &sent in &out.values {
            assert_eq!(sent as usize, (p - 1) * w);
        }
    }

    #[test]
    fn single_rank_is_identity() {
        let out = World::new(1, MachineParams::BANDWIDTH_ONLY).run(async |rank| {
            let comm = rank.world_comm();
            all_gather_a(rank, &comm, &[9.0, 8.0], AllGatherAlgo::Auto).await
        });
        assert_eq!(out.values[0], vec![9.0, 8.0]);
        assert_eq!(out.reports[0].meter.words_sent, 0);
    }

    #[test]
    fn bandwidth_matches_cost_model_ring() {
        let (p, w) = (6usize, 10usize);
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(async |rank| {
            let comm = rank.world_comm();
            let mine = vec![1.0; w];
            all_gather_a(rank, &comm, &mine, AllGatherAlgo::Ring).await;
            rank.time()
        });
        let model = costs::all_gather_cost(AllGatherAlgo::Ring, p, w);
        // words moved per rank: (p-1) * w, both directions; duplex clock = (p-1)*w
        for r in 0..p {
            assert_eq!(out.reports[r].meter.words_sent, ((p - 1) * w) as u64);
            assert_eq!(out.reports[r].meter.words_recv, ((p - 1) * w) as u64);
            assert_eq!(out.values[r], model.words);
        }
        assert_eq!(model.words, ((p - 1) * w) as f64);
    }

    #[test]
    fn bandwidth_matches_cost_model_recursive_doubling() {
        let (p, w) = (8usize, 5usize);
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(async |rank| {
            let comm = rank.world_comm();
            let mine = vec![1.0; w];
            all_gather_a(rank, &comm, &mine, AllGatherAlgo::RecursiveDoubling).await;
            rank.time()
        });
        let model = costs::all_gather_cost(AllGatherAlgo::RecursiveDoubling, p, w);
        for r in 0..p {
            assert_eq!(out.values[r], model.words, "clock vs model at rank {r}");
            assert_eq!(out.reports[r].meter.words_sent, model.words as u64);
        }
        // (1 - 1/p) * W where W = p*w
        assert_eq!(model.words, ((p - 1) * w) as f64);
    }

    #[test]
    fn latency_matches_cost_model() {
        let params = MachineParams::new(1.0, 0.0, 0.0); // count messages only
        for (algo, p) in [(AllGatherAlgo::Ring, 6), (AllGatherAlgo::RecursiveDoubling, 8)] {
            let out = World::new(p, params).run(async move |rank| {
                let comm = rank.world_comm();
                all_gather_a(rank, &comm, &[1.0, 2.0], algo).await;
                rank.time()
            });
            let model = costs::all_gather_cost(algo, p, 2);
            for r in 0..p {
                assert_eq!(out.values[r], model.messages, "{algo:?} latency at rank {r}");
            }
        }
    }

    #[test]
    fn works_on_subcommunicators() {
        // Split 6 ranks into two groups of 3 and all-gather within groups.
        let out = World::new(6, MachineParams::BANDWIDTH_ONLY).run(async |rank| {
            let wc = rank.world_comm();
            let color = (rank.world_rank() % 2) as i64;
            let sub = rank.split_a(&wc, color, rank.world_rank() as i64).await.unwrap();
            all_gather_a(rank, &sub, &[rank.world_rank() as f64], AllGatherAlgo::Ring).await
        });
        assert_eq!(out.values[0], vec![0.0, 2.0, 4.0]);
        assert_eq!(out.values[3], vec![1.0, 3.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn recursive_doubling_rejects_non_pow2() {
        World::new(3, MachineParams::BANDWIDTH_ONLY).run(async |rank| {
            let comm = rank.world_comm();
            all_gather_a(rank, &comm, &[0.0], AllGatherAlgo::RecursiveDoubling).await;
        });
    }
}
