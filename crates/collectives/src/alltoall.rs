//! All-to-All (personalized exchange): every rank sends a distinct block
//! to every other rank.
//!
//! Algorithm 1 *replaces* the All-to-All of Agarwal et al. (1995) with a
//! Reduce-Scatter (§5.1); the All-to-All is provided both for completeness
//! and so the ablation benches can compare the two assembly strategies.

use std::future::Future;
use std::panic::Location;

use pmm_simnet::{CollectiveOp, Comm, Rank};

use crate::util::is_pow2;

/// Algorithm selector for [`all_to_all_a`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllToAllAlgo {
    /// `p − 1` steps; step `s` exchanges with rank `me XOR s` (power-of-two
    /// `p`) or sends to `me+s` while receiving from `me−s` (general `p`).
    Pairwise,
}

/// All-to-All with uniform block size: `data` is the concatenation of `p`
/// equal blocks (block `i` destined for member `i`); the result is the
/// concatenation of the blocks received from each member (own block
/// copied locally).
#[track_caller]
pub fn all_to_all_a<'r>(
    rank: &'r mut Rank,
    comm: &'r Comm,
    data: &'r [f64],
    _algo: AllToAllAlgo,
) -> impl Future<Output = Vec<f64>> + 'r {
    let site = Location::caller();
    async move {
        let p = comm.size();
        assert!(data.len().is_multiple_of(p), "all_to_all data length must be divisible by p");
        rank.collective_begin_at(comm, CollectiveOp::AllToAll, data.len() as u64, site).await;
        let w = data.len() / p;
        let me = comm.index();
        let mut out = vec![0.0f64; data.len()];
        out[me * w..(me + 1) * w].copy_from_slice(&data[me * w..(me + 1) * w]);
        if p == 1 {
            return out;
        }
        if is_pow2(p) {
            for s in 1..p {
                let partner = me ^ s;
                let msg = rank
                    .exchange_a(comm, partner, partner, &data[partner * w..(partner + 1) * w])
                    .await;
                assert_eq!(msg.payload.len(), w);
                out[partner * w..(partner + 1) * w].copy_from_slice(&msg.payload);
            }
        } else {
            for s in 1..p {
                let to = (me + s) % p;
                let from = (me + p - s) % p;
                let msg = rank.exchange_a(comm, to, from, &data[to * w..(to + 1) * w]).await;
                assert_eq!(msg.payload.len(), w);
                out[from * w..(from + 1) * w].copy_from_slice(&msg.payload);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs;
    use pmm_simnet::{MachineParams, World};

    fn check(p: usize, w: usize) {
        let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
            let comm = rank.world_comm();
            let me = rank.world_rank();
            // block for destination d: value me*p + d, repeated w times
            let data: Vec<f64> =
                (0..p).flat_map(|d| std::iter::repeat_n((me * p + d) as f64, w)).collect();
            all_to_all_a(rank, &comm, &data, AllToAllAlgo::Pairwise).await
        });
        for (r, v) in out.values.iter().enumerate() {
            let want: Vec<f64> =
                (0..p).flat_map(|src| std::iter::repeat_n((src * p + r) as f64, w)).collect();
            assert_eq!(v, &want, "rank {r} (p={p})");
        }
    }

    #[test]
    fn pow2_and_general_p() {
        check(2, 3);
        check(4, 2);
        check(8, 1);
        check(3, 4);
        check(5, 2);
        check(7, 1);
    }

    #[test]
    fn matches_cost_model() {
        for p in [8usize, 6] {
            let w = 5usize;
            let out = World::new(p, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
                let comm = rank.world_comm();
                let data = vec![1.0; p * w];
                all_to_all_a(rank, &comm, &data, AllToAllAlgo::Pairwise).await;
                rank.time()
            });
            let model = costs::all_to_all_cost(AllToAllAlgo::Pairwise, p, w);
            for r in 0..p {
                assert_eq!(out.values[r], model.words, "clock at rank {r} (p={p})");
            }
            assert_eq!(model.words, ((p - 1) * w) as f64);
        }
    }

    #[test]
    fn single_rank_identity() {
        let out = World::new(1, MachineParams::BANDWIDTH_ONLY).run(async |rank| {
            let comm = rank.world_comm();
            all_to_all_a(rank, &comm, &[9.0, 9.5], AllToAllAlgo::Pairwise).await
        });
        assert_eq!(out.values[0], vec![9.0, 9.5]);
    }
}
