//! **Algorithm 1** — communication-optimal parallel matrix multiplication
//! on a `p1 × p2 × p3` logical processor grid (§5 of the paper).
//!
//! ```text
//! 1:  (p1', p2', p3') is my processor ID
//! 2:  // Gather input matrix data
//! 3:  A_{p1'p2'} = All-Gather(A_{p1'p2'p3'}, (p1', p2', :))
//! 4:  B_{p2'p3'} = All-Gather(B_{p1'p2'p3'}, (:, p2', p3'))
//! 5:  // Perform local computation
//! 6:  D_{p1'p2'p3'} = A_{p1'p2'} · B_{p2'p3'}
//! 7:  // Sum results to compute C_{p1'p3'}
//! 8:  C_{p1'p2'p3'} = Reduce-Scatter(D_{p1'p2'p3'}, (p1', :, p3'))
//! ```
//!
//! Initial distribution (§5): block `A_{p1'p2'}` of the `p1 × p2` block
//! partition of `A` is spread evenly (contiguous runs of its row-major
//! elements) over the `p3` processors of fiber `(p1', p2', :)`; likewise
//! `B_{p2'p3'}` over `(:, p2', p3')`. On output, `C_{p1'p3'}` is spread
//! evenly over `(p1', :, p3')`.
//!
//! With bandwidth-optimal collectives, the per-processor cost is exactly
//! eq. (3):
//!
//! ```text
//! (1 − 1/p3)·n1n2/(p1p2) + (1 − 1/p1)·n2n3/(p2p3) + (1 − 1/p2)·n1n3/(p1p3)
//! ```
//!
//! and with the §5.2 optimal grid this *equals* the Theorem 3 bound.

use pmm_collectives::{
    all_gather_v_a, all_to_all_a, reduce_scatter_v_a, AllGatherAlgo, AllToAllAlgo,
    ReduceScatterAlgo,
};
use pmm_dense::{block_range, chunk_of_block, gemm, Kernel, Matrix};
use pmm_model::{Grid3, MatMulDims};
use pmm_simnet::{Comm, Rank};

use crate::common::{fiber_comms_on_a, flatten_block, PhaseMeter, PhaseProbe};

/// How the partial products `D` are combined into `C` (line 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Assembly {
    /// Reduce-Scatter (the paper's Algorithm 1): bandwidth-optimal and
    /// latency `O(log p2)`.
    #[default]
    ReduceScatter,
    /// All-to-All followed by local summation (Agarwal et al. 1995 style):
    /// same bandwidth, `p2 − 1` latency, and `p2×` more temporary memory.
    /// Kept as an ablation of the design choice §5.1 calls out.
    AllToAllSum,
}

/// Configuration of one Algorithm 1 run.
#[derive(Debug, Clone)]
pub struct Alg1Config {
    /// Problem dimensions.
    pub dims: MatMulDims,
    /// Logical processor grid (its size must equal the world size).
    pub grid: Grid3,
    /// Local compute kernel.
    pub kernel: Kernel,
    /// Output assembly strategy.
    pub assembly: Assembly,
}

impl Alg1Config {
    /// Convenience constructor with the default kernel and assembly.
    pub fn new(dims: MatMulDims, grid: Grid3) -> Alg1Config {
        Alg1Config { dims, grid, kernel: Kernel::default(), assembly: Assembly::default() }
    }
}

/// Per-rank result of [`alg1_a`].
#[derive(Debug, Clone, PartialEq)]
pub struct Alg1Output {
    /// This rank's chunk of `C_{p1'p3'}` (a contiguous run of the block's
    /// row-major elements; chunk index = `p2'`).
    pub c_chunk: Vec<f64>,
    /// Traffic per phase: `[All-Gather A, All-Gather B, assemble C]`.
    pub phases: [PhaseMeter; 3],
}

/// Extract the chunk of `A` owned initially by the processor at `coord`:
/// the `p3`-way even split (by `coord[2]`) of block `A_{coord0, coord1}`.
pub fn owned_a_chunk(dims: MatMulDims, grid: Grid3, coord: [usize; 3], a: &Matrix) -> Vec<f64> {
    let _ = dims;
    let [p1, p2, p3] = grid.dims();
    let block = flatten_block(a, p1, p2, coord[0], coord[1]);
    let r = chunk_of_block(block.len(), p3, coord[2]);
    block[r].to_vec()
}

/// Extract the chunk of `B` owned initially by the processor at `coord`:
/// the `p1`-way even split (by `coord[0]`) of block `B_{coord1, coord2}`.
pub fn owned_b_chunk(dims: MatMulDims, grid: Grid3, coord: [usize; 3], b: &Matrix) -> Vec<f64> {
    let [p1, p2, p3] = grid.dims();
    let _ = dims;
    let block = flatten_block(b, p2, p3, coord[1], coord[2]);
    let r = chunk_of_block(block.len(), p1, coord[0]);
    block[r].to_vec()
}

/// The chunk range of `C_{p1', p3'}` owned finally by `coord` (chunk index
/// = `coord[1]`), as a range into the block's row-major elements.
pub fn owned_c_range(dims: MatMulDims, grid: Grid3, coord: [usize; 3]) -> std::ops::Range<usize> {
    let [p1, p2, p3] = grid.dims();
    let h = block_range(dims.n1 as usize, p1, coord[0]).len();
    let w = block_range(dims.n3 as usize, p3, coord[2]).len();
    chunk_of_block(h * w, p2, coord[1])
}

/// Run Algorithm 1. `a` and `b` are the *global* inputs (available to the
/// closure only as a convenient source of this rank's owned chunks — the
/// algorithm reads nothing else from them).
pub async fn alg1_a(rank: &mut Rank, cfg: &Alg1Config, a: &Matrix, b: &Matrix) -> Alg1Output {
    let world = rank.world_comm();
    alg1_on_a(rank, &world, cfg, a, b).await
}

/// [`alg1_a`] generalized to an arbitrary base communicator (whose size
/// must equal the grid size): this rank's grid position is its index in
/// `base`, and all three fiber communicators are split from `base`. This
/// is the entry point failure recovery uses to re-run the multiplication
/// on the surviving ranks — see [`crate::recovery::run_recoverable_a`].
pub async fn alg1_on_a(
    rank: &mut Rank,
    base: &Comm,
    cfg: &Alg1Config,
    a: &Matrix,
    b: &Matrix,
) -> Alg1Output {
    let dims = cfg.dims;
    let grid = cfg.grid;
    assert_eq!(
        (a.rows() as u64, a.cols() as u64, b.cols() as u64),
        (dims.n1, dims.n2, dims.n3),
        "global inputs disagree with dims"
    );
    let [p1, p2, p3] = grid.dims();
    let coord = grid.coord_of(base.index());
    let comms = fiber_comms_on_a(rank, base, grid).await;

    // ----- owned input chunks (initial distribution) -----------------------
    let a_own = owned_a_chunk(dims, grid, coord, a);
    let b_own = owned_b_chunk(dims, grid, coord, b);
    rank.mem_acquire((a_own.len() + b_own.len()) as u64);

    // Block shapes.
    let h1 = block_range(dims.n1 as usize, p1, coord[0]).len(); // rows of A/C block
    let h2 = block_range(dims.n2 as usize, p2, coord[1]).len(); // inner
    let h3 = block_range(dims.n3 as usize, p3, coord[2]).len(); // cols of B/C block
    let a_block_words = h1 * h2;
    let b_block_words = h2 * h3;
    let c_block_words = h1 * h3;

    // ----- line 3: All-Gather A over fiber (p1', p2', :) -------------------
    let a_counts: Vec<usize> =
        (0..p3).map(|t| chunk_of_block(a_block_words, p3, t).len()).collect();
    rank.mem_acquire(a_block_words as u64);
    let probe = PhaseProbe::begin(rank, "all-gather A");
    let a_flat = all_gather_v_a(rank, &comms[2], &a_own, &a_counts, AllGatherAlgo::Auto).await;
    let ph_a = probe.finish(rank);
    let a_block = Matrix::from_vec(h1, h2, a_flat);

    // ----- line 4: All-Gather B over fiber (:, p2', p3') -------------------
    let b_counts: Vec<usize> =
        (0..p1).map(|t| chunk_of_block(b_block_words, p1, t).len()).collect();
    rank.mem_acquire(b_block_words as u64);
    let probe = PhaseProbe::begin(rank, "all-gather B");
    let b_flat = all_gather_v_a(rank, &comms[0], &b_own, &b_counts, AllGatherAlgo::Auto).await;
    let ph_b = probe.finish(rank);
    let b_block = Matrix::from_vec(h2, h3, b_flat);

    // ----- line 6: local computation D = A_block · B_block -----------------
    rank.mem_acquire(c_block_words as u64);
    let d = pmm_simnet::phase!(rank, "local multiply", {
        let d = gemm(&a_block, &b_block, cfg.kernel);
        // The model meters scalar multiplications, matching the paper's
        // n1n2n3/P count (line 6 performs h1·h2·h3 of them).
        rank.compute((h1 * h2 * h3) as f64);
        d
    });

    // ----- line 8: assemble C over fiber (p1', :, p3') ---------------------
    let c_counts: Vec<usize> =
        (0..p2).map(|t| chunk_of_block(c_block_words, p2, t).len()).collect();
    let (c_chunk, ph_c) = match cfg.assembly {
        Assembly::ReduceScatter => {
            let probe = PhaseProbe::begin(rank, "reduce-scatter C");
            let c = reduce_scatter_v_a(
                rank,
                &comms[1],
                d.as_slice(),
                &c_counts,
                ReduceScatterAlgo::Auto,
            )
            .await;
            (c, probe.finish(rank))
        }
        Assembly::AllToAllSum => {
            let probe = PhaseProbe::begin(rank, "all-to-all C");
            let c = all_to_all_sum(rank, &comms[1], d.as_slice(), &c_counts).await;
            (c, probe.finish(rank))
        }
    };

    // Release gathered blocks and D; retain owned inputs + owned C chunk.
    rank.mem_acquire(c_chunk.len() as u64);
    rank.mem_release((a_block_words + b_block_words + c_block_words) as u64);

    Alg1Output { c_chunk, phases: [ph_a, ph_b, ph_c] }
}

/// Reduce-scatter semantics via All-to-All + local summation (the
/// [`Assembly::AllToAllSum`] ablation). Requires uniform `counts` (pads
/// internally when uneven by falling back to per-destination sends of the
/// exact segments).
async fn all_to_all_sum(
    rank: &mut Rank,
    comm: &pmm_simnet::Comm,
    data: &[f64],
    counts: &[usize],
) -> Vec<f64> {
    let p = comm.size();
    let me = comm.index();
    let uniform = counts.iter().all(|&c| c == counts[0]);
    let offsets: Vec<usize> = {
        let mut v = Vec::with_capacity(p + 1);
        let mut acc = 0;
        v.push(0);
        for &c in counts {
            acc += c;
            v.push(acc);
        }
        v
    };
    assert_eq!(data.len(), offsets[p], "data length disagrees with counts");
    let mut acc: Vec<f64> = data[offsets[me]..offsets[me + 1]].to_vec();
    // Temporary memory for the p−1 received chunks (the ablation's cost).
    rank.mem_acquire((data.len() - acc.len()) as u64);
    if uniform && counts[0] > 0 {
        let recv = all_to_all_a(rank, comm, data, AllToAllAlgo::Pairwise).await;
        for src in 0..p {
            if src == me {
                continue;
            }
            let seg = &recv[src * counts[0]..(src + 1) * counts[0]];
            for (a, &s) in acc.iter_mut().zip(seg) {
                *a += s;
            }
            rank.compute(counts[0] as f64);
        }
    } else {
        // Uneven segments: pairwise exchange of exact segments.
        for s in 1..p {
            let to = (me + s) % p;
            let from = (me + p - s) % p;
            let payload = &data[offsets[to]..offsets[to + 1]];
            let msg = rank.exchange_a(comm, to, from, payload).await;
            assert_eq!(msg.payload.len(), counts[me]);
            for (a, &v) in acc.iter_mut().zip(&msg.payload) {
                *a += v;
            }
            rank.compute(counts[me] as f64);
        }
    }
    rank.mem_release((data.len() - acc.len()) as u64);
    acc
}

/// Assemble the global `C` from every rank's [`Alg1Output::c_chunk`]
/// (test/harness helper; runs outside the simulated machine).
pub fn assemble_c(dims: MatMulDims, grid: Grid3, chunks: &[Vec<f64>]) -> Matrix {
    let [p1, p2, p3] = grid.dims();
    assert_eq!(chunks.len(), grid.size());
    let (n1, n3) = (dims.n1 as usize, dims.n3 as usize);
    let mut c = Matrix::zeros(n1, n3);
    for i in 0..p1 {
        let rrange = block_range(n1, p1, i);
        for l in 0..p3 {
            let crange = block_range(n3, p3, l);
            let words = rrange.len() * crange.len();
            let mut flat = vec![0.0f64; words];
            for j in 0..p2 {
                let rank = grid.rank_of([i, j, l]);
                let chunk = &chunks[rank];
                let range = chunk_of_block(words, p2, j);
                assert_eq!(chunk.len(), range.len(), "rank {rank} chunk size");
                flat[range].copy_from_slice(chunk);
            }
            let block = Matrix::from_vec(rrange.len(), crange.len(), flat);
            c.set_sub(rrange.start, crange.start, &block);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmm_core::gridopt::{alg1_cost_words, best_grid};
    use pmm_core::theorem3::lower_bound;
    use pmm_dense::{gemm as serial_gemm, random_int_matrix};
    use pmm_simnet::{MachineParams, World};

    /// Run Algorithm 1 on a world sized to `grid`, return (C, result).
    fn run(
        dims: MatMulDims,
        grid: [usize; 3],
        assembly: Assembly,
    ) -> (Matrix, pmm_simnet::WorldResult<Alg1Output>) {
        let grid = Grid3::from_dims(grid);
        let cfg = Alg1Config { dims, grid, kernel: Kernel::Naive, assembly };
        let out = World::new(grid.size(), MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
            let a = random_int_matrix(dims.n1 as usize, dims.n2 as usize, -3..4, 11);
            let b = random_int_matrix(dims.n2 as usize, dims.n3 as usize, -3..4, 22);
            alg1_a(rank, &cfg, &a, &b).await
        });
        let chunks: Vec<Vec<f64>> = out.values.iter().map(|v| v.c_chunk.clone()).collect();
        (assemble_c(dims, grid, &chunks), out)
    }

    fn reference(dims: MatMulDims) -> Matrix {
        let a = random_int_matrix(dims.n1 as usize, dims.n2 as usize, -3..4, 11);
        let b = random_int_matrix(dims.n2 as usize, dims.n3 as usize, -3..4, 22);
        serial_gemm(&a, &b, Kernel::Naive)
    }

    #[test]
    fn correct_on_divisible_3d_grid() {
        let dims = MatMulDims::new(12, 8, 6);
        let (c, _) = run(dims, [2, 2, 3], Assembly::ReduceScatter);
        assert_eq!(c, reference(dims), "Alg1 product disagrees with serial reference");
    }

    #[test]
    fn correct_on_1d_and_2d_grids() {
        let dims = MatMulDims::new(12, 9, 5);
        for grid in [[4, 1, 1], [1, 3, 1], [1, 1, 5], [3, 3, 1], [2, 1, 5]] {
            let (c, _) = run(dims, grid, Assembly::ReduceScatter);
            assert_eq!(c, reference(dims), "grid {grid:?}");
        }
    }

    #[test]
    fn correct_on_non_divisible_dims() {
        let dims = MatMulDims::new(13, 7, 11);
        for grid in [[2, 2, 2], [3, 2, 1], [2, 3, 4]] {
            let (c, _) = run(dims, grid, Assembly::ReduceScatter);
            assert_eq!(c, reference(dims), "grid {grid:?}");
        }
    }

    #[test]
    fn correct_with_all_to_all_assembly() {
        let dims = MatMulDims::new(12, 8, 6);
        for grid in [[2, 2, 3], [1, 4, 1], [2, 3, 2]] {
            let (c, _) = run(dims, grid, Assembly::AllToAllSum);
            assert_eq!(c, reference(dims), "grid {grid:?}");
        }
    }

    #[test]
    fn single_processor_no_communication() {
        let dims = MatMulDims::new(6, 5, 4);
        let (c, out) = run(dims, [1, 1, 1], Assembly::ReduceScatter);
        assert_eq!(c, reference(dims));
        assert_eq!(out.total_words_sent(), 0.0);
    }

    #[test]
    fn measured_cost_equals_eq3_exactly_on_divisible_grids() {
        // The §5.1 analysis: per-processor critical-path words == eq. (3).
        let dims = MatMulDims::new(24, 12, 8);
        for grid in [[2, 2, 2], [4, 3, 1], [2, 3, 4], [1, 2, 2], [6, 1, 2]] {
            let (_, out) = run(dims, grid, Assembly::ReduceScatter);
            let want = alg1_cost_words(dims, grid);
            let got = out.critical_path_time();
            assert!((got - want).abs() < 1e-9, "grid {grid:?}: measured {got} vs eq3 {want}");
            // And every rank moves the same volume (balanced schedule).
            for r in &out.reports {
                assert_eq!(r.meter.duplex_words() as f64, want, "grid {grid:?}");
            }
        }
    }

    #[test]
    fn attains_lower_bound_exactly_with_optimal_grid() {
        // Tightness (the paper's headline): measured == Theorem 3 bound in
        // all three cases, on instances where both the blocks and the
        // per-fiber chunks divide evenly (same aspect ratios as the
        // paper's §5.3 example: m/n = 4, mn/k² = 64).
        let dims = MatMulDims::new(768, 192, 48);
        for (p, want_case) in [(3usize, "1D"), (36, "2D"), (512, "3D")] {
            let choice = best_grid(dims, p);
            assert!(dims.divisible_by(choice.grid), "P={p} grid {:?}", choice.grid);
            let (c, out) = run(dims, choice.grid, Assembly::ReduceScatter);
            assert_eq!(c, reference(dims));
            let bound = lower_bound(dims, p as f64).bound;
            let got = out.critical_path_time();
            assert!(
                (got - bound).abs() < 1e-9 * bound.max(1.0),
                "P={p} ({want_case}): measured {got} vs bound {bound}"
            );
        }
    }

    #[test]
    fn phase_traffic_matches_per_matrix_pattern() {
        // Fig. 2 narrative: on a 1D grid only B is communicated; on the
        // 12×3×1-style 2D grid only B and C; on 3D all three.
        let dims = MatMulDims::new(96, 24, 6);
        let phase_words = |grid: [usize; 3]| -> [u64; 3] {
            let (_, out) = run(dims, grid, Assembly::ReduceScatter);
            let mut w = [0u64; 3];
            for rep in &out.values {
                for (i, ph) in rep.phases.iter().enumerate() {
                    w[i] += ph.meter.words_sent;
                }
            }
            w
        };
        let w1 = phase_words([3, 1, 1]);
        assert_eq!(w1[0], 0, "1D: A not communicated");
        assert!(w1[1] > 0, "1D: B all-gathered");
        assert_eq!(w1[2], 0, "1D: C not communicated");

        let w2 = phase_words([12, 3, 1]);
        assert_eq!(w2[0], 0, "2D (r=1): A not communicated");
        assert!(w2[1] > 0 && w2[2] > 0, "2D: B and C communicated");

        let w3 = phase_words([4, 2, 2]);
        assert!(w3.iter().all(|&x| x > 0), "3D: all matrices communicated");
    }

    #[test]
    fn alltoall_assembly_same_bandwidth_more_latency() {
        let dims = MatMulDims::new(16, 16, 16);
        let grid = [2, 4, 2];
        let (_, rs) = run(dims, grid, Assembly::ReduceScatter);
        let (_, aa) = run(dims, grid, Assembly::AllToAllSum);
        assert_eq!(
            rs.reports[0].meter.words_sent, aa.reports[0].meter.words_sent,
            "assembly variants move the same words"
        );
        // p2 = 4: reduce-scatter (recursive halving) needs log2(4) = 2
        // messages; all-to-all needs p2 − 1 = 3.
        let rs_msgs = rs.values[0].phases[2].meter.msgs_sent;
        let aa_msgs = aa.values[0].phases[2].meter.msgs_sent;
        assert!(aa_msgs > rs_msgs, "all-to-all {aa_msgs} vs reduce-scatter {rs_msgs}");
    }

    #[test]
    fn memory_peak_tracks_eq3_footprint() {
        use pmm_core::memlimit::alg1_memory_words;
        let dims = MatMulDims::new(24, 24, 24);
        let grid = [2, 2, 2];
        let (_, out) = run(dims, grid, Assembly::ReduceScatter);
        let want = alg1_memory_words(dims, grid);
        for rep in &out.reports {
            let peak = rep.peak_mem_words as f64;
            // Peak includes the owned input chunks (counted once more than
            // the analytic footprint) but must stay within ~1.5× of it.
            assert!(peak >= want && peak <= 1.5 * want, "peak {peak} vs analytic footprint {want}");
        }
    }
}
