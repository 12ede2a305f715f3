//! Cannon's algorithm — the classic 2D baseline (§2.4 context).
//!
//! `P = q²` processors in a `q × q` grid; every matrix is distributed as
//! `q × q` blocks with block `(i, j)` on processor `(i, j)`. After an
//! initial *skew* (block-row `i` of `A` rotated left by `i`, block-column
//! `j` of `B` rotated up by `j`), the algorithm performs `q`
//! multiply-accumulate steps, rotating `A` left and `B` up by one between
//! steps.
//!
//! Per-processor communication: the skew plus `q − 1` rotations of one
//! `A`-block and one `B`-block each — `Θ(q·(n1n2 + n2n3)/P)` words. For
//! square matrices this matches the 2D-optimal `Θ(n²/√P)`; for rectangular
//! instances in the paper's 1D/2D cases it can lose badly to Algorithm 1
//! with the §5.2 grid, which is exactly what the `algo_compare` experiment
//! shows.

use pmm_dense::{block_range, gemm_acc, Kernel, Matrix};
use pmm_model::MatMulDims;
use pmm_simnet::{Comm, Rank};

/// Configuration for [`cannon_a`].
#[derive(Debug, Clone)]
pub struct CannonConfig {
    /// Problem dimensions.
    pub dims: MatMulDims,
    /// Grid edge `q` (world size must be `q²`).
    pub q: usize,
    /// Local compute kernel.
    pub kernel: Kernel,
}

/// Per-rank result of [`cannon_a`].
#[derive(Debug, Clone)]
pub struct CannonOutput {
    /// This rank's `C` block (block `(i, j)` of the `q × q` partition).
    pub c_block: Matrix,
}

/// Extract the `(i, j)` blocks of `A` and `B` owned initially by rank
/// `(i, j)`.
fn owned_blocks(
    dims: MatMulDims,
    q: usize,
    i: usize,
    j: usize,
    a: &Matrix,
    b: &Matrix,
) -> (Matrix, Matrix) {
    let (n1, n2, n3) = (dims.n1 as usize, dims.n2 as usize, dims.n3 as usize);
    let ra = block_range(n1, q, i);
    let ca = block_range(n2, q, j);
    let rb = block_range(n2, q, i);
    let cb = block_range(n3, q, j);
    (a.sub(ra.start, ca.start, ra.len(), ca.len()), b.sub(rb.start, cb.start, rb.len(), cb.len()))
}

/// Run Cannon's algorithm. `a`/`b` are the global inputs, read only for
/// this rank's owned blocks.
pub async fn cannon_a(rank: &mut Rank, cfg: &CannonConfig, a: &Matrix, b: &Matrix) -> CannonOutput {
    let q = cfg.q;
    assert_eq!(rank.world_size(), q * q, "world size must be q²");
    let world = rank.world_comm();
    cannon_on_a(rank, &world, cfg, a, b).await.expect("a q² world has no idle ranks")
}

/// Run Cannon's algorithm on communicator `base` instead of the world
/// (recovery runs use a survivor communicator). The first `q²` members
/// are active; later members participate in the two splits with a
/// negative color and return `None`.
pub async fn cannon_on_a(
    rank: &mut Rank,
    base: &Comm,
    cfg: &CannonConfig,
    a: &Matrix,
    b: &Matrix,
) -> Option<CannonOutput> {
    let q = cfg.q;
    assert!(base.size() >= q * q, "communicator too small for a q × q torus");
    let dims = cfg.dims;
    let (n1, n3) = (dims.n1 as usize, dims.n3 as usize);
    let me = base.index();
    if me >= q * q {
        // Idle member: opt out of both splits (MPI_UNDEFINED) and hold
        // no block.
        let none = rank.split_a(base, -1, me as i64).await;
        debug_assert!(none.is_none());
        let none = rank.split_a(base, -1, me as i64).await;
        debug_assert!(none.is_none());
        return None;
    }
    let (i, j) = (me / q, me % q);

    let row = rank.split_a(base, i as i64, j as i64).await.expect("row comm");
    let col = rank.split_a(base, (q + j) as i64, i as i64).await.expect("col comm");
    debug_assert_eq!(row.size(), q);
    debug_assert_eq!(col.size(), q);

    let (mut a_cur, mut b_cur) = owned_blocks(dims, q, i, j, a, b);
    rank.mem_acquire((a_cur.words() + b_cur.words()) as u64);

    let my_rows = block_range(n1, q, i).len();
    let my_cols = block_range(n3, q, j).len();
    let inner_len = |idx: usize| block_range(dims.n2 as usize, q, idx).len();
    let mut c = Matrix::zeros(my_rows, my_cols);
    rank.mem_acquire(c.words() as u64);

    // The inner-dimension block index this rank holds after the skew
    // (tracked explicitly so shapes are well-defined even for empty
    // blocks). The skew leaves rank (i, j) holding block (i + j) mod q —
    // with i == 0 that is its own block and no data moves.
    let mut inner = (i + j) % q;

    // Initial skew (only when it moves data).
    pmm_simnet::phase!(rank, "skew", {
        if q > 1 && i > 0 {
            let to = (j + q - i) % q;
            let from = (j + i) % q;
            let msg = rank.exchange_a(&row, to, from, a_cur.as_slice()).await;
            a_cur = Matrix::from_vec(my_rows, inner_len(inner), msg.payload);
        }
        if q > 1 && j > 0 {
            let to = (i + q - j) % q;
            let from = (i + j) % q;
            let msg = rank.exchange_a(&col, to, from, b_cur.as_slice()).await;
            b_cur = Matrix::from_vec(inner_len(inner), my_cols, msg.payload);
        }
    });

    for t in 0..q {
        assert_eq!(a_cur.cols(), b_cur.rows(), "inner blocks misaligned at step {t}");
        pmm_simnet::phase!(rank, "local multiply", {
            gemm_acc(&mut c, &a_cur, &b_cur, cfg.kernel);
            rank.compute((a_cur.rows() * a_cur.cols() * b_cur.cols()) as f64);
        });
        if t + 1 < q {
            // Rotate A left by one, B up by one.
            pmm_simnet::phase!(rank, "rotate", {
                let next_inner = (inner + 1) % q;
                let msg =
                    rank.exchange_a(&row, (j + q - 1) % q, (j + 1) % q, a_cur.as_slice()).await;
                a_cur = Matrix::from_vec(my_rows, inner_len(next_inner), msg.payload);
                let msg =
                    rank.exchange_a(&col, (i + q - 1) % q, (i + 1) % q, b_cur.as_slice()).await;
                b_cur = Matrix::from_vec(inner_len(next_inner), my_cols, msg.payload);
                inner = next_inner;
            });
        }
    }

    Some(CannonOutput { c_block: c })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::assemble_from_blocks;
    use pmm_dense::{gemm, random_int_matrix};
    use pmm_simnet::{MachineParams, World};

    fn run(dims: MatMulDims, q: usize) -> (Matrix, pmm_simnet::WorldResult<CannonOutput>) {
        let cfg = CannonConfig { dims, q, kernel: Kernel::Naive };
        let out = World::new(q * q, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
            let a = random_int_matrix(dims.n1 as usize, dims.n2 as usize, -3..4, 5);
            let b = random_int_matrix(dims.n2 as usize, dims.n3 as usize, -3..4, 6);
            cannon_a(rank, &cfg, &a, &b).await
        });
        let c = assemble_from_blocks(dims.n1 as usize, dims.n3 as usize, q, q, |i, j| {
            out.values[i * q + j].c_block.clone()
        });
        (c, out)
    }

    fn reference(dims: MatMulDims) -> Matrix {
        let a = random_int_matrix(dims.n1 as usize, dims.n2 as usize, -3..4, 5);
        let b = random_int_matrix(dims.n2 as usize, dims.n3 as usize, -3..4, 6);
        gemm(&a, &b, Kernel::Naive)
    }

    #[test]
    fn correct_square_divisible() {
        let dims = MatMulDims::new(12, 12, 12);
        for q in [1usize, 2, 3, 4] {
            let (c, _) = run(dims, q);
            assert_eq!(c, reference(dims), "q={q}");
        }
    }

    #[test]
    fn correct_rectangular_and_uneven() {
        for dims in [MatMulDims::new(9, 6, 12), MatMulDims::new(7, 5, 11)] {
            for q in [2usize, 3] {
                let (c, _) = run(dims, q);
                assert_eq!(c, reference(dims), "{dims} q={q}");
            }
        }
    }

    #[test]
    fn single_rank_no_communication() {
        let dims = MatMulDims::new(5, 4, 3);
        let (c, out) = run(dims, 1);
        assert_eq!(c, reference(dims));
        assert_eq!(out.total_words_sent(), 0.0);
    }

    #[test]
    fn communication_volume_matches_closed_form() {
        // Divisible square case: each rank moves (q−1)(skews: ≤1 each) +
        // (q−1) rotations of one A and one B block; with the skew, ranks
        // with i>0, j>0 send exactly q·(|A|+|B|)/P − (blocks they keep).
        let n = 12u64;
        let q = 3usize;
        let dims = MatMulDims::square(n);
        let (_, out) = run(dims, q);
        let block = (n as usize / q) * (n as usize / q);
        // Rank (1,1): skew A (1) + skew B (1) + 2 rotations × 2 matrices.
        let m = &out.reports[q + 1].meter;
        assert_eq!(m.words_sent as usize, block * (2 + 2 * (q - 1)));
        // Rank (0,0) skips both skews.
        let m = &out.reports[0].meter;
        assert_eq!(m.words_sent as usize, block * (2 * (q - 1)));
    }

    #[test]
    fn loses_to_alg1_grid_on_tall_skinny() {
        // Paper's 1D case: Cannon's square grid forces communication of the
        // big matrix; Alg1 with the optimal 1D grid only moves nk words.
        use crate::grid3d::{alg1_a, Alg1Config};
        use pmm_core::gridopt::best_grid;
        use pmm_model::Grid3;

        let dims = MatMulDims::new(64, 16, 16); // m/n = 4 ⇒ P=4 is 1D case
        let q = 2usize; // P = 4
        let (_, cannon_out) = run(dims, q);

        let choice = best_grid(dims, 4);
        let grid = Grid3::from_dims(choice.grid);
        let cfg = Alg1Config::new(dims, grid);
        let alg1_out = World::new(4, MachineParams::BANDWIDTH_ONLY).run(async move |rank| {
            let a = random_int_matrix(64, 16, -3..4, 5);
            let b = random_int_matrix(16, 16, -3..4, 6);
            alg1_a(rank, &cfg, &a, &b).await
        });
        assert!(
            alg1_out.critical_path_time() < cannon_out.critical_path_time(),
            "Alg1 {} should beat Cannon {}",
            alg1_out.critical_path_time(),
            cannon_out.critical_path_time()
        );
    }
}
