//! Packed-panel GEMM with a register-tiled microkernel
//! ([`Kernel::Blocked`](crate::Kernel::Blocked)).
//!
//! Classic three-level blocking (the BLIS/GotoBLAS loop nest), in safe
//! Rust the autovectorizer handles well:
//!
//! * `jc` walks `NC`-column panels of `B`/`C`;
//! * `pc` walks `KC`-deep slabs of the contracted dimension — each slab
//!   of `B` is packed once into micro-panels of `NR` columns;
//! * `ic` walks `MC`-row panels of `A`/`C` — each panel of `A` is packed
//!   into micro-panels of `MR` rows;
//! * `jr`/`ir` walk the packed micro-panels and hand each `MR × NR`
//!   output tile to the microkernel, which keeps the whole tile in
//!   registers (4×16 = 8 zmm accumulators with AVX-512, 6×8 = 12 ymm
//!   with AVX2) and streams the packed panels with unit stride.
//!
//! Edge tiles are zero-padded at pack time, so the microkernel is the
//! only compute path; padded lanes are discarded at store time.
//!
//! **Bitwise contract** (shared with the naive oracle, see
//! [`kernels`](crate::kernels)): the microkernel loads the live `C` tile
//! into its accumulators before the `k` loop and stores it back after,
//! and the `pc` loop visits `k` slabs in increasing order — so each
//! output element sees exactly the same IEEE `mul`-then-`add` sequence,
//! in the same order, as the naive oracle.

use crate::kernels::madd;

/// Microkernel tile height (rows of `C` per register tile). With
/// AVX-512 a 4×16 tile keeps 8 zmm accumulators live — the measured
/// sweet spot on this class of core (wider tiles spill); narrower ISAs
/// get a 6×8 tile (12 ymm accumulators of 16, the classic f64 AVX2
/// shape).
#[cfg(target_feature = "avx512f")]
const MR: usize = 4;
#[cfg(not(target_feature = "avx512f"))]
const MR: usize = 6;
/// Microkernel tile width (columns of `C` per register tile): a small
/// multiple of the widest vector so the inner loop vectorizes cleanly.
#[cfg(target_feature = "avx512f")]
const NR: usize = 16;
#[cfg(not(target_feature = "avx512f"))]
const NR: usize = 8;
/// Rows of `A` packed per `ic` panel (sized so a packed `MC × KC` panel
/// of `A` sits in L2).
const MC: usize = 128;
/// Depth of the contracted-dimension slab packed per `pc` step.
const KC: usize = 512;
/// Columns of `B` packed per `jc` panel.
const NC: usize = 2048;

/// `C += A·B` on raw row-major slices: `c` is `m × n`, `a` is `m × k`,
/// `b` is `k × n`, all densely packed (row stride = column count).
///
/// This is the engine behind [`Kernel::Blocked`](crate::Kernel::Blocked).
pub(crate) fn gemm_blocked(c: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    debug_assert_eq!(c.len(), m * n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let kc_max = KC.min(k);
    let mc_max = MC.min(m);
    let nc_max = NC.min(n);
    let mut apack = vec![0.0f64; kc_max * mc_max.div_ceil(MR) * MR];
    let mut bpack = vec![0.0f64; kc_max * nc_max.div_ceil(NR) * NR];

    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(&mut bpack, b, n, pc, jc, kc, nc);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                pack_a(&mut apack, a, k, ic, pc, mc, kc);
                for jr in (0..nc).step_by(NR) {
                    let nr = NR.min(nc - jr);
                    let bp = &bpack[(jr / NR) * kc * NR..][..kc * NR];
                    for ir in (0..mc).step_by(MR) {
                        let mr = MR.min(mc - ir);
                        let ap = &apack[(ir / MR) * kc * MR..][..kc * MR];
                        // Load the live C tile (zero-padded lanes are
                        // discarded at store time).
                        let mut acc = [[0.0f64; NR]; MR];
                        for (r, accr) in acc.iter_mut().enumerate().take(mr) {
                            let row = &c[(ic + ir + r) * n + jc + jr..][..nr];
                            accr[..nr].copy_from_slice(row);
                        }
                        let acc = microkernel(kc, ap, bp, acc);
                        for (r, accr) in acc.iter().enumerate().take(mr) {
                            let row = &mut c[(ic + ir + r) * n + jc + jr..][..nr];
                            row.copy_from_slice(&accr[..nr]);
                        }
                    }
                }
            }
        }
    }
}

/// The register tile: `acc[r][c] += ap[·][r] · bp[·][c]` over `kc` steps.
/// Taking and returning `acc` by value keeps it in registers.
#[inline]
fn microkernel(kc: usize, ap: &[f64], bp: &[f64], mut acc: [[f64; NR]; MR]) -> [[f64; NR]; MR] {
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
        for r in 0..MR {
            let ar = av[r];
            for (accv, &bc) in acc[r].iter_mut().zip(bv) {
                *accv = madd(ar, bc, *accv);
            }
        }
    }
    acc
}

/// Pack the `mc × kc` block of `A` at `(ic, pc)` into micro-panels of
/// `MR` rows, k-major within each panel (`apack[q·kc·MR + l·MR + r]` =
/// `A[ic + q·MR + r][pc + l]`), zero-padding rows past `mc`.
fn pack_a(apack: &mut [f64], a: &[f64], k: usize, ic: usize, pc: usize, mc: usize, kc: usize) {
    for q in 0..mc.div_ceil(MR) {
        let panel = &mut apack[q * kc * MR..][..kc * MR];
        let rows = MR.min(mc - q * MR);
        for r in 0..MR {
            if r < rows {
                let arow = &a[(ic + q * MR + r) * k + pc..][..kc];
                for (l, &v) in arow.iter().enumerate() {
                    panel[l * MR + r] = v;
                }
            } else {
                for l in 0..kc {
                    panel[l * MR + r] = 0.0;
                }
            }
        }
    }
}

/// Pack the `kc × nc` block of `B` at `(pc, jc)` into micro-panels of
/// `NR` columns (`bpack[q·kc·NR + l·NR + c]` = `B[pc + l][jc + q·NR + c]`),
/// zero-padding columns past `nc`.
fn pack_b(bpack: &mut [f64], b: &[f64], n: usize, pc: usize, jc: usize, kc: usize, nc: usize) {
    for q in 0..nc.div_ceil(NR) {
        let panel = &mut bpack[q * kc * NR..][..kc * NR];
        let cols = NR.min(nc - q * NR);
        for l in 0..kc {
            let brow = &b[(pc + l) * n + jc + q * NR..][..cols];
            let dst = &mut panel[l * NR..][..NR];
            dst[..cols].copy_from_slice(brow);
            for d in dst.iter_mut().skip(cols) {
                *d = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_matrix;
    use crate::matrix::Matrix;

    /// Direct strided oracle for the raw-slice entry point.
    fn oracle(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for l in 0..a.cols() {
                let ail = a[(i, l)];
                for j in 0..b.cols() {
                    c[(i, j)] = madd(ail, b[(l, j)], c[(i, j)]);
                }
            }
        }
        c
    }

    #[test]
    fn matches_oracle_bitwise_across_edge_shapes() {
        // Shapes straddling every blocking boundary: MR/NR edges, exact
        // multiples, single rows/cols, and > KC depth.
        for (m, k, n) in [
            (1usize, 1usize, 1usize),
            (4, 8, 8),
            (5, 9, 7),
            (128, 256, 8),
            (129, 257, 9),
            (3, 300, 11),
            (131, 2, 259),
        ] {
            let a = random_matrix(m, k, 11);
            let b = random_matrix(k, n, 13);
            let want = oracle(&a, &b);
            let mut c = Matrix::zeros(m, n);
            gemm_blocked(c.as_mut_slice(), a.as_slice(), b.as_slice(), m, k, n);
            assert_eq!(c, want, "blocked diverges for {m}x{k}x{n}");
        }
    }

    #[test]
    fn accumulates_into_live_c() {
        let (m, k, n) = (37, 65, 33);
        let a = random_matrix(m, k, 1);
        let b = random_matrix(k, n, 2);
        let mut c = random_matrix(m, n, 3);
        let mut want = c.clone();
        for i in 0..m {
            for l in 0..k {
                let ail = a[(i, l)];
                for j in 0..n {
                    want[(i, j)] = madd(ail, b[(l, j)], want[(i, j)]);
                }
            }
        }
        gemm_blocked(c.as_mut_slice(), a.as_slice(), b.as_slice(), m, k, n);
        assert_eq!(c, want);
    }
}
