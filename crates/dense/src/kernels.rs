//! Local matmul kernels: the oracle and the fast path.
//!
//! These perform the per-processor computation of every parallel algorithm
//! (line 6 of Algorithm 1). Two kernels, plus a selector:
//!
//! * [`Kernel::Naive`] — textbook `i-k-j` triple loop (the `k` middle loop
//!   keeps the inner loop streaming over contiguous rows of `B` and `C`).
//!   This is the **pinned oracle**: the fast kernel must produce a
//!   bitwise-identical product (see below).
//! * [`Kernel::Blocked`] — packed-panel GEMM with a register-tiled,
//!   autovectorizable microkernel (BLIS-style `jc`/`pc`/`ic`/`jr`/`ir`
//!   loop nest in the `blocked` module). The fast kernel.
//! * [`Kernel::Auto`] — runtime selection by problem volume: `Naive` for
//!   tiny products, `Blocked` from [`AUTO_BLOCKED_MIN_FLOPS`] up.
//!
//! # Bitwise identity across kernels
//!
//! Both kernels accumulate each output element `C[i][j]` over the
//! contracted index `k` in **strictly increasing order**, one
//! multiply-add per term, with no private re-associated partial sums
//! (the blocked microkernel loads the live `C` tile into its accumulator
//! registers before the `k` loop and stores it back after). IEEE-754
//! arithmetic is deterministic, so every [`Kernel`] produces
//! **bitwise-identical** products for arbitrary `f64` inputs — not merely
//! for the exact integer matrices used by the conformance tests.
//! `tests/proptests.rs` pins this on fractional inputs and the
//! kernel-invariance suite pins that kernel choice never alters simulator
//! meters or traces.
//!
//! # Selecting a kernel
//!
//! Algorithm configs carry a `Kernel`; the CLI resolves the default from
//! the [`KERNEL_ENV`] (`PMM_KERNEL`) environment variable via
//! [`kernel_from_env`].
//!
//! ```
//! use pmm_dense::{gemm, random_matrix, Kernel};
//!
//! let a = random_matrix(33, 65, 1); // fractional entries
//! let b = random_matrix(65, 17, 2);
//! let oracle = gemm(&a, &b, Kernel::Naive);
//! for kernel in Kernel::ALL {
//!     assert_eq!(gemm(&a, &b, kernel), oracle); // bitwise, not approximate
//! }
//! assert_eq!("blocked".parse::<Kernel>(), Ok(Kernel::Blocked));
//! assert_eq!(Kernel::Auto.to_string(), "auto");
//! ```

use std::fmt;
use std::str::FromStr;

use crate::blocked::gemm_blocked;
use crate::matrix::Matrix;

/// [`Kernel::Auto`] switches from `Naive` to `Blocked` (which pays two
/// pack-buffer allocations per call) at this many multiply-adds
/// (`m·k·n`).
pub const AUTO_BLOCKED_MIN_FLOPS: usize = 32 * 32 * 32;

/// Environment variable selecting the default kernel
/// (`naive | blocked | auto`), consulted by [`kernel_from_env`]. An
/// explicit `Kernel` in an algorithm config always wins.
pub const KERNEL_ENV: &str = "PMM_KERNEL";

/// The one multiply-add both kernels use per accumulated term. On
/// targets with hardware FMA it compiles to a single fused `vfmadd` (one
/// rounding); elsewhere it is a plain IEEE `mul`-then-`add` (two
/// roundings) — `f64::mul_add` without hardware support would fall back
/// to a slow soft-float routine, so the `cfg!` (resolved at compile time)
/// keeps that path out. Because both kernels funnel through this helper,
/// products stay bitwise identical across kernels on *any* build; the
/// exact bits depend on the build target's FMA capability.
#[inline(always)]
pub(crate) fn madd(a: f64, b: f64, c: f64) -> f64 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// Kernel selector. See the [module docs](self) for the guarantees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Kernel {
    /// Triple loop, `i-k-j` order — the pinned oracle.
    Naive,
    /// Packed-panel microkernel GEMM (the fast kernel).
    Blocked,
    /// Pick `Naive` or `Blocked` from the problem volume at run time.
    #[default]
    Auto,
}

impl Kernel {
    /// Every selectable kernel, oracle first (handy for sweeps and
    /// conformance loops).
    pub const ALL: [Kernel; 3] = [Kernel::Naive, Kernel::Blocked, Kernel::Auto];

    /// The concrete kernel `Auto` resolves to for an `m·k·n`-flop
    /// product.
    pub fn resolve(self, m: usize, k: usize, n: usize) -> Kernel {
        match self {
            Kernel::Auto => {
                let flops = m.saturating_mul(k).saturating_mul(n);
                if flops < AUTO_BLOCKED_MIN_FLOPS {
                    Kernel::Naive
                } else {
                    Kernel::Blocked
                }
            }
            other => other,
        }
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Kernel::Naive => "naive",
            Kernel::Blocked => "blocked",
            Kernel::Auto => "auto",
        })
    }
}

impl FromStr for Kernel {
    type Err = String;

    fn from_str(s: &str) -> Result<Kernel, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "naive" => Ok(Kernel::Naive),
            "blocked" => Ok(Kernel::Blocked),
            "auto" => Ok(Kernel::Auto),
            other => {
                Err(format!("unrecognized kernel {other:?}: expected one of naive|blocked|auto"))
            }
        }
    }
}

/// Resolve the kernel from [`KERNEL_ENV`]: `default` when the variable
/// is unset, the parsed kernel when it names one, and an error naming
/// the accepted values otherwise (a typo must not silently fall back).
pub fn kernel_from_env(default: Kernel) -> Result<Kernel, String> {
    match std::env::var(KERNEL_ENV) {
        Ok(s) => s.parse().map_err(|e| format!("{KERNEL_ENV}: {e}")),
        Err(std::env::VarError::NotPresent) => Ok(default),
        Err(e) => Err(format!("{KERNEL_ENV}: {e}")),
    }
}

/// `C = A·B` (allocates the result).
pub fn gemm(a: &Matrix, b: &Matrix, kernel: Kernel) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm_acc(&mut c, a, b, kernel);
    c
}

/// `C += A·B`.
///
/// Panics if shapes are incompatible.
pub fn gemm_acc(c: &mut Matrix, a: &Matrix, b: &Matrix, kernel: Kernel) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions disagree");
    assert_eq!(c.rows(), a.rows(), "C rows disagree");
    assert_eq!(c.cols(), b.cols(), "C cols disagree");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    match kernel.resolve(m, k, n) {
        Kernel::Naive | Kernel::Auto => naive(c, a, b),
        Kernel::Blocked => gemm_blocked(c.as_mut_slice(), a.as_slice(), b.as_slice(), m, k, n),
    }
}

fn naive(c: &mut Matrix, a: &Matrix, b: &Matrix) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    for i in 0..m {
        for l in 0..k {
            let aik = a[(i, l)];
            let brow = b.row(l);
            let crow = c.row_mut(i);
            for j in 0..n {
                crow[j] = madd(aik, brow[j], crow[j]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_int_matrix, random_matrix};

    fn reference(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            (0..a.cols()).map(|l| a[(i, l)] * b[(l, j)]).sum()
        })
    }

    #[test]
    fn tiny_known_product() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = gemm(&a, &b, Kernel::Naive);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn kernels_agree_with_reference_on_integer_matrices() {
        // Integer-valued entries ⇒ exact f64 arithmetic ⇒ strict equality.
        for (m, k, n, seed) in
            [(5usize, 7usize, 3usize, 1u64), (64, 64, 64, 2), (65, 130, 67, 3), (1, 100, 1, 4)]
        {
            let a = random_int_matrix(m, k, -4..5, seed);
            let b = random_int_matrix(k, n, -4..5, seed + 100);
            let want = reference(&a, &b);
            for kern in Kernel::ALL {
                let got = gemm(&a, &b, kern);
                assert_eq!(got, want, "{kern:?} disagrees for {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn all_tiers_bitwise_identical_on_fractional_matrices() {
        // The stronger guarantee: identical accumulation order makes the
        // kernels agree bitwise even where f64 arithmetic rounds.
        for (m, k, n, seed) in [
            (130usize, 257usize, 129usize, 1u64),
            (97, 301, 64, 2),
            (1, 500, 9, 3),
            (260, 3, 260, 4),
        ] {
            let a = random_matrix(m, k, seed);
            let b = random_matrix(k, n, seed + 100);
            let oracle = gemm(&a, &b, Kernel::Naive);
            for kern in Kernel::ALL {
                let got = gemm(&a, &b, kern);
                assert_eq!(got, oracle, "{kern:?} not bitwise for {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn gemm_acc_accumulates() {
        let a = random_int_matrix(10, 10, 0..3, 7);
        let b = random_int_matrix(10, 10, 0..3, 8);
        let mut c = Matrix::from_fn(10, 10, |_, _| 1.0);
        gemm_acc(&mut c, &a, &b, Kernel::Naive);
        let mut want = reference(&a, &b);
        for x in want.as_mut_slice() {
            *x += 1.0;
        }
        assert_eq!(c, want);
    }

    #[test]
    fn gemm_acc_starts_from_live_c_in_every_tier() {
        // The blocked microkernel must load the live C tile before its k
        // loop — seed C with fractional values so a kernel that zeroes or
        // re-associates would diverge bitwise.
        let a = random_matrix(150, 70, 1);
        let b = random_matrix(70, 140, 2);
        let init = random_matrix(150, 140, 3);
        let mut oracle = init.clone();
        gemm_acc(&mut oracle, &a, &b, Kernel::Naive);
        for kern in Kernel::ALL {
            let mut c = init.clone();
            gemm_acc(&mut c, &a, &b, kern);
            assert_eq!(c, oracle, "{kern:?} diverges when accumulating into live C");
        }
    }

    #[test]
    fn degenerate_shapes() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        for kern in Kernel::ALL {
            let c = gemm(&a, &b, kern);
            assert_eq!((c.rows(), c.cols()), (0, 3));
        }

        let a = Matrix::from_vec(1, 1, vec![3.0]);
        let b = Matrix::from_vec(1, 1, vec![4.0]);
        for kern in Kernel::ALL {
            assert_eq!(gemm(&a, &b, kern).as_slice(), &[12.0]);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_panics() {
        gemm(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2), Kernel::Naive);
    }

    #[test]
    fn display_from_str_round_trip() {
        for kern in Kernel::ALL {
            assert_eq!(kern.to_string().parse::<Kernel>(), Ok(kern));
        }
        assert!("fused".parse::<Kernel>().is_err());
    }

    #[test]
    fn auto_resolves_by_volume() {
        assert_eq!(Kernel::Auto.resolve(8, 8, 8), Kernel::Naive);
        assert_eq!(Kernel::Auto.resolve(31, 31, 31), Kernel::Naive);
        assert_eq!(Kernel::Auto.resolve(32, 32, 32), Kernel::Blocked);
        assert_eq!(Kernel::Auto.resolve(64, 64, 64), Kernel::Blocked);
        assert_eq!(Kernel::Auto.resolve(512, 512, 512), Kernel::Blocked);
        // Concrete kernels resolve to themselves.
        assert_eq!(Kernel::Naive.resolve(512, 512, 512), Kernel::Naive);
    }

    #[test]
    fn env_selection_parses_all_names() {
        // `kernel_from_env` itself reads the process environment (covered
        // by the CLI tests); here pin the parser it relies on.
        for (name, want) in
            [("naive", Kernel::Naive), ("BLOCKED", Kernel::Blocked), (" auto ", Kernel::Auto)]
        {
            assert_eq!(name.parse::<Kernel>(), Ok(want));
        }
        // Retired tiers and aliases are errors, not a silent fallback.
        for name in ["tiled", "recursive", "parallel", "rayon", "micro", ""] {
            let e = name.parse::<Kernel>().expect_err(name);
            assert!(e.contains("naive|blocked|auto"), "{e}");
        }
    }
}
