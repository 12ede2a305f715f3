//! Property-based tests for the dense substrate: exact algebraic
//! identities on integer-valued matrices (f64 arithmetic on small
//! integers is exact, so all assertions are bitwise).

use pmm_dense::{block_range, gemm, gemm_acc, identity, random_int_matrix, Block2, Kernel, Matrix};
use proptest::prelude::*;

fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..40, 1usize..40, 1usize..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernels_agree((m, k, n) in dims(), seed in 0u64..1000) {
        let a = random_int_matrix(m, k, -3..4, seed);
        let b = random_int_matrix(k, n, -3..4, seed + 1);
        let naive = gemm(&a, &b, Kernel::Naive);
        for kernel in Kernel::ALL {
            prop_assert_eq!(&naive, &gemm(&a, &b, kernel));
        }
    }

    #[test]
    fn identity_is_neutral((m, _k, n) in dims(), seed in 0u64..1000) {
        let a = random_int_matrix(m, n, -5..6, seed);
        prop_assert_eq!(&gemm(&a, &identity(n), Kernel::Naive), &a);
        prop_assert_eq!(&gemm(&identity(m), &a, Kernel::Naive), &a);
    }

    #[test]
    fn multiplication_distributes((m, k, n) in dims(), seed in 0u64..1000) {
        // A·(B + C) == A·B + A·C, exactly, on integer matrices.
        let a = random_int_matrix(m, k, -3..4, seed);
        let b = random_int_matrix(k, n, -3..4, seed + 1);
        let c = random_int_matrix(k, n, -3..4, seed + 2);
        let bc = Matrix::from_fn(k, n, |r, q| b[(r, q)] + c[(r, q)]);
        let left = gemm(&a, &bc, Kernel::Naive);
        let mut right = gemm(&a, &b, Kernel::Naive);
        let ac = gemm(&a, &c, Kernel::Naive);
        for (x, y) in right.as_mut_slice().iter_mut().zip(ac.as_slice()) {
            *x += y;
        }
        prop_assert_eq!(left, right);
    }

    #[test]
    fn multiplication_is_associative(
        (m, k, n) in (1usize..12, 1usize..12, 1usize..12),
        l in 1usize..12,
        seed in 0u64..1000,
    ) {
        // (A·B)·C == A·(B·C) — exact for small integer entries.
        let a = random_int_matrix(m, k, -2..3, seed);
        let b = random_int_matrix(k, n, -2..3, seed + 1);
        let c = random_int_matrix(n, l, -2..3, seed + 2);
        let left = gemm(&gemm(&a, &b, Kernel::Naive), &c, Kernel::Naive);
        let right = gemm(&a, &gemm(&b, &c, Kernel::Naive), Kernel::Naive);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn transpose_reverses_products((m, k, n) in (1usize..15, 1usize..15, 1usize..15), seed in 0u64..1000) {
        // (A·B)ᵀ == Bᵀ·Aᵀ.
        let a = random_int_matrix(m, k, -3..4, seed);
        let b = random_int_matrix(k, n, -3..4, seed + 1);
        let left = gemm(&a, &b, Kernel::Naive).transpose();
        let right = gemm(&b.transpose(), &a.transpose(), Kernel::Naive);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn gemm_acc_equals_gemm_plus_initial((m, k, n) in dims(), seed in 0u64..1000) {
        let a = random_int_matrix(m, k, -3..4, seed);
        let b = random_int_matrix(k, n, -3..4, seed + 1);
        let init = random_int_matrix(m, n, -9..10, seed + 2);
        let mut acc = init.clone();
        gemm_acc(&mut acc, &a, &b, Kernel::Naive);
        let prod = gemm(&a, &b, Kernel::Naive);
        let want = Matrix::from_fn(m, n, |r, q| init[(r, q)] + prod[(r, q)]);
        prop_assert_eq!(acc, want);
    }

    #[test]
    fn blocks_reassemble_exactly(
        rows in 1usize..30, cols in 1usize..30,
        pr in 1usize..6, pc in 1usize..6,
        seed in 0u64..1000,
    ) {
        let m = random_int_matrix(rows, cols, -9..10, seed);
        let mut re = Matrix::zeros(rows, cols);
        for i in 0..pr {
            for j in 0..pc {
                let blk = Block2::of(rows, cols, pr, pc, i, j);
                let sub = blk.extract(&m);
                blk.insert(&mut re, &sub);
            }
        }
        prop_assert_eq!(re, m);
    }

    #[test]
    fn block_ranges_are_balanced(n in 0usize..500, parts in 1usize..20) {
        let lens: Vec<usize> = (0..parts).map(|i| block_range(n, parts, i).len()).collect();
        let min = *lens.iter().min().unwrap();
        let max = *lens.iter().max().unwrap();
        prop_assert!(max - min <= 1, "uneven split: {lens:?}");
        prop_assert_eq!(lens.iter().sum::<usize>(), n);
    }

    #[test]
    fn sub_matches_direct_indexing(
        rows in 1usize..20, cols in 1usize..20, seed in 0u64..1000,
    ) {
        let m = random_int_matrix(rows, cols, -9..10, seed);
        let r0 = seed as usize % rows;
        let c0 = (seed as usize / 7) % cols;
        let h = rows - r0;
        let w = cols - c0;
        let s = m.sub(r0, c0, h, w);
        for r in 0..h {
            for c in 0..w {
                prop_assert_eq!(s[(r, c)], m[(r0 + r, c0 + c)]);
            }
        }
    }
}

// ---- kernel bitwise equivalence ----------------------------------------
//
// Every kernel must produce the *bitwise identical* product to the naive
// oracle on real floating-point data: both kernels accumulate each C[i][j]
// over k in increasing order through the shared fused-multiply-add
// helper, so reassociation never occurs and f64 equality is exact — not
// merely within tolerance (see docs/PERFORMANCE.md).

use pmm_dense::random_matrix;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_tier_is_bitwise_identical_on_float_data(
        (m, k, n) in (1usize..48, 1usize..48, 1usize..48),
        seed in 0u64..1000,
    ) {
        let a = random_matrix(m, k, seed);
        let b = random_matrix(k, n, seed + 1);
        let oracle = gemm(&a, &b, Kernel::Naive);
        for kernel in Kernel::ALL {
            prop_assert_eq!(&oracle, &gemm(&a, &b, kernel), "tier {} diverged", kernel);
        }
    }

    #[test]
    fn every_tier_is_bitwise_identical_on_degenerate_shapes(
        sel in 0usize..4,
        x in 1usize..80,
        y in 1usize..80,
        seed in 0u64..1000,
    ) {
        // Row vectors, column outputs, outer products, and odd sizes
        // crossing the blocked kernel's microtile edges — the shapes
        // where packing/edge-case code earns its keep.
        let (m, k, n) = match sel {
            0 => (1, x, y),          // (1×k)·(k×n)
            1 => (x, y, 1),          // (m×k)·(k×1)
            2 => (x, 1, y),          // outer product
            _ => (x + 32, y + 32, 65), // odd, larger than one microtile
        };
        let a = random_matrix(m, k, seed);
        let b = random_matrix(k, n, seed + 1);
        let oracle = gemm(&a, &b, Kernel::Naive);
        for kernel in Kernel::ALL {
            prop_assert_eq!(&oracle, &gemm(&a, &b, kernel), "tier {} diverged", kernel);
        }
    }

    #[test]
    fn every_tier_accumulates_identically(
        (m, k, n) in (1usize..32, 1usize..32, 1usize..32),
        seed in 0u64..1000,
    ) {
        // gemm_acc must add the identical product into C for every tier.
        let a = random_matrix(m, k, seed);
        let b = random_matrix(k, n, seed + 1);
        let init = random_matrix(m, n, seed + 2);
        let mut oracle = init.clone();
        gemm_acc(&mut oracle, &a, &b, Kernel::Naive);
        for kernel in Kernel::ALL {
            let mut acc = init.clone();
            gemm_acc(&mut acc, &a, &b, kernel);
            prop_assert_eq!(&oracle, &acc, "tier {} diverged in gemm_acc", kernel);
        }
    }
}

#[test]
fn every_tier_handles_empty_matrices() {
    // 0×n, n×0, and inner-dimension-0 products are all defined (an empty
    // or all-zero result) and must not panic in any tier.
    for (m, k, n) in [(0usize, 5usize, 5usize), (5, 0, 5), (5, 5, 0), (0, 0, 0)] {
        let a = random_matrix(m, k, 1);
        let b = random_matrix(k, n, 2);
        let oracle = gemm(&a, &b, Kernel::Naive);
        assert_eq!((oracle.rows(), oracle.cols()), (m, n));
        for kernel in Kernel::ALL {
            assert_eq!(oracle, gemm(&a, &b, kernel), "tier {kernel} diverged on empty shape");
        }
    }
}
