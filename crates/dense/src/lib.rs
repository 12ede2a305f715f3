//! # pmm-dense — dense matrix substrate
//!
//! Row-major `f64` matrices, block partitioning, and local matmul kernels:
//! the "γ side" of the α-β-γ model. Every parallel algorithm in
//! `pmm-algs` stores its local blocks as [`Matrix`] values, extracts and
//! inserts sub-blocks with the [`partition`] helpers, and multiplies them
//! with a [`kernels`] kernel.
//!
//! Two kernels, selected by [`Kernel`] (or the `PMM_KERNEL` environment
//! variable via [`kernel_from_env`]): the pinned naive oracle and a
//! packed-panel register-tiled microkernel GEMM, plus an `Auto` selector
//! that picks between them by problem volume. Both accumulate each output
//! element over the contracted index in the same order, so their products
//! are **bitwise identical** — kernel choice can never alter a simulated
//! run's verified product, meters, or traces. Measured GFLOP/s per kernel
//! and the fitted γ live in `BENCH_kernels.json` (see
//! `docs/PERFORMANCE.md`).

#![warn(missing_docs)]

mod blocked;

pub mod gen;
pub mod kernels;
pub mod matrix;
pub mod partition;

pub use gen::{constant_matrix, identity, random_int_matrix, random_matrix};
pub use kernels::{gemm, gemm_acc, kernel_from_env, Kernel, KERNEL_ENV};
pub use matrix::Matrix;
pub use partition::{block_len, block_range, chunk_of_block, Block2};
