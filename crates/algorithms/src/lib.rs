//! # pmm-algs — communication-optimal parallel matmul algorithms
//!
//! Executable, fully metered implementations of parallel matrix
//! multiplication on the simulated distributed machine
//! ([`pmm_simnet`]):
//!
//! * [`grid3d`] — **Algorithm 1** of the paper: two All-Gathers and one
//!   Reduce-Scatter on a `p1 × p2 × p3` logical grid. With the §5.2
//!   optimal grid it attains the Theorem 3 lower bound *exactly* —
//!   the tightness half of the paper — which the tests and the
//!   `tightness` experiment verify to the word. An ablation variant
//!   assembles `C` with All-to-All + local summation (the Agarwal et al.
//!   1995 style) instead of Reduce-Scatter.
//! * [`mod@cannon`] — Cannon's algorithm on a square `√P × √P` grid (classic
//!   2D baseline).
//! * [`mod@summa`] — SUMMA on a general `pr × pc` grid (the standard library
//!   algorithm baseline, broadcast-based).
//! * [`mod@twofived`] — the 2.5D algorithm of Solomonik & Demmel 2011 with
//!   replication factor `c` (memory-for-communication trade-off).
//! * [`recursive`] — closed-form communication cost of the CARMA-style
//!   recursive algorithm (Demmel et al. 2013), used as an analytic
//!   baseline in the comparison experiments.
//! * [`recovery`] — algorithm-agnostic checkpointed failure recovery
//!   ([`recovery::run_recoverable_a`]) wrapping all six executable
//!   algorithms: checkpoint ring, typed rank-failure detection, re-plan
//!   onto the survivors, redistribute, resume.
//!
//! Every executed algorithm consumes the *initial distribution* it
//! specifies (each rank extracts only its owned part of the input),
//! returns its owned part of `C`, and reports per-phase traffic meters.
//! Tests reassemble the distributed output and compare it bit-for-bit
//! against a serial reference on integer-valued inputs.

#![warn(missing_docs)]

pub mod cannon;
pub mod common;
pub mod grid3d;
pub mod recovery;
pub mod recursive;
pub mod streamed;
pub mod summa;
pub mod twofived;

pub use cannon::{cannon_a, cannon_on_a, CannonConfig, CannonOutput};
pub use common::{assemble_from_blocks, fiber_comms_a, fiber_comms_on_a, PhaseMeter, PhaseProbe};
pub use grid3d::{alg1_a, alg1_on_a, assemble_c, Alg1Config, Alg1Output, Assembly};
pub use recovery::{
    assemble_recovered, plan_for, run_recoverable_a, CShare, Recoverable, Recovered,
};
pub use recursive::{carma_a, carma_assemble_c, carma_cost_words, carma_shares};
pub use streamed::{alg1_streamed_a, alg1_streamed_on_a};
pub use summa::{near_square_factors, summa_a, summa_on_a, SummaConfig, SummaOutput};
pub use twofived::{twofived_a, twofived_on_a, TwoFiveDConfig, TwoFiveDOutput};
