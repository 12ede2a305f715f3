//! End-to-end and per-layer benchmark of the pmm workspace.
//!
//! Four workloads, each loading a different layer of the stack (see
//! `README.md` for why each was chosen and which metric each layer
//! should move):
//!
//! * `alg1-many-ranks` — Algorithm 1 at P = 4096 (per-message host cost);
//! * `alg1-big-blocks` — Algorithm 1 at P = 8 on 1536³ (kernel, copies);
//! * `dpor-alg1` — sleep-set schedule exploration of a 4-rank Algorithm 1;
//! * `advisor-serve` — the advisor service over loopback TCP.
//!
//! Every operation's output is checked; the traced run times each
//! layer's public functions from this crate, on the workload's shapes.

pub mod alg1;
pub mod common;
pub mod dpor;
pub mod layers;
pub mod serve;

pub use common::{Opts, Outcome};

/// The workloads, by the names `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 4] =
    ["alg1-many-ranks", "alg1-big-blocks", "dpor-alg1", "advisor-serve"];

/// Run workload `name`; `None` if there is no such workload.
pub fn run(name: &str, opts: &Opts) -> Option<Outcome> {
    Some(match name {
        "alg1-many-ranks" => alg1::run(alg1::Which::ManyRanks, opts),
        "alg1-big-blocks" => alg1::run(alg1::Which::BigBlocks, opts),
        "dpor-alg1" => dpor::run(opts),
        "advisor-serve" => serve::run(opts),
        _ => return None,
    })
}
