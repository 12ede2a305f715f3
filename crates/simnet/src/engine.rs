//! Names kept only for the benchmark in `perfbench/`.
//!
//! Every world runs on the one engine, the event loop of
//! [`World::run`]. The benchmark's sources are frozen between benchmark
//! changes, and they still name an engine choice, a watchdog switch, and
//! the boxing-closure runner. The items here keep those calls compiling
//! and forward them to the single engine; delete them together with the
//! next change to the benchmark.

use crate::rank::Rank;
use crate::world::{World, WorldResult};
use crate::LocalBoxFuture;

/// The execution engine. There is one: the single-threaded
/// deterministic event loop over rank continuations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Single-threaded deterministic event loop (the only engine).
    EventLoop,
}

impl World {
    /// No-op: the event loop is the only engine.
    #[must_use]
    pub fn with_engine(self, _engine: Engine) -> World {
        self
    }

    /// No-op: deadlocks are found by the scheduler at pick time, with no
    /// watchdog to turn off.
    #[must_use]
    pub fn without_watchdog(self) -> World {
        self
    }

    /// [`World::run`] for a boxing closure:
    /// `world.run_async(|rank| Box::pin(async move { ... }))`.
    pub fn run_async<T, F>(&self, program: F) -> WorldResult<T>
    where
        F: for<'a> Fn(&'a mut Rank) -> LocalBoxFuture<'a, T>,
    {
        self.run(async |rank| program(rank).await)
    }
}
