//! `felip-sync`: the workspace's synchronization layer — `std::sync` shims
//! that double as a deterministic concurrency model checker.
//!
//! Every crate that does real concurrency (today: `felip-server`) imports
//! `Mutex`, `Condvar`, `RwLock`, atomics, and `thread` from here instead of
//! `std` (enforced by `cargo run -p xtask -- analyze`). In a normal build the
//! types are zero-cost `#[inline]` wrappers over `std::sync` — same
//! codegen, same semantics, minus lock poisoning (a poisoned lock yields
//! its data; the panic that poisoned it is already propagating).
//!
//! With `--features model`, code executed inside [`model::check`] runs
//! under a controlled scheduler instead: every synchronization point
//! (lock acquire, condvar wait/notify, atomic access, spawn/join,
//! sleep/yield) becomes an interleaving decision, and the checker
//! explores *all* schedules up to a preemption bound via depth-first
//! search with sleep-set pruning. A failing schedule is reported as a
//! printable token string that [`model::replay`] re-executes exactly —
//! deterministic reproduction of a concurrency bug, not a lucky seed.
//! Outside a `model::check` run the same build falls back to `std`
//! behaviour, so one `cargo test --features model` invocation runs both
//! the model suite and the ordinary tests.
//!
//! Design notes live in DESIGN.md §14: scheduler architecture, the
//! preemption bound, voluntary-yield semantics for spin loops, timeout
//! modelling (a timed wait only fires when nothing else can run), and
//! the replay-token format.

#![warn(missing_docs)]

pub use std::sync::Arc;

#[cfg(not(feature = "model"))]
mod passthrough;
#[cfg(not(feature = "model"))]
pub use passthrough::{
    atomic, thread, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
    WaitTimeoutResult,
};

#[cfg(feature = "model")]
mod modeled;
#[cfg(feature = "model")]
mod sched;
#[cfg(feature = "model")]
pub use modeled::{
    atomic, thread, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
    WaitTimeoutResult,
};

/// The model-checking entry points ([`model::check`], [`model::replay`]).
/// Only present with `--features model`.
#[cfg(feature = "model")]
pub mod model {
    pub use crate::sched::{check, check_with, replay, Config, Stats, Violation};
}
