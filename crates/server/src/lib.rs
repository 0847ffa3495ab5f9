//! `felip-server`: the streaming report-ingestion service (DESIGN.md §12).
//!
//! Turns the offline FELIP pipeline into a long-running network service:
//! clients perturb locally and stream [`felip::client::UserReport`] batches
//! over a checksummed binary [`wire`] protocol; a fixed pool of ingest
//! workers folds them into shard [`felip::aggregator::Aggregator`]s behind
//! bounded, backpressured [`queue`]s; and [`snapshot`]s make the
//! aggregator's exact `u64` state durable across restarts — a killed and
//! resumed server produces estimates bit-identical to one that never
//! stopped.
//!
//! The server's protocol logic is transport-agnostic: connections speak
//! through the [`transport::Transport`] trait and all per-connection
//! decisions live in the `session` state machine, so the deterministic
//! [`simharness`] can drive the *same* code over an in-memory transport
//! on a virtual clock, injecting seeded [`fault`]s (drops, corruption,
//! resets, torn snapshot writes) and asserting the
//! exactly-once-or-rejected invariant for every seed. Real sockets are
//! served by the one loop in [`serve`], which the cluster aggregator runs
//! on too, with its own frame handler.
//!
//! The crate follows the workspace's vendored-only policy: it depends on
//! nothing outside the workspace (`std::net` sockets, `std::thread`
//! scoped workers, hand-rolled CRC-32).

#![warn(missing_docs)]

pub mod client;
pub mod fault;
pub mod loadgen;
#[cfg(all(test, feature = "model"))]
mod model_tests;
pub mod query;
pub mod queue;
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod reactor;
pub mod serve;
pub mod server;
mod session;
pub mod signal;
pub mod simharness;
pub mod snapshot;
pub mod stat;
pub mod transport;
pub mod wire;

pub use client::{BatchReply, Client, PipelinedClient, PumpStats, RetryPolicy};
pub use fault::{FaultConfig, FaultKind, FaultSchedule};
pub use query::{CutSource, QueryService};
pub use server::{CutHook, CutState, Server, ServerConfig, ServerError, ServerRun, ServerStats};
pub use simharness::{SimConfig, SimReport, SimTransport};
pub use snapshot::Snapshot;
pub use transport::{RecvOutcome, TcpTransport, Transport};
pub use wire::{Frame, FrameKind, QueryAnswer, QueryMode, QueryRequest, WireError};
