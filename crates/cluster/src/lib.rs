//! `felip-cluster`: two-tier distributed ingestion (DESIGN.md §16).
//!
//! N ingest nodes each run the existing `felip-server` reactor; an
//! aggregator node merges their counts into one cluster-wide
//! [`felip::aggregator::Aggregator`]. Ingest nodes stream epoch-numbered
//! *deltas* upstream over the wire protocol's `Delta`/`DeltaAck` verbs:
//! each is the node's cumulative counts at one of the server's consistent
//! cuts, as FSNP bytes. The aggregator replaces its view of the node the
//! connection's `Hello` named whenever the epoch is newer than the last
//! one applied, so rejoin and catch-up are just the next delta.
//!
//! The headline invariant: because FELIP count vectors are exact `u64`
//! tallies and merging is addition, a deterministic loadgen split across N
//! nodes produces merged counts **bit-identical** to the single-node run —
//! including across node kill+resume and aggregator restart, which the
//! 64-seed virtual-clock sweep in `src/sim.rs` verifies per seed.
//!
//! * [`state`] — per-node cumulative state, the epoch rule, FCLU
//!   persistence.
//! * [`server`] — the aggregator's frame handler on the shared serve loop
//!   (`felip_server::serve`) and its periodic persist.
//! * [`streamer`] — the ingest-node side: cut coalescing, shipping,
//!   reconnect.

#![warn(missing_docs)]

#[cfg(all(test, feature = "model"))]
mod model_tests;
pub mod server;
#[cfg(test)]
mod sim;
pub mod state;
pub mod streamer;

pub use server::{
    AggregatorConfig, AggregatorError, AggregatorRun, AggregatorServer, AggregatorStats,
};
pub use state::{ApplyResult, ClusterState, CLUSTER_MAGIC, CLUSTER_VERSION};
pub use streamer::{StreamerConfig, StreamerReport, UpstreamStreamer};
