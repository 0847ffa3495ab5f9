//! `felip-cluster`: two-tier distributed ingestion (DESIGN.md §16).
//!
//! N ingest nodes each run the existing `felip-server` reactor; an
//! aggregator node merges their counts into one cluster-wide
//! [`felip::aggregator::Aggregator`]. Ingest nodes stream epoch-numbered
//! count *deltas* — derived from the server's consistent cuts — upstream
//! over the wire protocol's v4 `Delta`/`DeltaAck` verbs, with full
//! cumulative resync as the rejoin/catch-up path.
//!
//! The headline invariant: because FELIP count vectors are exact `u64`
//! tallies and merging is addition, a deterministic loadgen split across N
//! nodes produces merged counts **bit-identical** to the single-node run —
//! including across node kill+resume and aggregator restart, which the
//! 64-seed chaos sweep in `tests/chaos.rs` verifies per seed.
//!
//! * [`state`] — per-node cumulative state, epoch discipline, FCLU
//!   persistence.
//! * [`server`] — the aggregator's frame handler on the shared serve loop
//!   (`felip_server::serve`) and its periodic persist.
//! * [`streamer`] — the ingest-node side: cut coalescing, delta
//!   derivation, reconnect/resync.

#![warn(missing_docs)]

#[cfg(all(test, feature = "model"))]
mod model_tests;
pub mod server;
pub mod state;
pub mod streamer;

pub use server::{
    AggregatorConfig, AggregatorError, AggregatorRun, AggregatorServer, AggregatorStats,
};
pub use state::{ApplyResult, ClusterState, CLUSTER_MAGIC, CLUSTER_VERSION};
pub use streamer::{StreamerConfig, StreamerReport, UpstreamStreamer};
