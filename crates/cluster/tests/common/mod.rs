//! Shared harness for the cluster integration tests: boots real ingest
//! servers wired to a real aggregator over loopback TCP and drives a
//! deterministic loadgen split through them.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use felip::aggregator::Aggregator;
use felip::config::FelipConfig;
use felip::plan::CollectionPlan;
use felip_cluster::{StreamerConfig, StreamerReport, UpstreamStreamer};
use felip_common::{Attribute, Schema};
use felip_server::loadgen::batch_reports;
use felip_server::{Client, CutState, Server, ServerConfig, ServerRun};

/// A small two-attribute plan every test shares.
pub fn plan() -> Arc<CollectionPlan> {
    let schema = Schema::new(vec![
        Attribute::numerical("a", 32),
        Attribute::categorical("c", 4),
    ])
    .expect("schema");
    Arc::new(CollectionPlan::build(&schema, 1_000, &FelipConfig::new(1.0), 5).expect("plan"))
}

/// The cut equivalent of a finished server run's merged aggregator — what
/// the final flush offers the streamer.
pub fn cut_of(agg: &Aggregator) -> CutState {
    CutState {
        counts: agg.counts().to_vec(),
        group_sizes: agg.group_sizes().to_vec(),
        reports: agg.reports_ingested() as u64,
    }
}

/// Round-robin partition of `0..total`: node `i` of `n` gets every user
/// `u` with `u % n == i`. Deterministic, so the union over nodes is
/// exactly the single-node user range.
pub fn split_users(total: usize, nodes: usize, node: usize) -> Vec<usize> {
    (0..total).filter(|u| u % nodes == node).collect()
}

/// How [`serve_and_stream`] ends the node's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeExit {
    /// Graceful: offer the final merged state and wait for the upstream
    /// ack (deadline-bounded).
    Flush,
    /// The kill path: drop pending cuts on the floor and join the worker
    /// without flushing — whatever the periodic cuts shipped is all the
    /// aggregator ever hears from this life.
    Abandon,
}

/// The outcome of one ingest-node life.
pub struct NodeOutcome {
    /// Kept alive so the node's temp dir outlives the assertion window.
    #[allow(dead_code)]
    pub run: ServerRun,
    /// `None` when the node was abandoned; otherwise the streamer report
    /// (`Err` carries the report when the flush deadline expired).
    pub report: Option<Result<StreamerReport, StreamerReport>>,
}

/// Boots an ingest server whose cut hook streams deltas to `upstream`,
/// serves `users` (batched through one client), shuts the server down
/// gracefully, and ends the streamer per `exit`.
pub fn serve_and_stream(
    plan: &Arc<CollectionPlan>,
    upstream: SocketAddr,
    node_id: u64,
    users: &[usize],
    seed: u64,
    mut server_cfg: ServerConfig,
    exit: NodeExit,
) -> NodeOutcome {
    let streamer = UpstreamStreamer::start(StreamerConfig {
        upstream: upstream.to_string(),
        node_id,
        plan_hash: plan.schema_hash(),
    });
    server_cfg.cut_hook = Some(streamer.hook());
    server_cfg.cut_every = Duration::from_millis(10);
    let server = Server::bind(Arc::clone(plan), server_cfg).expect("bind ingest node");
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let server_thread = thread::spawn(move || server.run(None).expect("serve"));

    let plan_hash = plan.schema_hash();
    if !users.is_empty() {
        let mut client = Client::connect(addr, plan_hash).expect("connect");
        client
            .send_through(users.len().div_ceil(25) as u64, |id| {
                batch_reports(plan, users, 25, seed, id)
            })
            .expect("send");
    }

    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    let run = server_thread.join().expect("join server");
    let report = match exit {
        NodeExit::Flush => Some(streamer.finish(cut_of(&run.aggregator), Duration::from_secs(60))),
        NodeExit::Abandon => {
            streamer.abandon();
            None
        }
    };
    NodeOutcome { run, report }
}
