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
use felip_server::loadgen::user_report;
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
        io_timeout: Duration::from_secs(5),
        reconnect_delay: Duration::from_millis(10),
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
        for batch in users.chunks(25) {
            let reports: Vec<_> = batch
                .iter()
                .map(|&u| user_report(plan, u, seed).expect("report"))
                .collect();
            client.send_batch_retrying(&reports).expect("send");
        }
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

/// Like [`serve_and_stream`] (always flushing), but pauses the load after
/// `users[..split_at]` and calls `pause` before streaming the rest — the
/// chaos sweep parks every node on a barrier there while it bounces the
/// aggregator, so the catch-up path (reconnect, take the restarted
/// aggregator's epoch cursor, resend the cumulative state) is exercised
/// deterministically rather than by timing luck.
// Shared across the integration-test binaries; not every binary calls it,
// and the chaos harness needs the full parameter set in one call.
#[allow(dead_code, clippy::too_many_arguments)]
pub fn serve_and_stream_paused(
    plan: &Arc<CollectionPlan>,
    upstream: SocketAddr,
    node_id: u64,
    users: &[usize],
    seed: u64,
    mut server_cfg: ServerConfig,
    split_at: usize,
    pause: impl FnOnce(),
) -> NodeOutcome {
    let streamer = UpstreamStreamer::start(StreamerConfig {
        upstream: upstream.to_string(),
        node_id,
        plan_hash: plan.schema_hash(),
        io_timeout: Duration::from_secs(5),
        reconnect_delay: Duration::from_millis(10),
    });
    server_cfg.cut_hook = Some(streamer.hook());
    server_cfg.cut_every = Duration::from_millis(10);
    let server = Server::bind(Arc::clone(plan), server_cfg).expect("bind ingest node");
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let server_thread = thread::spawn(move || server.run(None).expect("serve"));

    let plan_hash = plan.schema_hash();
    let mut client = Client::connect(addr, plan_hash).expect("connect");
    let mut send_all = |slice: &[usize]| {
        for batch in slice.chunks(25) {
            let reports: Vec<_> = batch
                .iter()
                .map(|&u| user_report(plan, u, seed).expect("report"))
                .collect();
            client.send_batch_retrying(&reports).expect("send");
        }
    };
    let split_at = split_at.min(users.len());
    send_all(&users[..split_at]);
    pause();
    send_all(&users[split_at..]);
    drop(client);

    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    let run = server_thread.join().expect("join server");
    let report = streamer.finish(cut_of(&run.aggregator), Duration::from_secs(60));
    NodeOutcome {
        run,
        report: Some(report),
    }
}
