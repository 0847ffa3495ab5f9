//! The query worker's live stages (DESIGN.md §11, §15): concurrent
//! askers over a settled head share one cut and refresh — the first
//! answer refreshes, the rest hit the cached epoch, and the per-query
//! `query.cache.*` counters say so — and `felip stat` shows the
//! `server.query.*` histograms and, after a `Fresh` query on a moved
//! head, the `grid.response.build` fit time. Its own test binary, so the
//! process-global metrics it reads count this test's queries only. The
//! worker belongs to the epoll reactor; the thread-per-connection
//! fallback answers on each connection's thread.
#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::thread;

use felip::config::FelipConfig;
use felip::plan::CollectionPlan;
use felip_common::{Attribute, Predicate, Query, Schema};
use felip_server::loadgen::{batch_reports, offline_reference};
use felip_server::wire::{encode_stat, read_frame, write_frame, Frame, FrameKind, StatMode};
use felip_server::{Client, QueryMode, Server, ServerConfig};
use serde_json::Value;

/// Connections that ask at once.
const ASKERS: usize = 6;

/// The live metrics document, fetched with a `Stat` frame like `felip
/// stat` does.
fn stat(addr: std::net::SocketAddr) -> Value {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let frame = Frame {
        kind: FrameKind::Stat,
        plan_hash: 0,
        payload: encode_stat(StatMode::Full),
    };
    write_frame(&mut stream, &frame).expect("send stat");
    let reply = read_frame(&mut stream).expect("stat reply").expect("open");
    assert_eq!(reply.kind, FrameKind::StatReply);
    serde_json::from_str(std::str::from_utf8(&reply.payload).unwrap()).expect("json")
}

/// The value of counter `name` in a metrics document; 0 when the document
/// has no such metric.
fn counter(doc: &Value, name: &str) -> u64 {
    let metrics = doc["metrics"].as_array().expect("metrics array");
    let Some(m) = metrics.iter().find(|m| m["name"] == name) else {
        return 0;
    };
    assert_eq!(m["kind"], "counter", "{name} is not a counter");
    m["value"].as_u64().expect("counter value")
}

/// Samples recorded by histogram `name` in a metrics document; 0 when the
/// document has no such metric.
fn hist_count(doc: &Value, name: &str) -> u64 {
    let metrics = doc["metrics"].as_array().expect("metrics array");
    let Some(m) = metrics.iter().find(|m| m["name"] == name) else {
        return 0;
    };
    assert_eq!(m["kind"], "histogram", "{name} is not a histogram");
    m["count"].as_u64().expect("histogram count")
}

#[test]
fn concurrent_cached_askers_share_one_refresh() {
    felip_obs::global().set_enabled(true);
    // Two 256-value numerical attributes: the first cold answer fits a
    // large response matrix, so the other askers queue up behind it.
    let schema = Schema::new(vec![
        Attribute::numerical("a", 256),
        Attribute::numerical("b", 256),
    ])
    .unwrap();
    let plan =
        Arc::new(CollectionPlan::build(&schema, 100_000, &FelipConfig::new(1.0), 31).unwrap());
    let plan_hash = plan.schema_hash();
    let server = Server::bind(Arc::clone(&plan), ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let server_thread = thread::spawn(move || server.run(None).expect("serve"));

    // Batch 1 is users 0..300, batch 2 users 300..400.
    let users: Vec<usize> = (0..400).collect();
    let batch = |id| batch_reports(&plan, &users, 300, 5, id);
    let mut feeder = Client::connect(addr, plan_hash).expect("connect");
    feeder.send_through(1, batch).expect("send");

    let preds = vec![Predicate::between(0, 8, 90), Predicate::between(1, 30, 200)];
    let query = Query::new(plan.schema(), preds.clone()).unwrap();
    let expected = offline_reference(&plan, 0..300, 5)
        .unwrap()
        .estimate()
        .unwrap()
        .answer(&query)
        .unwrap();

    let start = Barrier::new(ASKERS);
    thread::scope(|s| {
        for _ in 0..ASKERS {
            let (start, preds) = (&start, preds.clone());
            s.spawn(move || {
                let mut client = Client::connect(addr, plan_hash).expect("connect");
                start.wait();
                let ans = client.query(preds, QueryMode::Cached).expect("answer");
                assert_eq!(ans.reports, 300);
                assert_eq!(ans.answer.to_bits(), expected.to_bits());
            });
        }
    });

    let doc = stat(addr);
    assert_eq!(
        hist_count(&doc, "server.query.refresh"),
        1,
        "{ASKERS} cached askers over one head must share one refresh"
    );
    assert_eq!(hist_count(&doc, "server.query.cut"), 1);
    // One answered query estimated; every other one hit the cached epoch.
    assert_eq!(counter(&doc, "query.cache.miss"), 1);
    assert_eq!(counter(&doc, "query.cache.hit"), ASKERS as u64 - 1);
    // `answer` times every `Estimator::answer` in the process: the askers'
    // and the offline reference's one above.
    assert_eq!(hist_count(&doc, "answer"), ASKERS as u64 + 1);
    // `felip stat` shows the worker's stages: each is a histogram with
    // samples, which its table renders as one `n=…` row.
    for name in ["server.query.cut", "server.query.refresh", "answer"] {
        assert!(hist_count(&doc, name) > 0, "felip stat misses {name}");
    }

    // A `Fresh` query on the unmoved head cuts, finds the cached token
    // and reuses the warm estimator: same epoch, no new matrix fit.
    let builds = hist_count(&doc, "grid.response.build");
    let mut client = Client::connect(addr, plan_hash).expect("connect");
    let cached = client
        .query(preds.clone(), QueryMode::Cached)
        .expect("answer");
    let fresh = client
        .query(preds.clone(), QueryMode::Fresh)
        .expect("answer");
    assert_eq!(fresh.epoch, cached.epoch);
    assert_eq!(fresh.answer.to_bits(), expected.to_bits());
    let doc = stat(addr);
    assert_eq!(hist_count(&doc, "server.query.cut"), 2);
    assert_eq!(hist_count(&doc, "grid.response.build"), builds);
    assert_eq!(counter(&doc, "query.cache.hit"), ASKERS as u64 + 1);
    assert_eq!(counter(&doc, "query.cache.miss"), 1);

    // A `Fresh` query after more ingest refreshes onto the new head and
    // fits the pair's response matrix again; `felip stat` shows the fit.
    feeder.send_through(2, batch).expect("send");
    let ans = client.query(preds, QueryMode::Fresh).expect("answer");
    assert_eq!(ans.reports, 400);
    let doc = stat(addr);
    assert_eq!(hist_count(&doc, "grid.response.build"), builds + 1);
    assert_eq!(counter(&doc, "query.cache.miss"), 2);

    shutdown.store(true, Ordering::SeqCst);
    server_thread.join().expect("join server");
}
