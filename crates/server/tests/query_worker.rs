//! The query worker's live stages (DESIGN.md §11, §15): concurrent
//! askers over a settled head share one cut and refresh — the first
//! answer refreshes, the rest hit the cached epoch — and `felip stat`
//! shows the `server.query.*` histograms and, after a `Fresh` query, the
//! `grid.response.build` fit time. Its own test binary, so the
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
use felip_obs::jsonread::JsonValue;
use felip_server::loadgen::{offline_reference, user_report};
use felip_server::wire::{encode_stat, read_frame, write_frame, Frame, FrameKind, StatMode};
use felip_server::{Client, QueryMode, Server, ServerConfig};

/// Connections that ask at once.
const ASKERS: usize = 6;

/// The live metrics document, fetched with a `Stat` frame like `felip
/// stat` does.
fn stat(addr: std::net::SocketAddr) -> JsonValue {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let frame = Frame {
        kind: FrameKind::Stat,
        plan_hash: 0,
        payload: encode_stat(StatMode::Full),
    };
    write_frame(&mut stream, &frame).expect("send stat");
    let reply = read_frame(&mut stream).expect("stat reply").expect("open");
    assert_eq!(reply.kind, FrameKind::StatReply);
    felip_obs::jsonread::parse(std::str::from_utf8(&reply.payload).unwrap()).expect("json")
}

/// Samples recorded by histogram `name` in a metrics document.
fn hist_count(doc: &JsonValue, name: &str) -> u64 {
    let Some(JsonValue::Array(metrics)) = doc.get("metrics") else {
        panic!("no metrics array");
    };
    metrics
        .iter()
        .find(|m| m.get("name").and_then(|n| n.as_str()) == Some(name))
        .and_then(|m| m.get("count"))
        .and_then(|c| c.as_u64())
        .unwrap_or(0)
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

    let mut feeder = Client::connect(addr, plan_hash).expect("connect");
    let reports: Vec<_> = (0..300)
        .map(|u| user_report(&plan, u, 5).unwrap())
        .collect();
    feeder.send_batch_retrying(&reports).expect("send");

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
    assert_eq!(hist_count(&doc, "server.query.answer"), ASKERS as u64);
    // `felip stat` shows the worker's stages.
    let table = felip_obs::render_metrics_table(&doc).expect("table");
    for name in [
        "server.query.cut",
        "server.query.refresh",
        "server.query.answer",
    ] {
        assert!(table.contains(name), "felip stat misses {name}:\n{table}");
    }

    // A `Fresh` query after more ingest refreshes onto the new head and
    // fits the pair's response matrix again; `felip stat` shows the fit.
    let builds = hist_count(&doc, "grid.response.build");
    let more: Vec<_> = (300..400)
        .map(|u| user_report(&plan, u, 5).unwrap())
        .collect();
    feeder.send_batch_retrying(&more).expect("send");
    let mut client = Client::connect(addr, plan_hash).expect("connect");
    let ans = client.query(preds, QueryMode::Fresh).expect("answer");
    assert_eq!(ans.reports, 400);
    let doc = stat(addr);
    assert_eq!(hist_count(&doc, "grid.response.build"), builds + 1);
    let table = felip_obs::render_metrics_table(&doc).expect("table");
    let row = table
        .lines()
        .find(|l| l.trim_start().starts_with("grid.response.build "))
        .unwrap_or_else(|| panic!("felip stat misses grid.response.build:\n{table}"));
    assert!(row.contains(&format!("n={}", builds + 1)), "{row}");

    shutdown.store(true, Ordering::SeqCst);
    server_thread.join().expect("join server");
}
