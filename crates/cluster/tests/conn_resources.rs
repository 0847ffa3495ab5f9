//! A finished aggregator connection must leave nothing behind: a `felip
//! stat` poller that connects, asks once and hangs up, over and over, must
//! not grow the aggregator process.
//!
//! The check counts this process's memory maps (`/proc/self/maps`). It is
//! the only test in this binary, so no parallel test adds maps of its own.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;

use felip::config::FelipConfig;
use felip::plan::CollectionPlan;
use felip_cluster::{AggregatorConfig, AggregatorServer};
use felip_common::{Attribute, Schema};
use felip_server::wire::{encode_stat, read_frame, write_frame, Frame, FrameKind, StatMode};

/// Lines in `/proc/self/maps`: one per mapping (thread stacks and their
/// guard pages included).
fn maps() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

/// Connects, asks one STAT and hangs up after the reply.
fn one_stat(addr: std::net::SocketAddr) {
    let mut conn = std::net::TcpStream::connect(addr).expect("connect");
    let stat = Frame {
        kind: FrameKind::Stat,
        plan_hash: 0,
        payload: encode_stat(StatMode::Full),
    };
    write_frame(&mut conn, &stat).expect("send STAT");
    let reply = read_frame(&mut conn).expect("read").expect("reply");
    assert_eq!(reply.kind, FrameKind::StatReply);
}

#[test]
fn sequential_stat_connections_leave_no_per_connection_resources() {
    let schema = Schema::new(vec![
        Attribute::numerical("a", 32),
        Attribute::categorical("c", 4),
    ])
    .unwrap();
    let plan = Arc::new(CollectionPlan::build(&schema, 60, &FelipConfig::new(1.0), 3).unwrap());
    let agg = AggregatorServer::bind(plan, AggregatorConfig::default()).expect("bind");
    let addr = agg.local_addr();
    let stop = agg.shutdown_handle();
    let server = thread::spawn(move || agg.run(None).expect("aggregator run"));

    // Warm up: the first connections settle whatever the serve loop and
    // the recorder allocate once.
    for _ in 0..20 {
        one_stat(addr);
    }
    let before = maps();
    for _ in 0..500 {
        one_stat(addr);
    }
    let after = maps();
    stop.store(true, Ordering::SeqCst);
    let run = server.join().expect("join aggregator");

    assert_eq!(run.stats.connections, 520);
    let grew = after.saturating_sub(before);
    println!("maps: {before} -> {after} (+{grew}) over 500 connections");
    assert!(
        grew < 50,
        "500 finished connections grew the maps from {before} to {after}"
    );
}
