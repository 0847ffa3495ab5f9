//! Hostile bytes against the one count codec: every `Delta` payload, FSNP
//! snapshot and FCLU node record is parsed by `Snapshot::decode`, so these
//! checks cover every decoder of the per-grid count body (DESIGN.md §12,
//! §16).
//!
//! * Every strict prefix of a valid encoding is a typed error.
//! * Every length field — grid, cell, group and dedup counts, `num_nodes`
//!   and `snap_len` — rewritten to 0, 1, ±1 and `u32::MAX`, with every CRC
//!   around it recomputed so only the structure checks can object, is a
//!   typed error or decodes to a value that re-encodes to the same bytes.
//!
//! * Every truncation of a `Hello` payload, and one with a trailing byte,
//!   is a typed error from the codec and an `Error` reply from both tiers.
//! * The header, plan-hash, duplicate-node and shape checks that no length
//!   rewrite reaches are each hit by a hand-built input, and the
//!   aggregator's handler rejects a `Delta` before `Hello` and a kind it
//!   does not accept.
//!
//! Run with `--nocapture` to print the error paths each codec reached.

use std::collections::{BTreeMap, BTreeSet};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;

use felip::aggregator::OracleSet;
use felip::config::FelipConfig;
use felip::plan::CollectionPlan;
use felip_cluster::{AggregatorConfig, AggregatorServer, ClusterState};
use felip_common::{Attribute, Schema};
use felip_server::loadgen::offline_reference;
use felip_server::wire::{
    crc32, decode_delta, decode_hello, encode_delta, encode_hello, read_frame, write_frame, Frame,
    FrameKind, WireError,
};
use felip_server::{Server, ServerConfig, Snapshot};

fn plan() -> Arc<CollectionPlan> {
    let schema = Schema::new(vec![
        Attribute::numerical("a", 32),
        Attribute::categorical("c", 4),
    ])
    .expect("schema");
    Arc::new(CollectionPlan::build(&schema, 1_000, &FelipConfig::new(1.0), 5).expect("plan"))
}

fn snapshot(plan: &Arc<CollectionPlan>, users: std::ops::Range<usize>) -> Snapshot {
    let agg = offline_reference(plan, users, 3).expect("offline");
    Snapshot::capture(&agg, plan.schema_hash())
}

fn le_u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// One `u32` length field: where it sits, what it counts, and the
/// `[start, end)` spans whose last four bytes are a CRC over the rest,
/// innermost first — recomputed after the field is rewritten.
struct Field {
    at: usize,
    name: &'static str,
    crcs: Vec<(usize, usize)>,
}

/// The length fields of the FSNP bytes at `bytes[start..end]`, each inside
/// `outer` (the CRC spans that enclose this snapshot) plus its own CRC.
fn fsnp_fields(bytes: &[u8], start: usize, end: usize, outer: &[(usize, usize)]) -> Vec<Field> {
    let mut crcs = vec![(start, end)];
    crcs.extend_from_slice(outer);
    let field = |at, name| Field {
        at,
        name,
        crcs: crcs.clone(),
    };
    // magic, version, reserved, plan hash, total reports.
    let mut at = start + 24;
    let mut fields = vec![field(at, "grid count")];
    let grids = le_u32_at(bytes, at);
    at += 4;
    for _ in 0..grids {
        fields.push(field(at, "cell count"));
        at += 4 + 8 * le_u32_at(bytes, at) as usize;
    }
    fields.push(field(at, "group count"));
    at += 4 + 8 * le_u32_at(bytes, at) as usize;
    fields.push(field(at, "dedup count"));
    fields
}

/// The length fields of an FCLU container: `num_nodes`, each record's
/// `snap_len`, and the fields of each embedded FSNP snapshot.
fn fclu_fields(bytes: &[u8]) -> Vec<Field> {
    let outer = (0, bytes.len());
    let mut fields = vec![Field {
        at: 16,
        name: "num_nodes",
        crcs: vec![outer],
    }];
    let mut at = 20;
    for _ in 0..le_u32_at(bytes, 16) {
        // node_id, epoch, then snap_len.
        let snap_len = le_u32_at(bytes, at + 16) as usize;
        fields.push(Field {
            at: at + 16,
            name: "snap_len",
            crcs: vec![outer],
        });
        let snap = at + 20;
        fields.extend(fsnp_fields(bytes, snap, snap + snap_len, &[outer]));
        at = snap + snap_len;
    }
    fields
}

/// A stable label for an error path: the variant, and for `Malformed` its
/// message with every number replaced by `N`.
fn label(e: &WireError) -> String {
    let text = match e {
        WireError::Malformed(m) => format!("Malformed: {m}"),
        WireError::Truncated { .. } => "Truncated".into(),
        WireError::BadCrc { .. } => "BadCrc".into(),
        WireError::BadMagic(_) => "BadMagic".into(),
        WireError::BadVersion(_) => "BadVersion".into(),
        WireError::PlanMismatch { .. } => "PlanMismatch".into(),
        other => format!("{other:?}"),
    };
    let mut out = String::new();
    for c in text.chars() {
        if c.is_ascii_digit() {
            if !out.ends_with('N') {
                out.push('N');
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Runs both checks on one codec and returns the error paths reached,
/// keyed by what was mutated.
fn attack(
    name: &str,
    good: &[u8],
    fields: &[Field],
    reencode: impl Fn(&[u8]) -> Result<Vec<u8>, WireError>,
) -> BTreeMap<&'static str, BTreeSet<String>> {
    assert_eq!(reencode(good).expect("valid encoding"), good, "{name}");
    let mut reached: BTreeMap<&'static str, BTreeSet<String>> = BTreeMap::new();
    for cut in 0..good.len() {
        let e =
            reencode(&good[..cut]).expect_err(&format!("{name}: prefix of {cut} bytes accepted"));
        reached.entry("prefix").or_default().insert(label(&e));
    }
    for field in fields {
        let v = le_u32_at(good, field.at);
        let values: BTreeSet<u32> = [0, 1, v.wrapping_sub(1), v.wrapping_add(1), u32::MAX]
            .into_iter()
            .filter(|&x| x != v)
            .collect();
        for x in values {
            let mut bytes = good.to_vec();
            bytes[field.at..field.at + 4].copy_from_slice(&x.to_le_bytes());
            for &(start, end) in &field.crcs {
                let crc = crc32(&bytes[start..end - 4]);
                bytes[end - 4..end].copy_from_slice(&crc.to_le_bytes());
            }
            match reencode(&bytes) {
                Ok(again) => assert_eq!(
                    again, bytes,
                    "{name}: {} {v} -> {x} decoded to a different value",
                    field.name
                ),
                Err(e) => {
                    reached.entry(field.name).or_default().insert(label(&e));
                }
            }
        }
    }
    println!("{name} error paths:");
    for (what, labels) in &reached {
        println!(
            "  {what}: {}",
            Vec::from_iter(labels.iter().cloned()).join(" | ")
        );
    }
    // Only a shifted record boundary may leave a CRC over the wrong bytes;
    // every other rewrite had its CRCs recomputed.
    for (what, labels) in &reached {
        if !matches!(*what, "prefix" | "snap_len") {
            assert!(!labels.contains("BadCrc"), "{name}: {what} hit a CRC");
        }
    }
    reached
}

#[test]
fn fsnp_snapshot_survives_hostile_bytes() {
    let plan = plan();
    let agg = offline_reference(&plan, 0..40, 3).expect("offline");
    let snap = Snapshot::capture_with_dedup(&agg, plan.schema_hash(), vec![(4, 1), (9, 7)]);
    let good = snap.encode();
    let fields = fsnp_fields(&good, 0, good.len(), &[]);
    assert_eq!(fields.len(), plan.grids().len() + 3);
    let reached = attack("FSNP", &good, &fields, |b| {
        Snapshot::decode(b).map(|s| s.encode())
    });
    assert!(reached["grid count"].contains("Malformed: grid count N impossible"));
}

#[test]
fn delta_payload_survives_hostile_bytes() {
    let plan = plan();
    let good = encode_delta(7, &snapshot(&plan, 0..40));
    let fields = fsnp_fields(&good, 8, good.len(), &[]);
    attack("Delta", &good, &fields, |b| {
        decode_delta(b).map(|(epoch, snap)| encode_delta(epoch, &snap))
    });
}

#[test]
fn fclu_container_survives_hostile_bytes() {
    let plan = plan();
    let oracles = Arc::new(OracleSet::build(&plan));
    let state = ClusterState::new(Arc::clone(&plan), Arc::clone(&oracles));
    state.apply(1, 3, snapshot(&plan, 0..20)).expect("node 1");
    state.apply(2, 5, snapshot(&plan, 20..50)).expect("node 2");
    let good = state.encode();
    let fields = fclu_fields(&good);
    assert_eq!(fields.len(), 1 + 2 * (plan.grids().len() + 4));
    let reached = attack("FCLU", &good, &fields, |b| {
        ClusterState::decode(b, Arc::clone(&plan), Arc::clone(&oracles)).map(|s| s.encode())
    });
    assert!(reached["num_nodes"].contains("Truncated"));
}

/// Sends `frame` on a fresh connection and returns the reply.
fn exchange(addr: SocketAddr, frame: &Frame) -> Frame {
    let mut conn = TcpStream::connect(addr).expect("connect");
    write_frame(&mut conn, frame).expect("write");
    read_frame(&mut conn).expect("read").expect("a reply")
}

/// Every strict prefix of a `Hello` payload is `Truncated` and one byte too
/// many is "oversized hello payload", from the codec and from both tiers'
/// handlers, which answer an `Error` frame and keep serving.
#[test]
fn hostile_hello_payloads_get_typed_errors_on_both_tiers() {
    let plan = plan();
    let plan_hash = plan.schema_hash();
    let good = encode_hello(7);
    let mut hostile: Vec<Vec<u8>> = (0..good.len()).map(|cut| good[..cut].to_vec()).collect();
    hostile.push([good.as_slice(), &[0]].concat());
    for payload in &hostile {
        match decode_hello(payload) {
            Err(WireError::Truncated { .. }) if payload.len() < good.len() => {}
            Err(WireError::Malformed(m)) if m == "oversized hello payload" => {}
            other => panic!("{} byte hello: {other:?}", payload.len()),
        }
    }

    let node = Server::bind(Arc::clone(&plan), ServerConfig::default()).expect("bind node");
    let agg = AggregatorServer::bind(Arc::clone(&plan), AggregatorConfig::default())
        .expect("bind aggregator");
    let tiers = [
        ("ingest", node.local_addr(), node.shutdown_handle()),
        ("aggregator", agg.local_addr(), agg.shutdown_handle()),
    ];
    let node_thread = thread::spawn(move || node.run(None).expect("node run"));
    let agg_thread = thread::spawn(move || agg.run(None).expect("aggregator run"));
    for (tier, addr, _) in &tiers {
        for payload in &hostile {
            let hello = Frame {
                kind: FrameKind::Hello,
                plan_hash,
                payload: payload.clone(),
            };
            let reply = exchange(*addr, &hello);
            let text = String::from_utf8_lossy(&reply.payload).into_owned();
            assert_eq!(reply.kind, FrameKind::Error, "{tier}: {text}");
            let expected = if payload.len() < good.len() {
                "truncated"
            } else {
                "oversized hello payload"
            };
            assert!(
                text.contains(expected),
                "{tier}, {} bytes: {text}",
                payload.len()
            );
        }
        let hello = Frame {
            kind: FrameKind::Hello,
            plan_hash,
            payload: good.clone(),
        };
        assert_eq!(
            exchange(*addr, &hello).kind,
            FrameKind::Ack,
            "{tier} stopped serving"
        );
    }
    for (_, _, stop) in &tiers {
        stop.store(true, Ordering::SeqCst);
    }
    node_thread.join().expect("join node");
    let run = agg_thread.join().expect("join aggregator");
    assert_eq!(run.stats.frames_rejected, hostile.len() as u64);
}

/// `bytes` with its trailing CRC recomputed over everything before it.
fn resealed(mut bytes: Vec<u8>) -> Vec<u8> {
    let n = bytes.len();
    let crc = crc32(&bytes[..n - 4]);
    bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
    bytes
}

/// The header, plan, duplicate-node and shape checks no length rewrite
/// reaches: each hand-built input gets its own typed error.
#[test]
fn header_plan_and_shape_checks_are_typed_errors() {
    let plan = plan();
    let oracles = Arc::new(OracleSet::build(&plan));
    let snap = snapshot(&plan, 0..20);
    let fsnp = snap.encode();
    let state = ClusterState::new(Arc::clone(&plan), Arc::clone(&oracles));
    state.apply(1, 3, snapshot(&plan, 0..20)).expect("node 1");
    let fclu = state.encode();
    let fclu_decode = |bytes: &[u8]| {
        ClusterState::decode(bytes, Arc::clone(&plan), Arc::clone(&oracles)).map(drop)
    };
    let mut reached: Vec<String> = Vec::new();
    let mut expect = |what: &str, got: Result<(), WireError>, want: &str| {
        let e = got.expect_err(what);
        let text = label(&e);
        assert!(text.contains(want), "{what}: {text}");
        reached.push(format!("{what}: {text}"));
    };

    // Header bytes, on both containers: magic, version, reserved.
    for (name, good) in [("FSNP", &fsnp), ("FCLU", &fclu)] {
        let decode = |bytes: &[u8]| match name {
            "FSNP" => Snapshot::decode(bytes).map(drop),
            _ => fclu_decode(bytes),
        };
        for (at, flip, want) in [
            (0, 1u8, "BadMagic"),
            (4, 0x40, "BadVersion"),
            (5, 1, "reserved"),
        ] {
            let mut bytes = good.clone();
            bytes[at] ^= flip;
            expect(&format!("{name} byte {at}"), decode(&resealed(bytes)), want);
        }
    }

    // Plan hashes: a snapshot restored against another plan, the FCLU
    // header's, and the FSNP embedded in an FCLU node record.
    let foreign = Snapshot {
        plan_hash: plan.schema_hash() ^ 1,
        ..snap.clone()
    };
    let restored = foreign.restore(Arc::clone(&plan), Arc::clone(&oracles));
    expect("foreign FSNP", restored.map(drop), "PlanMismatch");
    let mut bytes = fclu.clone();
    bytes[8] ^= 1;
    expect(
        "FCLU plan hash",
        fclu_decode(&resealed(bytes)),
        "PlanMismatch",
    );
    // node_id, epoch, snap_len, then the embedded FSNP's plan hash.
    let embedded = 20 + 20;
    let mut bytes = fclu.clone();
    bytes[embedded + 8] ^= 1;
    let inner = embedded..embedded + fsnp.len();
    let crc = crc32(&bytes[inner.start..inner.end - 4]);
    bytes[inner.end - 4..inner.end].copy_from_slice(&crc.to_le_bytes());
    expect(
        "FCLU embedded FSNP plan hash",
        fclu_decode(&resealed(bytes)),
        "PlanMismatch",
    );

    // One node's record twice.
    let record = &fclu[20..fclu.len() - 4];
    let mut bytes = fclu[..20].to_vec();
    bytes[16..20].copy_from_slice(&2u32.to_le_bytes());
    bytes.extend_from_slice(record);
    bytes.extend_from_slice(record);
    bytes.extend_from_slice(&[0; 4]);
    expect(
        "FCLU duplicate node",
        fclu_decode(&resealed(bytes)),
        "appears twice",
    );

    // `Aggregator::restore`'s shape checks: grids, cells, groups.
    let mut grids = snap.clone();
    grids.counts.pop();
    let mut cells = snap.clone();
    cells.counts[0].push(0);
    let mut groups = snap.clone();
    groups.group_sizes.push(0);
    for (what, bad, want) in [
        ("grid count", grids, "grids, plan has"),
        ("cell count", cells, "cells, plan expects"),
        ("group count", groups, "groups, plan has"),
    ] {
        let restored = bad.restore(Arc::clone(&plan), Arc::clone(&oracles));
        expect(what, restored.map(drop), want);
    }
    println!("header, plan and shape paths:");
    for line in &reached {
        println!("  {line}");
    }
}

/// Through the aggregator's handler: a `Delta` before any `Hello`, and a
/// kind a node may not send, each get an `Error` reply.
#[test]
fn handler_rejects_delta_before_hello_and_foreign_kinds() {
    let plan = plan();
    let plan_hash = plan.schema_hash();
    let agg = AggregatorServer::bind(Arc::clone(&plan), AggregatorConfig::default())
        .expect("bind aggregator");
    let (addr, stop) = (agg.local_addr(), agg.shutdown_handle());
    let agg_thread = thread::spawn(move || agg.run(None).expect("aggregator run"));
    let delta = Frame {
        kind: FrameKind::Delta,
        plan_hash,
        payload: encode_delta(1, &snapshot(&plan, 0..10)),
    };
    let foreign = Frame {
        kind: FrameKind::ReportBatch,
        plan_hash,
        payload: Vec::new(),
    };
    for (frame, want) in [
        (&delta, "delta before hello handshake"),
        (&foreign, "node sent ReportBatch frame"),
    ] {
        let reply = exchange(addr, frame);
        let text = String::from_utf8_lossy(&reply.payload).into_owned();
        assert_eq!(reply.kind, FrameKind::Error, "{text}");
        assert!(text.contains(want), "{text}");
        println!("handler: {text}");
    }
    stop.store(true, Ordering::SeqCst);
    let run = agg_thread.join().expect("join aggregator");
    assert_eq!(run.stats.frames_rejected, 2);
    assert_eq!(run.merged.reports_ingested(), 0);
}
