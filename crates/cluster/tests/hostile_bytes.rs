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
//! Run with `--nocapture` to print the error paths each codec reached.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use felip::aggregator::OracleSet;
use felip::config::FelipConfig;
use felip::plan::CollectionPlan;
use felip_cluster::ClusterState;
use felip_common::{Attribute, Schema};
use felip_server::loadgen::offline_reference;
use felip_server::wire::{crc32, decode_delta, encode_delta, WireError};
use felip_server::Snapshot;

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
