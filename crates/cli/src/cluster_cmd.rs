//! The cluster-tier subcommands (DESIGN.md §16): `felip aggregate` runs
//! the delta-merging aggregator node, and `felip estimate` renders the
//! frequency estimates held in a (typically merged) FSNP snapshot.
//!
//! Both share the plan flags with `serve`/`load`/`verify`: the aggregator
//! pins the same `schema_hash()` the ingest nodes stamp on their delta
//! frames, and `estimate` must rebuild the identical plan to restore the
//! snapshot at all.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use felip::aggregator::OracleSet;
use felip_cluster::{AggregatorConfig, AggregatorServer};
use felip_obs::diag;
use felip_server::{signal, Snapshot};

use crate::args::Flags;
use crate::serve_cmd::plan_from_flags;

type CmdResult = std::result::Result<(), Box<dyn std::error::Error>>;

/// `felip aggregate`: merge ingest-node deltas until SIGINT/SIGTERM, then
/// persist and report the cluster-wide result.
pub fn aggregate(args: &[String]) -> CmdResult {
    let flags = Flags::parse(args)?;
    let plan = plan_from_flags(&flags)?;
    let config = AggregatorConfig {
        addr: flags.get_or("addr", "127.0.0.1:4490".to_string())?,
        snapshot_path: flags.get("snapshot").map(PathBuf::from),
        state_path: flags.get("state").map(PathBuf::from),
        resume: flags.get("resume").map(PathBuf::from),
        persist_every: Duration::from_millis(flags.get_or("persist-every-ms", 500u64)?.max(1)),
    };

    // Like `serve`, the aggregator's STAT verb reads the live recorder,
    // so telemetry is always on.
    felip_obs::enable();
    let server = AggregatorServer::bind(Arc::clone(&plan), config)?;
    let shutdown = signal::install_shutdown_handler();
    diag::line(&format!(
        "felip aggregate: listening on {} (plan hash {:016x}); SIGINT/SIGTERM persists and exits",
        server.local_addr(),
        plan.schema_hash()
    ));
    let run = server.run(Some(shutdown))?;

    let nodes: Vec<serde_json::Value> = run
        .nodes
        .iter()
        .map(|&(id, epoch, reports)| {
            serde_json::json!({ "node": id, "epoch": epoch, "reports": reports })
        })
        .collect();
    println!(
        "{}",
        serde_json::to_string_pretty(&serde_json::json!({
            "command": "aggregate",
            "reports_merged": run.merged.reports_ingested(),
            "counts_digest": format!("{:016x}", run.merged.counts_digest()),
            "nodes": nodes,
            "connections": run.stats.connections,
            "deltas_applied": run.stats.deltas_applied,
            "deltas_duplicate": run.stats.deltas_duplicate,
            "deltas_resync": run.stats.deltas_resync,
            "frames_rejected": run.stats.frames_rejected,
        }))?
    );
    Ok(())
}

/// `felip estimate`: restore a snapshot (the aggregator's merged FSNP, or
/// any single-node one) and print its post-processed frequency estimates.
pub fn estimate(args: &[String]) -> CmdResult {
    let flags = Flags::parse(args)?;
    let plan = plan_from_flags(&flags)?;
    let snapshot_path = PathBuf::from(flags.require::<String>("snapshot")?);
    let only_grid: Option<usize> = match flags.get("grid") {
        None => None,
        Some(_) => Some(flags.require("grid")?),
    };

    let snapshot = Snapshot::read(&snapshot_path)?;
    let reports = snapshot.reports_ingested();
    let oracles = Arc::new(OracleSet::build(&plan));
    let restored = snapshot.restore(Arc::clone(&plan), oracles)?;
    let digest = restored.counts_digest();
    let estimator = restored.estimate()?;

    let grids: Vec<serde_json::Value> = estimator
        .grids()
        .iter()
        .enumerate()
        .filter(|(i, _)| only_grid.is_none_or(|g| g == *i))
        .map(|(i, grid)| {
            serde_json::json!({
                "grid": i,
                "cells": grid.freqs().len(),
                "freqs": grid.freqs(),
            })
        })
        .collect();
    if grids.is_empty() {
        return Err(format!(
            "--grid {} is out of range ({} grids in plan)",
            only_grid.unwrap_or(0),
            estimator.grids().len()
        )
        .into());
    }
    println!(
        "{}",
        serde_json::to_string_pretty(&serde_json::json!({
            "command": "estimate",
            "snapshot": snapshot_path.display().to_string(),
            "reports": reports,
            "counts_digest": format!("{digest:016x}"),
            "grids": grids,
        }))?
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use felip_cluster::{StreamerConfig, UpstreamStreamer};
    use felip_server::{CutState, Server, ServerConfig};
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    const PLAN: &[&str] = &["--attrs", "n:64,c:4", "--n", "2000", "--epsilon", "1.0"];

    fn with_plan(extra: &[&str]) -> Vec<String> {
        let mut v = argv(PLAN);
        v.extend(argv(extra));
        v
    }

    /// The full CLI-surface cluster path: an aggregator with a merged
    /// snapshot, two ingest nodes streaming deltas, `felip load` driving
    /// each, then `verify` and `estimate` consuming the merged FSNP.
    #[test]
    fn cluster_load_verify_estimate_round_trip() {
        let dir = std::env::temp_dir().join(format!("felip-cli-cluster-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let merged_snap = dir.join("merged.snap");

        let flags = Flags::parse(&with_plan(&[])).unwrap();
        let plan = plan_from_flags(&flags).unwrap();
        let agg = AggregatorServer::bind(
            Arc::clone(&plan),
            AggregatorConfig {
                snapshot_path: Some(merged_snap.clone()),
                persist_every: Duration::from_millis(50),
                ..AggregatorConfig::default()
            },
        )
        .unwrap();
        let upstream = agg.local_addr();
        let agg_stop = agg.shutdown_handle();
        let agg_thread = std::thread::spawn(move || agg.run(None).unwrap());

        // Two ingest nodes, 200 users each, split deterministically.
        for node in 0..2u64 {
            let streamer = UpstreamStreamer::start(StreamerConfig {
                upstream: upstream.to_string(),
                node_id: node + 1,
                plan_hash: plan.schema_hash(),
                ..StreamerConfig::default()
            });
            let config = ServerConfig {
                cut_hook: Some(streamer.hook()),
                cut_every: Duration::from_millis(10),
                ..ServerConfig::default()
            };
            let server = Server::bind(Arc::clone(&plan), config).unwrap();
            let addr = server.local_addr().to_string();
            let stop = server.shutdown_handle();
            let t = std::thread::spawn(move || server.run(None).unwrap());
            crate::serve_cmd::load(&with_plan(&[
                "--addr",
                &addr,
                "--users",
                "200",
                "--from",
                &(node * 200).to_string(),
                "--connections",
                "1",
                "--seed",
                "21",
            ]))
            .unwrap();
            stop.store(true, Ordering::SeqCst);
            let run = t.join().unwrap();
            let report = streamer
                .finish(
                    CutState {
                        counts: run.aggregator.counts().to_vec(),
                        group_sizes: run.aggregator.group_sizes().to_vec(),
                        reports: run.aggregator.reports_ingested() as u64,
                    },
                    Duration::from_secs(30),
                )
                .unwrap();
            assert_eq!(report.flushed_reports, 200);
        }

        agg_stop.store(true, Ordering::SeqCst);
        let run = agg_thread.join().unwrap();
        assert_eq!(run.merged.reports_ingested(), 400);
        assert!(merged_snap.exists());

        // The merged snapshot verifies bit-identically against the
        // single-node offline collection of the union stream...
        crate::serve_cmd::verify(&with_plan(&[
            "--snapshot",
            merged_snap.to_str().unwrap(),
            "--users",
            "400",
            "--seed",
            "21",
        ]))
        .unwrap();

        // ...and `felip estimate` serves estimates straight from it.
        estimate(&with_plan(&["--snapshot", merged_snap.to_str().unwrap()])).unwrap();
        estimate(&with_plan(&[
            "--snapshot",
            merged_snap.to_str().unwrap(),
            "--grid",
            "0",
        ]))
        .unwrap();
        let out_of_range = estimate(&with_plan(&[
            "--snapshot",
            merged_snap.to_str().unwrap(),
            "--grid",
            "999",
        ]));
        assert!(out_of_range.is_err());

        let _ = std::fs::remove_dir_all(&dir);
    }
}
