//! The `serve`, `load` and `verify` subcommands: the streaming
//! report-ingestion path end to end.
//!
//! All three build the *same* [`CollectionPlan`] from `--attrs`/`--n`/
//! `--epsilon`/`--plan-seed`, so the plan's `schema_hash()` agrees across
//! the server, the load generator, and the offline verifier — the wire
//! handshake and the snapshot header both check it.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use felip::plan::CollectionPlan;
use felip::{FelipConfig, SelectivityPrior, Strategy};
use felip_cluster::{StreamerConfig, UpstreamStreamer};
use felip_common::rng::derive_seed;
use felip_common::Predicate;
use felip_obs::diag;
use felip_server::loadgen::{offline_reference, user_report};
use felip_server::wire::{encode_stat, read_frame, write_frame, QueryMode, StatMode};
use felip_server::{
    signal, Client, CutState, Frame, FrameKind, RetryPolicy, Server, ServerConfig, Snapshot,
};

use crate::args::{parse_schema, Flags};

type CmdResult = std::result::Result<(), Box<dyn std::error::Error>>;

/// Builds the shared collection plan from the common plan flags.
pub(crate) fn plan_from_flags(
    flags: &Flags,
) -> std::result::Result<Arc<CollectionPlan>, Box<dyn std::error::Error>> {
    let schema = parse_schema(flags.require::<String>("attrs")?.as_str())?;
    let n: usize = flags.require("n")?;
    let epsilon: f64 = flags.require("epsilon")?;
    let plan_seed: u64 = flags.get_or("plan-seed", 0)?;
    let strategy = match flags.get_or("strategy", "ohg".to_string())?.as_str() {
        "oug" | "OUG" => Strategy::Oug,
        "ohg" | "OHG" => Strategy::Ohg,
        other => return Err(format!("unknown strategy `{other}`").into()),
    };
    let selectivity: f64 = flags.get_or("selectivity", 0.5)?;
    let config = FelipConfig::new(epsilon)
        .with_strategy(strategy)
        .with_selectivity(SelectivityPrior::Uniform(selectivity));
    Ok(Arc::new(CollectionPlan::build(
        &schema, n, &config, plan_seed,
    )?))
}

/// `felip serve`: bind, ingest until SIGINT/SIGTERM, snapshot, exit 0.
///
/// With `--upstream <addr>` the server joins a cluster as an ingest node:
/// every periodic consistent cut is shipped to the aggregator as an
/// epoch-numbered count delta, and shutdown ends with a final flush of
/// the fully merged state (DESIGN.md §16).
pub fn serve(args: &[String]) -> CmdResult {
    let flags = Flags::parse(args)?;
    let plan = plan_from_flags(&flags)?;
    let streamer = match flags.get("upstream") {
        Some(upstream) => Some(UpstreamStreamer::start(StreamerConfig {
            upstream: upstream.to_string(),
            node_id: flags.get_or("node-id", 1u64)?,
            plan_hash: plan.schema_hash(),
            ..StreamerConfig::default()
        })),
        None => None,
    };
    let config = ServerConfig {
        addr: flags.get_or("addr", "127.0.0.1:4417".to_string())?,
        workers: flags.get_or("workers", 4)?,
        queue_capacity: flags.get_or("queue", 64)?,
        snapshot_path: flags.get("snapshot").map(PathBuf::from),
        snapshot_every: match flags.get_or("snapshot-every-ms", 0u64)? {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        },
        resume: flags.get("resume").map(PathBuf::from),
        read_timeout: Duration::from_millis(flags.get_or("read-timeout-ms", 5_000u64)?),
        idle_timeout: Duration::from_millis(flags.get_or("idle-timeout-ms", 30_000u64)?),
        metrics_out: flags.get("metrics-out").map(PathBuf::from),
        metrics_every: Duration::from_millis(flags.get_or("metrics-every-ms", 1_000u64)?.max(1)),
        cut_hook: streamer.as_ref().map(|s| s.hook()),
        cut_every: Duration::from_millis(flags.get_or("delta-every-ms", 200u64)?.max(1)),
    };

    // The server's telemetry is always on: STAT replies and the
    // `--metrics-out` rollup both read the live recorder, so `serve`
    // enables it unconditionally (the recorder's overhead on the ingest
    // kernel is measured by the `olh_kernel` bench binary, gated < 5 %).
    felip_obs::enable();
    if let Some(path) = flags.get("flight-out") {
        // Arm the postmortem dump: panics, SIGTERM shutdown and snapshot
        // quarantines append the flight window to this JSONL file.
        felip_obs::flight::set_postmortem_path(Some(Path::new(path)));
        felip_obs::flight::install_panic_hook();
    }

    let server = Server::bind(Arc::clone(&plan), config)?;
    let shutdown = signal::install_shutdown_handler();
    diag::line(&format!(
        "felip serve: listening on {} (plan hash {:016x}); SIGINT/SIGTERM drains and snapshots",
        server.local_addr(),
        plan.schema_hash()
    ));
    let run = server.run(Some(shutdown))?;

    // Cluster mode: flush the final merged state upstream so the
    // aggregator's view of this node is complete before we exit.
    let mut upstream_json = serde_json::Value::Null;
    if let Some(streamer) = streamer {
        let final_cut = CutState {
            counts: run.aggregator.counts().to_vec(),
            group_sizes: run.aggregator.group_sizes().to_vec(),
            reports: run.aggregator.reports_ingested() as u64,
        };
        let (flushed, report) = match streamer.finish(final_cut, Duration::from_secs(30)) {
            Ok(report) => (true, report),
            Err(report) => (false, report),
        };
        if !flushed {
            diag::error("felip serve: final delta flush did not reach the aggregator in time");
        }
        upstream_json = serde_json::json!({
            "flushed": flushed,
            "deltas_acked": report.deltas_acked,
            "full_resyncs": report.full_resyncs,
            "flushed_reports": report.flushed_reports,
        });
    }

    println!(
        "{}",
        serde_json::to_string_pretty(&serde_json::json!({
            "command": "serve",
            "reports_ingested": run.aggregator.reports_ingested(),
            "connections": run.stats.connections,
            "frames_ok": run.stats.frames_ok,
            "frames_retried": run.stats.frames_retried,
            "frames_rejected": run.stats.frames_rejected,
            "snapshots_written": run.stats.snapshots_written,
            "upstream": upstream_json,
        }))?
    );
    if upstream_json
        .get("flushed")
        .is_some_and(|f| f == &serde_json::Value::Bool(false))
    {
        return Err("final delta flush incomplete".into());
    }
    Ok(())
}

/// `felip load`: stream deterministic user reports at a running server.
pub fn load(args: &[String]) -> CmdResult {
    let flags = Flags::parse(args)?;
    let plan = plan_from_flags(&flags)?;
    let addr: String = flags.get_or("addr", "127.0.0.1:4417".to_string())?;
    let users: usize = flags.require("users")?;
    let from: usize = flags.get_or("from", 0)?;
    let connections: usize = flags.get_or::<usize>("connections", 4)?.max(1);
    let batch: usize = flags.get_or::<usize>("batch", 200)?.max(1);
    let seed: u64 = flags.get_or("seed", 42)?;

    let plan_hash = plan.schema_hash();
    let user_list: Vec<usize> = (from..from + users).collect();
    let chunk = user_list.len().div_ceil(connections).max(1);
    let totals: Vec<(usize, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = user_list
            .chunks(chunk)
            .enumerate()
            .map(|(conn, slice)| {
                let plan = Arc::clone(&plan);
                let addr = addr.clone();
                s.spawn(move || -> std::result::Result<(usize, u64, u64), String> {
                    let _conn_span = felip_obs::span!("load.connection");
                    // The identity is a pure function of (seed, from,
                    // connection index): re-running an interrupted load
                    // with the same flags resumes against the server's
                    // dedup cursor instead of double-counting, and the
                    // same identity survives mid-run reconnects.
                    let client_id = derive_seed(derive_seed(seed, from as u64), conn as u64 + 1);
                    let policy = RetryPolicy {
                        jitter_seed: client_id,
                        ..RetryPolicy::default()
                    };
                    let mut client =
                        Client::connect_with(addr.as_str(), plan_hash, client_id, policy)
                            .map_err(|e| e.to_string())?;
                    // Batches the server already accepted from this
                    // identity (an earlier run of the same load): skip
                    // them — their reports are already counted.
                    let resume_from = client.last_acked() as usize;
                    let mut sent = 0usize;
                    let mut resumed = 0u64;
                    let mut retries = 0u64;
                    for (idx, batch_users) in slice.chunks(batch).enumerate() {
                        if idx < resume_from {
                            sent += batch_users.len();
                            resumed += 1;
                            continue;
                        }
                        let reports: Vec<_> = batch_users
                            .iter()
                            .map(|&u| user_report(&plan, u, seed))
                            .collect::<Result<_, _>>()
                            .map_err(|e| e.to_string())?;
                        retries += u64::from(
                            client
                                .send_batch_retrying(&reports)
                                .map_err(|e| e.to_string())?,
                        );
                        sent += reports.len();
                        felip_obs::counter!("load.reports.sent", reports.len() as u64, "reports");
                    }
                    Ok((sent, retries, resumed))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(result) => result,
                Err(_) => Err("load connection thread panicked".to_string()),
            })
            .collect::<std::result::Result<_, _>>()
    })
    .map_err(|e: String| -> Box<dyn std::error::Error> { e.into() })?;

    let sent: usize = totals.iter().map(|(s, _, _)| s).sum();
    let retries: u64 = totals.iter().map(|(_, r, _)| r).sum();
    let resumed: u64 = totals.iter().map(|(_, _, k)| k).sum();
    println!(
        "{}",
        serde_json::to_string_pretty(&serde_json::json!({
            "command": "load",
            "addr": addr,
            "users": users,
            "from": from,
            "reports_sent": sent,
            "retries": retries,
            "batches_resumed": resumed,
            "connections": connections,
        }))?
    );
    if sent != users {
        return Err(format!("sent {sent} of {users} reports").into());
    }
    Ok(())
}

/// `felip verify`: restore a snapshot and compare it bit-for-bit against an
/// offline collection of the same deterministic report stream.
pub fn verify(args: &[String]) -> CmdResult {
    let flags = Flags::parse(args)?;
    let plan = plan_from_flags(&flags)?;
    let snapshot_path = PathBuf::from(flags.require::<String>("snapshot")?);
    let users: usize = flags.require("users")?;
    let from: usize = flags.get_or("from", 0)?;
    let seed: u64 = flags.get_or("seed", 42)?;

    let offline = offline_reference(&plan, from..from + users, seed)?;
    let snapshot = Snapshot::read(&snapshot_path)?;
    let reports_in_snapshot = snapshot.reports_ingested();
    let restored = snapshot.restore(Arc::clone(&plan), offline.oracles())?;

    let counts_equal = restored.counts() == offline.counts();
    let groups_equal = restored.group_sizes() == offline.group_sizes();
    let estimates_equal = {
        let a = restored.estimate()?;
        let b = offline.estimate()?;
        a.grids()
            .iter()
            .zip(b.grids())
            .all(|(ga, gb)| ga.freqs() == gb.freqs())
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&serde_json::json!({
            "command": "verify",
            "snapshot": snapshot_path.display().to_string(),
            "users": users,
            "from": from,
            "reports_in_snapshot": reports_in_snapshot,
            "counts_bit_identical": counts_equal,
            "group_sizes_bit_identical": groups_equal,
            "estimates_bit_identical": estimates_equal,
        }))?
    );
    if !(counts_equal && groups_equal && estimates_equal) {
        return Err("snapshot does not match the offline reference collection".into());
    }
    Ok(())
}

/// `felip stat`: poll a running server's STAT admin verb.
///
/// `--mode full` (default) fetches the complete metrics snapshot,
/// `--mode delta` the change since the previous delta poll (server-side
/// baseline), `--mode flight` the flight-recorder ring as JSONL.
/// `--format json` prints the raw server payload; the default renders a
/// summary table. `--watch <secs>` re-polls forever at that cadence.
///
/// STAT needs no plan flags: the verb is handled before plan pinning, so
/// an operator can point `felip stat` at any server without knowing its
/// schema.
pub fn stat(args: &[String]) -> CmdResult {
    let flags = Flags::parse(args)?;
    let addrs: Vec<String> = {
        let all = flags.get_all("addr");
        if all.is_empty() {
            vec!["127.0.0.1:4417".to_string()]
        } else {
            all.iter().map(|a| a.to_string()).collect()
        }
    };
    let mode = match flags.get_or("mode", "full".to_string())?.as_str() {
        "full" => StatMode::Full,
        "delta" => StatMode::Delta,
        "flight" => StatMode::Flight,
        other => return Err(format!("unknown stat mode `{other}` (full|delta|flight)").into()),
    };
    let format: String = flags.get_or("format", "table".to_string())?;
    if format != "table" && format != "json" {
        return Err(format!("unknown stat format `{format}` (table|json)").into());
    }
    let watch_secs: u64 = flags.get_or("watch", 0u64)?;
    if addrs.len() > 1 && mode == StatMode::Flight {
        return Err("--mode flight does not fan in; poll one --addr at a time".into());
    }

    loop {
        if addrs.len() == 1 {
            let payload = stat_once(&addrs[0], mode)?;
            let text =
                String::from_utf8(payload).map_err(|_| "server sent non-UTF-8 stat payload")?;
            if mode == StatMode::Flight || format == "json" {
                // Flight dumps are JSONL (multiple lines); pass them
                // through untouched either way.
                println!("{}", text.trim_end());
            } else {
                let doc = felip_obs::jsonread::parse(&text)
                    .map_err(|e| format!("server sent invalid metrics JSON: {e:?}"))?;
                print!("{}", felip_obs::render_metrics_table(&doc)?);
            }
        } else {
            // Fan-in: one poll per node, rendered as a single table with a
            // per-node column each plus the cluster sum.
            let mut texts = Vec::with_capacity(addrs.len());
            for addr in &addrs {
                let payload = stat_once(addr, mode)?;
                texts.push(
                    String::from_utf8(payload)
                        .map_err(|_| format!("{addr} sent non-UTF-8 stat payload"))?,
                );
            }
            if format == "json" {
                // One JSONL line per node, the raw payload tagged with its
                // origin — machine-readable fan-in.
                for (addr, text) in addrs.iter().zip(&texts) {
                    println!("{{\"addr\":{:?},\"stat\":{}}}", addr, text.trim_end());
                }
            } else {
                let docs = texts
                    .iter()
                    .map(|t| {
                        felip_obs::jsonread::parse(t)
                            .map_err(|e| format!("server sent invalid metrics JSON: {e:?}"))
                    })
                    .collect::<std::result::Result<Vec<_>, _>>()?;
                print!("{}", render_fanin_table(&addrs, &docs)?);
            }
        }
        if watch_secs == 0 {
            return Ok(());
        }
        std::thread::sleep(Duration::from_secs(watch_secs));
    }
}

/// Extracts `(name, unit, value)` rows from one node's parsed metrics
/// snapshot. Counters and gauges contribute their value; histograms
/// contribute their sample count (renamed `<name>.count`) so latency
/// metrics still sum meaningfully across nodes.
fn fanin_rows(doc: &felip_obs::jsonread::JsonValue) -> Result<Vec<(String, String, f64)>, String> {
    use felip_obs::jsonread::JsonValue;
    if doc.get("t").and_then(|t| t.as_str()) != Some("metrics") {
        return Err("not a metrics snapshot (missing t=\"metrics\")".into());
    }
    let Some(JsonValue::Array(metrics)) = doc.get("metrics") else {
        return Err("metrics snapshot has no \"metrics\" array".into());
    };
    let mut rows = Vec::with_capacity(metrics.len());
    for m in metrics {
        let Some(name) = m.get("name").and_then(|n| n.as_str()) else {
            continue;
        };
        let unit = m
            .get("unit")
            .and_then(|u| u.as_str())
            .unwrap_or("")
            .to_string();
        match m.get("kind").and_then(|k| k.as_str()) {
            Some("histogram") => {
                let count = m.get("count").and_then(|v| v.as_f64()).unwrap_or(0.0);
                rows.push((format!("{name}.count"), "samples".to_string(), count));
            }
            _ => {
                let value = m.get("value").and_then(|v| v.as_f64()).unwrap_or(0.0);
                rows.push((name.to_string(), unit, value));
            }
        }
    }
    Ok(rows)
}

/// Renders the multi-node fan-in table: one column per `--addr`, one
/// cluster sum column, one row per metric seen on any node (all-zero rows
/// skipped, like the single-node table).
fn render_fanin_table(
    addrs: &[String],
    docs: &[felip_obs::jsonread::JsonValue],
) -> Result<String, String> {
    let per_node: Vec<Vec<(String, String, f64)>> =
        docs.iter().map(fanin_rows).collect::<Result<_, _>>()?;

    // Row order: first-seen across nodes, so shared metrics line up and
    // node-specific ones (ingest vs aggregator) append after.
    let mut order: Vec<(String, String)> = Vec::new();
    for rows in &per_node {
        for (name, unit, _) in rows {
            if !order.iter().any(|(n, _)| n == name) {
                order.push((name.clone(), unit.clone()));
            }
        }
    }

    let value_of = |rows: &[(String, String, f64)], name: &str| -> f64 {
        rows.iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, _, v)| v)
            .unwrap_or(0.0)
    };
    let fmt = |v: f64| -> String {
        if v == 0.0 {
            "-".to_string()
        } else if v.fract() == 0.0 && v.abs() < 9e15 {
            format!("{}", v as i64)
        } else {
            format!("{v:.3}")
        }
    };

    let width = addrs.iter().map(|a| a.len()).max().unwrap_or(0).max(12);
    let mut out = format!("cluster stat ({} nodes)\n", addrs.len());
    out.push_str(&format!("  {:<44}", "metric"));
    for addr in addrs {
        out.push_str(&format!(" {addr:>width$}"));
    }
    out.push_str(&format!(" {:>width$}\n", "cluster"));
    for (name, unit) in &order {
        let values: Vec<f64> = per_node.iter().map(|rows| value_of(rows, name)).collect();
        let sum: f64 = values.iter().sum();
        if sum == 0.0 {
            continue;
        }
        let label = if unit.is_empty() {
            name.clone()
        } else {
            format!("{name} ({unit})")
        };
        out.push_str(&format!("  {label:<44}"));
        for v in &values {
            out.push_str(&format!(" {:>width$}", fmt(*v)));
        }
        out.push_str(&format!(" {:>width$}\n", fmt(sum)));
    }
    Ok(out)
}

/// Parses the `--point 0=5,2=7` specification: one equality predicate per
/// `attr=value` pair.
fn parse_point(spec: &str) -> std::result::Result<Vec<Predicate>, String> {
    spec.split(',')
        .map(|part| {
            let (attr, value) = part
                .split_once('=')
                .ok_or_else(|| format!("point spec `{part}` is not `<attr>=<value>`"))?;
            let attr: u32 = attr
                .parse()
                .map_err(|_| format!("bad attribute index `{attr}` in point spec"))?;
            let value: u32 = value
                .parse()
                .map_err(|_| format!("bad value `{value}` in point spec"))?;
            Ok(Predicate::between(attr as usize, value, value))
        })
        .collect()
}

/// Parses the `--marginal 0=2..8,1=0|2|3` specification: `lo..hi` is an
/// inclusive range, `a|b|c` a category set, a bare value an equality.
fn parse_marginal(spec: &str) -> std::result::Result<Vec<Predicate>, String> {
    spec.split(',')
        .map(|part| {
            let (attr, sel) = part
                .split_once('=')
                .ok_or_else(|| format!("marginal spec `{part}` is not `<attr>=<selection>`"))?;
            let attr: usize = attr
                .parse()
                .map_err(|_| format!("bad attribute index `{attr}` in marginal spec"))?;
            if let Some((lo, hi)) = sel.split_once("..") {
                let lo: u32 = lo
                    .parse()
                    .map_err(|_| format!("bad range start `{lo}` in marginal spec"))?;
                let hi: u32 = hi
                    .parse()
                    .map_err(|_| format!("bad range end `{hi}` in marginal spec"))?;
                Ok(Predicate::between(attr, lo, hi))
            } else if sel.contains('|') {
                let values = sel
                    .split('|')
                    .map(|v| {
                        v.parse::<u32>()
                            .map_err(|_| format!("bad category `{v}` in marginal spec"))
                    })
                    .collect::<std::result::Result<Vec<u32>, String>>()?;
                Ok(Predicate::in_set(attr, values))
            } else {
                let v: u32 = sel
                    .parse()
                    .map_err(|_| format!("bad value `{sel}` in marginal spec"))?;
                Ok(Predicate::between(attr, v, v))
            }
        })
        .collect()
}

/// `felip query` online mode: ask a running server (ingest or aggregator)
/// over the v5 `Query` wire verb.
///
/// Predicates come from `--point` (equality pairs) and/or `--marginal`
/// (ranges and category sets), joined as one conjunction. `--mode fresh`
/// forces a consistent cut per query; the default `cached` serves the
/// cached epoch when ingest has not moved. `--watch <secs>` re-asks on
/// one connection at that cadence — a live dashboard for one cell.
pub fn query_online(flags: &Flags) -> CmdResult {
    let plan = plan_from_flags(flags)?;
    let addr: String = flags.get_or("addr", "127.0.0.1:4417".to_string())?;
    let mode = match flags.get_or("mode", "cached".to_string())?.as_str() {
        "cached" => QueryMode::Cached,
        "fresh" => QueryMode::Fresh,
        other => return Err(format!("unknown query mode `{other}` (cached|fresh)").into()),
    };
    let format: String = flags.get_or("format", "table".to_string())?;
    if format != "table" && format != "json" {
        return Err(format!("unknown query format `{format}` (table|json)").into());
    }
    let watch_secs: u64 = flags.get_or("watch", 0u64)?;

    let mut predicates = Vec::new();
    if let Some(spec) = flags.get("point") {
        predicates.extend(parse_point(spec)?);
    }
    if let Some(spec) = flags.get("marginal") {
        predicates.extend(parse_marginal(spec)?);
    }
    if predicates.is_empty() {
        return Err("no predicates: pass --point and/or --marginal".into());
    }
    // An equality (or range) on a categorical attribute is a value set,
    // not a degenerate range — rewrite so `--point` works on both kinds.
    for p in &mut predicates {
        if p.attr < plan.schema().len() && plan.schema().attr(p.attr).kind.is_categorical() {
            if let felip_common::PredicateTarget::Range { lo, hi } = p.target {
                p.target = felip_common::PredicateTarget::Set((lo..=hi).collect());
            }
        }
    }
    // Validate locally before going on the wire, so a typo'd attribute
    // index fails with the schema error instead of a server reject.
    felip_common::Query::new(plan.schema(), predicates.clone())
        .map_err(|e| format!("invalid query: {e}"))?;

    let client_id = derive_seed(0xf31a9, std::process::id() as u64);
    let mut client = Client::connect_with(
        addr.as_str(),
        plan.schema_hash(),
        client_id,
        RetryPolicy::default(),
    )?;
    loop {
        let ans = client.query(predicates.clone(), mode)?;
        let staleness = ans.head_epoch - ans.epoch;
        if format == "json" {
            println!(
                "{}",
                serde_json::to_string_pretty(&serde_json::json!({
                    "command": "query",
                    "addr": addr,
                    "estimate": ans.answer,
                    "estimated_count": (ans.answer * ans.reports as f64).round() as u64,
                    "reports": ans.reports,
                    "epoch": ans.epoch,
                    "head_epoch": ans.head_epoch,
                    "staleness": staleness,
                }))?
            );
        } else {
            println!(
                "felip query @{addr}: estimate {:.6} (~{} of {} reports) epoch {} (head {}, staleness {})",
                ans.answer,
                (ans.answer * ans.reports as f64).round() as u64,
                ans.reports,
                ans.epoch,
                ans.head_epoch,
                staleness,
            );
        }
        if watch_secs == 0 {
            return Ok(());
        }
        std::thread::sleep(Duration::from_secs(watch_secs));
    }
}

/// One STAT round trip: connect, send the verb (plan hash 0 — STAT is
/// exempt from plan pinning), return the `StatReply` payload.
fn stat_once(
    addr: &str,
    mode: StatMode,
) -> std::result::Result<Vec<u8>, Box<dyn std::error::Error>> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let frame = Frame {
        kind: FrameKind::Stat,
        plan_hash: 0,
        payload: encode_stat(mode),
    };
    write_frame(&mut stream, &frame)?;
    match read_frame(&mut stream)? {
        Some(reply) if reply.kind == FrameKind::StatReply => Ok(reply.payload),
        Some(reply) => Err(format!("unexpected {:?} reply to STAT", reply.kind).into()),
        None => Err("server closed the connection before replying to STAT".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    const PLAN: &[&str] = &["--attrs", "n:64,c:4", "--n", "2000", "--epsilon", "1.0"];

    fn with_plan(extra: &[&str]) -> Vec<String> {
        let mut v = argv(PLAN);
        v.extend(argv(extra));
        v
    }

    #[test]
    fn serve_then_load_then_verify_round_trip() {
        let dir = std::env::temp_dir();
        let snap = dir.join(format!("felip-cli-serve-{}.snap", std::process::id()));
        let _ = std::fs::remove_file(&snap);

        // Bind on an ephemeral port directly (the CLI default port may be
        // taken on a shared test machine), then drive the same code paths.
        let flags = Flags::parse(&with_plan(&[])).unwrap();
        let plan = plan_from_flags(&flags).unwrap();
        let config = ServerConfig {
            snapshot_path: Some(snap.clone()),
            ..ServerConfig::default()
        };
        let server = Server::bind(Arc::clone(&plan), config).unwrap();
        let addr = server.local_addr().to_string();
        let shutdown = server.shutdown_handle();
        let t = std::thread::spawn(move || server.run(None).unwrap());

        load(&with_plan(&[
            "--addr",
            &addr,
            "--users",
            "600",
            "--connections",
            "2",
            "--seed",
            "9",
        ]))
        .unwrap();

        // STAT answers any connection — no plan flags — with a metrics
        // document, and flight mode with a JSONL dump.
        let payload = stat_once(&addr, StatMode::Full).unwrap();
        let doc = felip_obs::jsonread::parse(&String::from_utf8(payload).unwrap()).unwrap();
        assert_eq!(doc.get("t").and_then(|v| v.as_str()), Some("metrics"));
        let flight = stat_once(&addr, StatMode::Flight).unwrap();
        let first = String::from_utf8(flight).unwrap();
        let header = felip_obs::jsonread::parse(first.lines().next().unwrap()).unwrap();
        assert_eq!(header.get("t").and_then(|v| v.as_str()), Some("flight"));

        shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
        let run = t.join().unwrap();
        assert_eq!(run.aggregator.reports_ingested(), 600);

        verify(&with_plan(&[
            "--snapshot",
            snap.to_str().unwrap(),
            "--users",
            "600",
            "--seed",
            "9",
        ]))
        .unwrap();

        // A verifier expecting a different stream must fail.
        let err = verify(&with_plan(&[
            "--snapshot",
            snap.to_str().unwrap(),
            "--users",
            "601",
            "--seed",
            "9",
        ]));
        assert!(err.is_err());
        let _ = std::fs::remove_file(&snap);
    }

    #[test]
    fn online_query_round_trip() {
        let flags = Flags::parse(&with_plan(&[])).unwrap();
        let plan = plan_from_flags(&flags).unwrap();
        let server = Server::bind(Arc::clone(&plan), ServerConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        let shutdown = server.shutdown_handle();
        let t = std::thread::spawn(move || server.run(None).unwrap());

        load(&with_plan(&[
            "--addr", &addr, "--users", "300", "--seed", "3",
        ]))
        .unwrap();

        // Point + marginal predicates, both output formats, both modes.
        crate::commands::query(&with_plan(&[
            "--addr",
            &addr,
            "--point",
            "1=2",
            "--marginal",
            "0=8..40",
        ]))
        .unwrap();
        crate::commands::query(&with_plan(&[
            "--addr",
            &addr,
            "--marginal",
            "0=8..40,1=0|2",
            "--format",
            "json",
            "--mode",
            "fresh",
        ]))
        .unwrap();

        // Bad specs fail locally, before any wire traffic.
        assert!(crate::commands::query(&with_plan(&["--addr", &addr])).is_err());
        assert!(crate::commands::query(&with_plan(&["--addr", &addr, "--point", "9=1"])).is_err());
        assert!(crate::commands::query(&with_plan(&["--addr", &addr, "--point", "x"])).is_err());

        shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
        t.join().unwrap();
    }

    #[test]
    fn point_and_marginal_specs_parse() {
        assert_eq!(
            parse_point("0=5,2=7").unwrap(),
            vec![Predicate::between(0, 5, 5), Predicate::between(2, 7, 7)]
        );
        assert_eq!(
            parse_marginal("0=2..8,1=0|2|3,2=4").unwrap(),
            vec![
                Predicate::between(0, 2, 8),
                Predicate::in_set(1, vec![0, 2, 3]),
                Predicate::between(2, 4, 4),
            ]
        );
        assert!(parse_point("=5").is_err());
        assert!(parse_point("a=5").is_err());
        assert!(parse_marginal("0=2..").is_err());
        assert!(parse_marginal("0=a|b").is_err());
    }

    #[test]
    fn fanin_table_sums_nodes_and_keeps_columns_aligned() {
        let node_a = felip_obs::jsonread::parse(
            r#"{"t":"metrics","kind":"full","taken_ns":1,"metrics":[
                {"name":"server.reports.accepted","kind":"counter","unit":"reports","value":120},
                {"name":"cluster.delta.sent","kind":"counter","unit":"deltas","value":4},
                {"name":"ingest.batch","kind":"histogram","unit":"ns","count":7,"sum":700,
                 "min":1,"max":100,"mean":100.0,"p50":90.0,"p90":99.0,"p99":100.0,"p999":100.0}
            ]}"#,
        )
        .unwrap();
        let node_b = felip_obs::jsonread::parse(
            r#"{"t":"metrics","kind":"full","taken_ns":2,"metrics":[
                {"name":"server.reports.accepted","kind":"counter","unit":"reports","value":80},
                {"name":"cluster.delta.applied","kind":"counter","unit":"deltas","value":9},
                {"name":"idle.gauge","kind":"gauge","unit":"conns","value":0}
            ]}"#,
        )
        .unwrap();
        let addrs = vec!["127.0.0.1:4417".to_string(), "127.0.0.1:4490".to_string()];
        let table = render_fanin_table(&addrs, &[node_a, node_b]).unwrap();

        // Header: one column per node plus the cluster sum.
        assert!(table.contains("cluster stat (2 nodes)"), "{table}");
        assert!(table.contains("127.0.0.1:4417"), "{table}");
        assert!(table.contains("127.0.0.1:4490"), "{table}");

        // Shared metric sums across nodes; node-specific rows show a dash
        // for absent nodes; all-zero rows are dropped.
        let accepted = table
            .lines()
            .find(|l| l.contains("server.reports.accepted"))
            .unwrap();
        assert!(accepted.contains("120"), "{accepted}");
        assert!(accepted.contains("80"), "{accepted}");
        assert!(accepted.contains("200"), "{accepted}");
        let applied = table
            .lines()
            .find(|l| l.contains("cluster.delta.applied"))
            .unwrap();
        assert!(applied.contains('-'), "{applied}");
        assert!(applied.contains('9'), "{applied}");
        // Histograms fan in by sample count.
        assert!(table.contains("ingest.batch.count"), "{table}");
        assert!(!table.contains("idle.gauge"), "{table}");
    }

    #[test]
    fn stat_rejects_flight_fan_in() {
        let err = stat(&argv(&[
            "--addr",
            "127.0.0.1:1",
            "--addr",
            "127.0.0.1:2",
            "--mode",
            "flight",
        ]));
        assert!(err.is_err());
    }
}
