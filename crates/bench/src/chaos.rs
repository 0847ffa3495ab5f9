//! The `chaos` binary: the CLI front end of the deterministic
//! fault-injection harness (`felip_server::simharness`).
//!
//! Runs the standard chaos mix over a seed range (or one `--seed N`, which
//! is how a failing CI seed is reproduced locally) and, with `--out PATH`,
//! writes a JSON summary. Any invariant violation prints the seed and
//! fails the process, so CI surfaces the exact reproduction command.

use felip_server::simharness::{run_sim, SimConfig, SimReport};
use serde_json::{json, Value};

use crate::profile::parse;

/// Options of the `chaos` binary.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Seeds `0..seeds` to sweep (ignored when `seed` is set).
    pub seeds: u64,
    /// Run exactly one seed — the reproduction path for a CI failure.
    pub seed: Option<u64>,
    /// Output JSON path (`None` → print the per-seed lines only).
    pub out: Option<String>,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seeds: 64,
            seed: None,
            out: None,
        }
    }
}

impl ChaosOptions {
    /// Parses `--seeds N`, `--seed N` and `--out PATH`. Unknown flags and
    /// malformed values exit 2 with a usage message.
    pub fn from_args(mut args: impl Iterator<Item = String>) -> Self {
        let mut opts = ChaosOptions::default();
        while let Some(a) = args.next() {
            let mut take = |name: &str| -> String {
                args.next().unwrap_or_else(|| {
                    felip_obs::diag::usage_exit(&format!("missing value for {name}"))
                })
            };
            match a.as_str() {
                "--seeds" => opts.seeds = parse(&take("--seeds")),
                "--seed" => opts.seed = Some(parse(&take("--seed"))),
                "--out" => opts.out = Some(take("--out")),
                other => felip_obs::diag::usage_exit(&format!(
                    "unknown flag `{other}`\nusage: chaos [--seeds N] [--seed N] [--out PATH]"
                )),
            }
        }
        opts
    }
}

fn report_json(r: &SimReport) -> Value {
    json!({
        "seed": r.seed,
        "ok": r.ok(),
        "events": r.events,
        "trace_hash": format!("{:#018x}", r.trace_hash),
        "counts_digest": format!("{:#018x}", r.counts_digest),
        "reports_ingested": r.reports_ingested,
        "server_acked_batches": r.server_acked_batches,
        "duplicates": r.duplicates,
        "faults_injected": r.faults_injected,
        "snapshots_quarantined": r.snapshots_quarantined,
        "kills": r.kills,
        "gave_up": r.gave_up,
        "queries_answered": r.queries_answered,
        "query_warm_hits": r.query_warm_hits,
        "flight_total": r.flight_total,
        "flight_digest": format!("{:#018x}", r.flight_digest),
        "violations": r.violations,
    })
}

/// Runs the sweep, prints one line per seed, writes the JSON summary when
/// asked to, and returns an error naming every failing seed (CI turns that
/// into a red build with the reproduction command in the log).
pub fn chaos_sweep(opts: &ChaosOptions) -> std::io::Result<()> {
    let seeds: Vec<u64> = match opts.seed {
        Some(s) => vec![s],
        None => (0..opts.seeds).collect(),
    };
    println!(
        "chaos: {} seed(s), every fault kind armed, kill+resume per seed",
        seeds.len()
    );
    let mut reports = Vec::with_capacity(seeds.len());
    let mut failing: Vec<u64> = Vec::new();
    for &seed in &seeds {
        let r = run_sim(&SimConfig::chaos(seed));
        println!(
            "seed {:>4}  events {:>5}  acked {:>3}  faults {:>3}  dup {:>2}  quarantined {}  {}",
            r.seed,
            r.events,
            r.server_acked_batches,
            r.faults_injected,
            r.duplicates,
            r.snapshots_quarantined,
            if r.ok() { "ok" } else { "FAIL" }
        );
        for v in &r.violations {
            felip_obs::diag::error(&format!("seed {seed}: {v}"));
        }
        if !r.ok() {
            failing.push(seed);
        }
        reports.push(r);
    }
    if let Some(out) = &opts.out {
        let doc = json!({
            "bench": "chaos_sim",
            "seeds": seeds,
            "failing": failing,
            "runs": reports.iter().map(report_json).collect::<Vec<_>>(),
        });
        std::fs::write(out, serde_json::to_string_pretty(&doc).expect("serialize"))?;
        println!("wrote {out}");
    }
    if !failing.is_empty() {
        return Err(std::io::Error::other(format!(
            "chaos invariant violated for seed(s) {failing:?}; reproduce with \
             `cargo run --release -p bench --bin chaos -- --seed N`"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_seed_run_writes_summary() {
        let out =
            std::env::temp_dir().join(format!("felip-chaos-test-{}.json", std::process::id()));
        let opts = ChaosOptions::from_args(
            ["--seed", "5", "--out", out.to_str().unwrap()]
                .into_iter()
                .map(String::from),
        );
        chaos_sweep(&opts).unwrap();
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(doc["failing"].as_array().unwrap().len(), 0);
        assert_eq!(doc["runs"].as_array().unwrap().len(), 1);
        assert_eq!(doc["runs"][0]["seed"], 5);
        let _ = std::fs::remove_file(&out);
    }
}
