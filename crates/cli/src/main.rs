//! `felip` — end-to-end command line for the FELIP reproduction.
//!
//! ```text
//! felip plan    --attrs n:256,n:256,c:8 --n 100000 --epsilon 1.0 [--strategy ohg]
//! felip run     --dataset ipums --n 100000 --epsilon 1.0 --lambda 2 --queries 10
//! felip compare --dataset normal --n 100000 --epsilon 1.0 --lambda 3
//! felip query   --csv data.csv --columns age:n:16,edu:c:8 --epsilon 1.0 \
//!               --where "age BETWEEN 4 AND 11 AND edu IN (0, 1)"
//! ```
//!
//! * `plan` prints the collection plan FELIP would use for a schema: every
//!   grid, its size, and the protocol the adaptive oracle picked — useful to
//!   understand what the optimiser does before any data is collected.
//! * `run` generates a synthetic dataset, runs one FELIP collection under
//!   ε-LDP, answers a random query workload, and reports per-query estimates
//!   plus the MAE, as JSON.
//! * `compare` runs OUG, OHG and HIO on the same dataset/workload and
//!   reports their MAEs side by side.
//! * `query` loads a real CSV file, discretises it, collects it once under
//!   ε-LDP, and answers a SQL-`WHERE`-style query — the full adoption path.

use std::process::ExitCode;

use felip_obs::diag;

mod args;
mod cluster_cmd;
mod commands;
mod serve_cmd;

/// Global observability flags, valid on every subcommand. They are
/// stripped from argv *before* dispatch so the subcommands' strict
/// `--key value` flag grammar (which has no boolean flags) is unaffected.
struct ObsFlags {
    /// Write the JSONL trace here after the command finishes.
    trace_out: Option<String>,
    /// Print the metric/stage summary table to stderr at the end.
    metrics: bool,
}

fn extract_obs_flags(argv: &mut Vec<String>) -> Result<ObsFlags, String> {
    let mut trace_out = None;
    let mut metrics = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--trace-out" => {
                if i + 1 >= argv.len() {
                    return Err("missing value for --trace-out".into());
                }
                trace_out = Some(argv.remove(i + 1));
                argv.remove(i);
            }
            "--metrics" => {
                metrics = true;
                argv.remove(i);
            }
            _ => i += 1,
        }
    }
    Ok(ObsFlags { trace_out, metrics })
}

/// Writes the trace file and/or summary table the user asked for.
fn finish_obs(obs: &ObsFlags) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(path) = &obs.trace_out {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        felip_obs::global().export_jsonl(&mut f)?;
        f.flush()?;
    }
    if obs.metrics {
        let doc: serde_json::Value =
            serde_json::from_str(&felip_obs::global().metrics_snapshot().to_json())
                .map_err(std::io::Error::other)?;
        let table = serve_cmd::render_metrics_table(&doc).map_err(std::io::Error::other)?;
        diag::line(&table);
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let obs = match extract_obs_flags(&mut argv) {
        Ok(o) => o,
        Err(msg) => {
            diag::error(&msg);
            return ExitCode::from(2);
        }
    };
    if obs.trace_out.is_some() || obs.metrics {
        felip_obs::enable();
    }
    let Some((cmd, rest)) = argv.split_first() else {
        diag::line(args::USAGE);
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "plan" => commands::plan(rest),
        "run" => commands::run(rest),
        "compare" => commands::compare(rest),
        "query" => commands::query(rest),
        "serve" => serve_cmd::serve(rest),
        "aggregate" => cluster_cmd::aggregate(rest),
        "estimate" => cluster_cmd::estimate(rest),
        "load" => serve_cmd::load(rest),
        "verify" => serve_cmd::verify(rest),
        "stat" => serve_cmd::stat(rest),
        "--help" | "-h" | "help" => {
            println!("{}", args::USAGE);
            Ok(())
        }
        other => {
            diag::line(&format!("unknown command `{other}`\n{}", args::USAGE));
            return ExitCode::from(2);
        }
    };
    // Emit observability output even when the command failed — a failed
    // run's trace is exactly the one worth reading.
    if let Err(e) = finish_obs(&obs) {
        diag::error(&format!("failed to write trace: {e}"));
        return ExitCode::FAILURE;
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            diag::error(&e.to_string());
            ExitCode::FAILURE
        }
    }
}
