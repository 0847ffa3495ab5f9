//! The FELIP benchmark: three workloads at the paper's §6.2 shape, each
//! checked for correctness, each printing its end-to-end metrics (or, with
//! `--trace 1`, its per-layer metrics) as the last line of stdout.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_batch --seed 1 --seconds 12 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metrics and how the
//! layers map onto the end-to-end numbers.

mod batch;
mod layers;
mod net;
mod paper;
mod serve;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use layers::Layers;
use net::Load;
use stats::median;
use sys::CpuTicks;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// End-to-end metrics: name, unit. Every workload reports all of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("write_p50_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("cpu_ns_per_report", "ns"),
];

/// Per-layer metrics: name, unit. A traced run reports all of them; a
/// layer the workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("plan.build_ms", "ms"),
    ("collect.ms", "ms"),
    ("collect.reports", "count"),
    ("fo.perturb_ns_per_report", "ns"),
    ("fo.accumulate_ns_per_report", "ns"),
    ("aggregator.ingest_batch_ns_per_report", "ns"),
    ("aggregator.merge_ms", "ms"),
    ("fo.debias_ms", "ms"),
    ("grid.postprocess_ms", "ms"),
    ("grid.response.numnum_ms", "ms"),
    ("grid.response.numcat_ms", "ms"),
    ("grid.response.catcat_ms", "ms"),
    ("grid.response.builds", "count"),
    ("grid.response.sweeps", "count"),
    ("answer.matrix_hit_ratio", "ratio"),
    ("grid.lambda.fit_ms.l4", "ms"),
    ("grid.lambda.fit_ms.l6", "ms"),
    ("answer.warm_ms.l2", "ms"),
    ("answer.warm_ms.l4", "ms"),
    ("answer.warm_ms.l6", "ms"),
    ("query.refresh_ms", "ms"),
    ("query.refreshed_grids", "count"),
    ("query.cache.hit_ratio", "ratio"),
    ("query.staleness_max", "epochs"),
    ("wire.decode_ns_per_report", "ns"),
    ("wire.bytes_per_report", "B"),
    ("wire.floor_ms", "ms"),
    ("reactor.accept_ns_per_report", "ns"),
    ("reactor.decode_ns_per_report", "ns"),
    ("reactor.ingest_ns_per_report", "ns"),
    ("reactor.ack_ns_per_report", "ns"),
    ("reactor.flush_ns_per_report", "ns"),
    ("queue.depth_max", "count"),
    ("queue.retries", "count"),
    ("cut.residual_ms", "ms"),
    ("reactor.query_busy_share", "ratio"),
    ("loadgen.lag_p50_ms", "ms"),
    ("loadgen.lag_max_ms", "ms"),
    ("ack_p50_ms", "ms"),
    ("ack_p99_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("ack.samples", "count"),
    ("query.samples", "count"),
    ("query_rps", "1/s"),
    ("trace.layer_sum_ratio", "ratio"),
    ("overhead.write_p50_ms", "ratio"),
    ("overhead.read_p50_ms", "ratio"),
    ("overhead.cpu_ns_per_report", "ratio"),
];

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper_batch|ingest_wire|query_mixed> \
--seed <u64> --seconds <secs> --trace <0|1>";

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} needs a value", pair[0]));
        };
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => opts.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
        return Err(format!("--seconds {} outside (0, 120]", opts.seconds));
    }
    Ok(opts)
}

/// One measured window: the samples it collected and what it cost.
#[derive(Debug, Clone)]
pub struct Window {
    /// Latency of each write: a cycle, or due time → ack of a burst's
    /// last frame.
    pub write_ms: Vec<f64>,
    /// Due time → ack of each open-loop frame.
    pub ack_ms: Vec<f64>,
    /// Latency of each read: a warm answer, a query or a `Stat`.
    pub read_ms: Vec<f64>,
    /// Query round trips.
    pub query_ms: Vec<f64>,
    /// `Stat` round trips.
    pub stat_ms: Vec<f64>,
    /// Generator lag of each open-loop frame.
    pub lag_ms: Vec<f64>,
    /// Reports the window processed.
    pub reports: u64,
    /// Process CPU time spent in the window.
    pub cpu: Duration,
    /// Wall time of the window, s.
    pub secs: f64,
    /// Host idle and steal shares over the window.
    pub host: (f64, f64),
    t0: Instant,
    cpu0: Duration,
    ticks0: CpuTicks,
}

impl Window {
    /// Starts the clocks.
    pub fn start() -> Window {
        Window {
            write_ms: Vec::new(),
            ack_ms: Vec::new(),
            read_ms: Vec::new(),
            query_ms: Vec::new(),
            stat_ms: Vec::new(),
            lag_ms: Vec::new(),
            reports: 0,
            cpu: Duration::ZERO,
            secs: 0.0,
            host: (0.0, 0.0),
            t0: Instant::now(),
            cpu0: sys::process_cpu(),
            ticks0: CpuTicks::now(),
        }
    }

    /// Stops the clocks.
    pub fn stop(mut self) -> Window {
        self.secs = self.t0.elapsed().as_secs_f64();
        self.cpu = sys::process_cpu().saturating_sub(self.cpu0);
        self.host = CpuTicks::now().shares_since(&self.ticks0);
        self
    }

    /// The window's end-to-end metrics other than set-up and memory.
    fn e2e(&self) -> [(&'static str, f64); 3] {
        [
            ("write_p50_ms", median(&self.write_ms).unwrap_or(f64::NAN)),
            ("read_p50_ms", median(&self.read_ms).unwrap_or(f64::NAN)),
            (
                "cpu_ns_per_report",
                self.cpu.as_nanos() as f64 / self.reports as f64,
            ),
        ]
    }
}

/// Everything a run found out.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: cycles, answers, frames, queries.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness failures, described.
    pub failures: Vec<String>,
    /// Informational lines.
    pub notes: Vec<String>,
    /// Duration of each set-up, s.
    pub setup_s: Vec<f64>,
    /// End-to-end metrics measured by the window(s).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced runs).
    pub layers: Layers,
    /// The benchmark's spans (traced runs).
    pub spans: Vec<trace::Span>,
    /// Host idle and steal shares of each window.
    pub host: Vec<(f64, f64)>,
}

impl Outcome {
    /// Records a correctness gate.
    pub fn gate(&mut self, ok: bool, msg: String) {
        if !ok {
            self.failures.push(msg);
        }
    }

    /// Records one failed operation.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(msg);
        }
    }

    /// Counts every answer whose bits differ from the reference as failed.
    pub fn check_bits(&mut self, got: &[f64], want: &[f64], what: &str) {
        if got.len() != want.len() {
            self.fail(format!(
                "{what}: {} answers, expected {}",
                got.len(),
                want.len()
            ));
            return;
        }
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            if g.to_bits() != w.to_bits() {
                self.fail(format!("{what} {i}: {g} differs from reference {w}"));
            }
        }
    }

    /// Adds an informational line.
    pub fn note(&mut self, msg: &str) {
        self.notes.push(msg.to_string());
    }

    /// Takes the end-to-end metrics from an untraced window.
    pub fn window(&mut self, w: &Window) {
        self.e2e.extend(w.e2e());
        self.host.push(w.host);
        let spread = |v: &[f64]| stats::quartile_spread(v).unwrap_or(f64::NAN);
        self.note(&format!(
            "window {:.2} s: {} writes (IQR/median {:.3}), {} reads (IQR/median {:.3})",
            w.secs,
            w.write_ms.len(),
            spread(&w.write_ms),
            w.read_ms.len(),
            spread(&w.read_ms)
        ));
    }

    /// Takes the end-to-end metrics from the untraced half of a traced run
    /// and records how much the traced half differs: the tracing overhead.
    pub fn traced(&mut self, untraced: &Window, traced: &Window) {
        self.window(untraced);
        self.host.push(traced.host);
        for ((name, off), (_, on)) in untraced.e2e().into_iter().zip(traced.e2e()) {
            let key = match name {
                "write_p50_ms" => "overhead.write_p50_ms",
                "read_p50_ms" => "overhead.read_p50_ms",
                _ => "overhead.cpu_ns_per_report",
            };
            self.layers.insert(key, on / off - 1.0);
        }
    }

    /// Takes the load side's operation counts and failures.
    pub fn absorb(&mut self, load: &Load) {
        self.attempted += load.failures.attempted;
        self.failed += load.failures.failed;
        self.failures.extend(load.failures.first.iter().cloned());
        if let Some(w) = &load.writer {
            self.layers
                .insert("queue.retries", w.tracker.retries as f64);
        }
    }

    fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }
}

/// Runs `setup` `SETUPS` times, recording each duration, and keeps the
/// last result (earlier ones are dropped, stopping their servers).
pub fn timed_setup<T, E>(
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<T, E>,
) -> Result<T, E> {
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup()?);
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    Ok(kept.expect("SETUPS > 0"))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Host and build facts, so a disturbed host can be told apart from a
/// regression.
fn env_json(out: &Outcome) -> String {
    let rev = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        None
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_default();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let host: Vec<String> = out
        .host
        .iter()
        .map(|(idle, steal)| {
            format!(
                "{{\"idle_share\":{},\"steal_share\":{}}}",
                json_num(*idle),
                json_num(*steal)
            )
        })
        .collect();
    format!(
        "{{\"git_rev\":{},\"cpu_model\":{},\"nproc\":{},\"rustc\":{},\"kernel\":{},\"windows\":[{}]}}",
        json_str(rev.as_deref().unwrap_or("unknown: not a git checkout")),
        json_str(&cpu),
        nproc,
        json_str(&command_line("rustc", &["--version"]).unwrap_or_default()),
        json_str(kernel.trim()),
        host.join(",")
    )
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    let result = match opts.workload.as_str() {
        "paper_batch" => batch::run(&opts, &mut out),
        "ingest_wire" => serve::run(serve::Mix::IngestOnly, &opts, &mut out),
        "query_mixed" => serve::run(serve::Mix::WithQueries, &opts, &mut out),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        out.fail(format!("workload error: {e}"));
    }
    out.e2e
        .insert("setup_s", median(&out.setup_s).unwrap_or(f64::NAN));
    out.e2e.insert("peak_rss_mb", sys::peak_rss_mb());
    for name in ["write_p50_ms", "read_p50_ms", "cpu_ns_per_report"] {
        let v = out.e2e.get(name).copied().unwrap_or(f64::NAN);
        out.gate(
            v.is_finite() && v > 0.0,
            format!("{name} = {v} is not a measurement"),
        );
    }
    report(&opts, &out);
}

/// Prints the report and writes the result files; the last stdout line is
/// the result object.
fn report(opts: &Opts, out: &Outcome) {
    let stdout = std::io::stdout();
    let mut o = stdout.lock();
    let _ = writeln!(
        o,
        "perfbench {} seed {} seconds {} trace {}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );
    for n in &out.notes {
        let _ = writeln!(o, "  note: {n}");
    }
    for f in &out.failures {
        let _ = writeln!(o, "  FAILED: {f}");
    }
    let _ = writeln!(o, "  set-ups (s): {:?}", out.setup_s);
    for (name, unit) in END_TO_END {
        let v = out.e2e.get(name).copied().unwrap_or(f64::NAN);
        let _ = writeln!(o, "  {name:<24} {v:>14.6} {unit}");
    }
    let env = env_json(out);
    let _ = writeln!(o, "env {env}");

    if opts.trace {
        for (name, unit) in PER_LAYER {
            let v = out.layers.get(name).copied().unwrap_or(0.0);
            let _ = writeln!(o, "  layer {name:<38} {v:>14.6} {unit}");
        }
        let table = trace::self_times(&out.spans);
        let _ = writeln!(
            o,
            "  {:<28} {:>7} {:>12} {:>12}",
            "span", "calls", "total_ms", "self_ms"
        );
        for (name, t) in &table {
            let _ = writeln!(
                o,
                "  {name:<28} {:>7} {:>12.3} {:>12.3}",
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    let (table, values) = if opts.trace {
        (PER_LAYER, &out.layers)
    } else {
        (END_TO_END, &out.e2e)
    };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            // A layer the workload does not exercise reads 0; a missing
            // end-to-end value has already failed a gate.
            let v = values.get(name).copied().filter(|v| v.is_finite());
            let v = json_num(v.unwrap_or(0.0));
            format!(
                "{}:{{\"value\":{v},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    let line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );

    let dir = out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload, opts.seed, opts.trace as u8
    );
    if std::fs::create_dir_all(&dir).is_ok() {
        let e2e: Vec<String> = END_TO_END
            .iter()
            .map(|(n, _)| {
                format!(
                    "{}:{}",
                    json_str(n),
                    json_num(out.e2e.get(n).copied().unwrap_or(f64::NAN))
                )
            })
            .collect();
        let full = format!(
            "{{\"result\":{line},\"end_to_end\":{{{}}},\"setup_s\":[{}],\"env\":{env},\"failures\":[{}]}}\n",
            e2e.join(","),
            out.setup_s.iter().map(|v| json_num(*v)).collect::<Vec<_>>().join(","),
            out.failures.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(",")
        );
        let _ = std::fs::write(dir.join(format!("{stem}.json")), full);
        if opts.trace {
            let spans_path = dir.join(format!("{stem}.spans.jsonl"));
            if let Ok(mut f) = std::fs::File::create(&spans_path) {
                let _ = trace::write_jsonl(&out.spans, &mut f);
                let _ = writeln!(o, "  spans: {}", spans_path.display());
            }
        }
    }
    let _ = writeln!(o, "{line}");
    let _ = o.flush();
    drop(o);
    if !out.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(file: &str) -> serde_json::Value {
        let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("readable");
        serde_json::from_str(&text).expect("valid JSON")
    }

    fn pairs(list: &serde_json::Value, a: &str, b: &str) -> Vec<(String, String)> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|m| {
                let s = |k: &str| m[k].as_str().expect("a string").to_string();
                (s(a), s(b))
            })
            .collect()
    }

    fn owned(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect()
    }

    /// BENCHMARK.json, workloads.json and the code name the same metrics
    /// and workloads.
    #[test]
    fn benchmark_files_match_the_code() {
        let bench = json("../BENCHMARK.json");
        assert_eq!(
            pairs(&bench["end_to_end"], "name", "unit"),
            owned(END_TO_END)
        );
        assert_eq!(pairs(&bench["per_layer"], "name", "unit"), owned(PER_LAYER));
        let names: Vec<String> = pairs(&bench["workloads"], "name", "why")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, ["paper_batch", "ingest_wire", "query_mixed"]);
        let record = json("workloads.json");
        for n in &names {
            assert!(
                record["workloads"][n.as_str()]["why"].as_str().is_some(),
                "{n}"
            );
        }
    }
}
