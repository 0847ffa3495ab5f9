//! `olh_kernel`: the batched OLH support-counting kernel against the
//! per-report scalar path, and the recorder's overhead on the kernel.
//!
//! Sweeps `d ∈ {16, 31, 64, 1024, 16384}` — from the paper's §6.2 grids
//! (16- and 31-cell axes at ε = 1) to domains several value blocks wide,
//! where OLH's `O(|reports| × d)` support counting is split across workers —
//! timing ingest + aggregate (support counting, then de-biasing) through
//! [`FrequencyOracle::accumulate_batch`] and through
//! [`FrequencyOracle::accumulate`] in a loop. Then times the `d = 16384`
//! batched path with the global recorder off and on (`overhead_pct`; CI
//! fails above 5 %). Takes no flags and prints one JSON line.
//!
//! ```bash
//! cargo run --release -p bench --bin olh_kernel
//! ```

use std::hint::black_box;
use std::time::Instant;

use felip_common::rng::seeded_rng;
use felip_fo::{FrequencyOracle, Olh, Report};
use serde_json::{json, Value};

/// Domain sizes swept; the last one also times the recorder overhead.
const DOMAINS: [u32; 5] = [16, 31, 64, 1024, 16_384];

/// Privacy budget (g = 4, the paper's default ε).
const EPSILON: f64 = 1.0;

/// Hash evaluations per sweep point (`n = work / d` reports).
const SWEEP_WORK: u64 = 1 << 24;

/// Hash evaluations for the recorder-overhead measurement (n = 64 reports
/// at d = 16384).
const OBS_WORK: u64 = 1 << 20;

/// Timed repetitions per measurement (best of).
const REPEATS: usize = 3;

/// Best-of-[`REPEATS`] wall-clock seconds for `f`.
fn best_seconds(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPEATS {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// `n = work / d` (at least 64) perturbed reports at domain `d`.
fn reports(olh: &Olh, d: u32, work: u64) -> Vec<Report> {
    let n = (work / d as u64).max(64) as usize;
    let mut rng = seeded_rng(0xBE2C ^ d as u64);
    (0..n)
        .map(|i| olh.perturb(i as u32 % d, &mut rng))
        .collect()
}

/// Batched and scalar ingest + aggregate throughput at one domain size.
fn sweep_point(d: u32, work: u64) -> Value {
    let olh = Olh::new(EPSILON, d);
    let reports = reports(&olh, d, work);
    let n = reports.len();
    let batched = best_seconds(|| {
        let mut counts = vec![0u64; d as usize];
        olh.accumulate_batch(black_box(&reports), &mut counts)
            .unwrap();
        black_box(olh.estimate_from_counts(&counts, n));
    });
    let scalar = best_seconds(|| {
        let mut counts = vec![0u64; d as usize];
        for r in black_box(&reports) {
            olh.accumulate(r, &mut counts).unwrap();
        }
        black_box(olh.estimate_from_counts(&counts, n));
    });
    json!({
        "d": d,
        "n": n,
        "batched_reports_per_sec": n as f64 / batched,
        "scalar_reports_per_sec": n as f64 / scalar,
        "batched_speedup": scalar / batched,
    })
}

/// Times the `d = 16384` batched path with the recorder disabled, then
/// enabled, and restores the recorder's prior state.
///
/// The instrumentation inside the timed region is the per-batch dispatch
/// and report counters in [`Olh::accumulate_batch`], i.e. exactly what a
/// production ingest pays per batch, plus one flight-ring event per batch
/// in the enabled run — the serve hot path records one ring event per
/// frame, so the < 5 % gate covers the seqlock writer too.
fn obs_overhead(work: u64) -> Value {
    let d = DOMAINS[DOMAINS.len() - 1];
    let olh = Olh::new(EPSILON, d);
    let reports = reports(&olh, d, work);
    let n = reports.len();
    let was_enabled = felip_obs::global().is_enabled();
    let timed = |on: bool| {
        felip_obs::global().set_enabled(on);
        best_seconds(|| {
            let mut counts = vec![0u64; d as usize];
            olh.accumulate_batch(black_box(&reports), &mut counts)
                .unwrap();
            if on {
                felip_obs::flight::flight().record(
                    felip_obs::flight::KIND_FRAME,
                    1,
                    0,
                    reports.len() as u64,
                );
            }
            black_box(olh.estimate_from_counts(&counts, n));
        })
    };
    let disabled = timed(false);
    let enabled = timed(true);
    felip_obs::global().set_enabled(was_enabled);
    json!({
        "work": work,
        "d": d,
        "n": n,
        "compiled_out": felip_obs::COMPILED_OUT,
        "flight_ring_enabled": true,
        "disabled_reports_per_sec": n as f64 / disabled,
        "enabled_reports_per_sec": n as f64 / enabled,
        // Negative values are measurement noise: enabled ran faster.
        "overhead_pct": (enabled / disabled - 1.0) * 100.0,
    })
}

fn run(sweep_work: u64, obs_work: u64) -> Value {
    json!({
        "bench": "olh_kernel",
        "epsilon": EPSILON,
        "repeats": REPEATS,
        "work": sweep_work,
        "sweep": DOMAINS.iter().map(|&d| sweep_point(d, sweep_work)).collect::<Vec<_>>(),
        "obs": obs_overhead(obs_work),
    })
}

fn main() {
    if let Some(flag) = std::env::args().nth(1) {
        felip_obs::diag::usage_exit(&format!(
            "unknown flag `{flag}`\nusage: olh_kernel (takes no flags)"
        ));
    }
    let doc = run(SWEEP_WORK, OBS_WORK);
    println!("{}", serde_json::to_string(&doc).expect("serialize"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_has_every_field() {
        let doc = run(1 << 12, 1 << 12);
        let sweep = doc["sweep"].as_array().unwrap();
        assert_eq!(sweep.len(), DOMAINS.len());
        for p in sweep {
            assert!(p["batched_reports_per_sec"].as_f64().unwrap() > 0.0);
            assert!(p["batched_speedup"].as_f64().unwrap() > 0.0);
        }
        assert_eq!(doc["obs"]["d"], 16_384);
        assert_eq!(doc["obs"]["n"], 64);
        assert!(doc["obs"]["overhead_pct"].as_f64().unwrap().is_finite());
    }
}
