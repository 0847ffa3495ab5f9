//! Seeded-RNG audit: every frequency oracle must be a pure function of
//! (parameters, value, RNG stream). Two collections driven by the same seed
//! are bit-identical — reports, counts, and estimates alike — and different
//! seeds actually consume the stream (the perturbations differ). This guards
//! the RNG-stream-preserving contract the batched ingestion paths rely on:
//! any refactor that reorders, drops, or adds RNG draws changes the reports
//! and fails these tests.

use felip_common::rng::seeded_rng;
use felip_fo::{FrequencyOracle, Grr, Olh, Report, SquareWave};

const DOMAIN: u32 = 64;
const USERS: usize = 2_000;
const EPSILON: f64 = 1.0;

/// Perturbs a fixed value stream under one seed and returns the reports.
fn collect(oracle: &dyn FrequencyOracle, seed: u64) -> Vec<Report> {
    let mut rng = seeded_rng(seed);
    (0..USERS)
        .map(|u| oracle.perturb((u as u32 * 7 + 3) % DOMAIN, &mut rng))
        .collect()
}

/// Same seed → bit-identical reports, support counts, and estimates;
/// different seeds → at least one report differs.
fn audit(oracle: &dyn FrequencyOracle, name: &str) {
    let a = collect(oracle, 42);
    let b = collect(oracle, 42);
    assert_eq!(a, b, "{name}: same seed must replay bit-identically");

    let mut counts_a = vec![0u64; DOMAIN as usize];
    let mut counts_b = vec![0u64; DOMAIN as usize];
    oracle.accumulate_batch(&a, &mut counts_a).unwrap();
    oracle.accumulate_batch(&b, &mut counts_b).unwrap();
    assert_eq!(counts_a, counts_b, "{name}: counts must match");

    let est_a = oracle.aggregate(&a).unwrap();
    let est_b = oracle.aggregate(&b).unwrap();
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&est_a),
        bits(&est_b),
        "{name}: estimates must be bit-identical"
    );

    let c = collect(oracle, 43);
    assert_ne!(
        a, c,
        "{name}: a different seed must produce different perturbations"
    );
}

#[test]
fn grr_rng_stream_is_reproducible() {
    audit(&Grr::new(EPSILON, DOMAIN), "GRR");
}

#[test]
fn olh_rng_stream_is_reproducible() {
    audit(&Olh::new(EPSILON, DOMAIN), "OLH");
}

/// Square Wave reports are raw `f64`s and its estimator is EM-based, so it
/// lives outside the `FrequencyOracle` trait — audit it directly.
#[test]
fn square_wave_rng_stream_is_reproducible() {
    let sw = SquareWave::new(EPSILON, DOMAIN);
    let collect = |seed: u64| {
        let mut rng = seeded_rng(seed);
        (0..USERS)
            .map(|u| sw.perturb((u as u32 * 7 + 3) % DOMAIN, &mut rng).to_bits())
            .collect::<Vec<u64>>()
    };
    let a = collect(42);
    let b = collect(42);
    assert_eq!(a, b, "SW: same seed must replay bit-identically");

    let to_f64 = |v: &[u64]| v.iter().map(|&x| f64::from_bits(x)).collect::<Vec<f64>>();
    let est_a = sw.estimate(&to_f64(&a), 256, 20);
    let est_b = sw.estimate(&to_f64(&b), 256, 20);
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&est_a), bits(&est_b), "SW: estimates must match");

    let c = collect(43);
    assert_ne!(a, c, "SW: a different seed must differ");
}
