//! The chaos sweep: many seeds through the deterministic fault-injection
//! harness, asserting the exactly-once-or-rejected invariant under every
//! fault kind, kill+resume with torn snapshot writes included.
//!
//! A seed that fails here reproduces exactly with
//! `cargo run --release -p bench --bin chaos -- --seed N`.

use std::collections::HashSet;

use felip_server::fault::FaultConfig;
use felip_server::simharness::{
    minimize_failing_seed, replay_token, run_sim, run_sim_suppressed, SimConfig,
};

/// On failure, shrink the seed's fault schedule and report the replay
/// token — `replay_token(&cfg, "<token>")` reproduces the minimized run.
fn assert_seed_ok(cfg: &SimConfig, r: &felip_server::SimReport) {
    if r.ok() {
        return;
    }
    let shrunk = minimize_failing_seed(cfg);
    panic!(
        "seed {} violated invariants: {:?}\nreplay token: {}\nminimized: {:?}",
        r.seed,
        r.violations,
        r.fault_token,
        shrunk.map(|m| (m.token, m.faults, m.report.violations)),
    );
}

#[test]
fn chaos_sweep_holds_exactly_once_or_rejected_across_64_seeds() {
    let mut faults = 0u64;
    let mut quarantined = 0u64;
    let mut duplicates = 0u64;
    let mut acked = 0usize;
    let mut queries = 0u64;
    let mut warm = 0u64;
    let mut rewinds = 0u64;
    for seed in 0..64u64 {
        let cfg = SimConfig::chaos(seed);
        let r = run_sim(&cfg);
        assert_seed_ok(&cfg, &r);
        assert_eq!(r.kills, 1, "seed {seed} must kill and resume once");
        // Every seed mixes queries into the faulted ingest; the harness
        // itself holds each answer to its cut (bit-identical to the
        // offline estimate, cut == ingest head, cold after kill+resume) —
        // here we pin that the mixing is never vacuous.
        assert!(r.queries_answered > 0, "seed {seed} answered no queries");
        faults += r.faults_injected;
        quarantined += r.snapshots_quarantined;
        duplicates += r.duplicates;
        acked += r.server_acked_batches;
        queries += r.queries_answered;
        warm += r.query_warm_hits;
        rewinds += r.rewinds;
    }
    // The sweep must actually exercise chaos, not pass vacuously.
    assert!(acked > 64, "sweep accepted almost nothing: {acked} batches");
    assert!(faults > 64, "sweep injected too few faults: {faults}");
    assert!(
        duplicates >= 1,
        "no duplicate delivery was ever suppressed across the sweep"
    );
    // Torn snapshot writes fire at ~20% per kill; 64 kills make at least
    // one quarantine overwhelmingly likely (and deterministic per seed).
    assert!(
        quarantined >= 1,
        "no snapshot corruption was exercised across the sweep"
    );
    // Crash restores must show some client a server cursor behind its
    // own, so the shipped client core's resend path runs.
    assert!(
        rewinds >= 1,
        "no crash restore ever rewound a client cursor"
    );
    // The query mix must exercise both cache paths across the sweep:
    // answers while ingest moves (cold/invalidated) and warm hits.
    assert!(queries > 64, "sweep answered too few queries: {queries}");
    assert!(
        warm >= 1 && warm < queries,
        "cache path coverage degenerated: {warm}/{queries} warm"
    );
}

#[test]
fn every_seed_is_bit_identical_on_replay() {
    for seed in [0u64, 3, 17, 42, 63] {
        let a = run_sim(&SimConfig::chaos(seed));
        let b = run_sim(&SimConfig::chaos(seed));
        assert_eq!(a, b, "seed {seed}: replay diverged");
    }
}

#[test]
fn heavy_fault_rates_still_settle_observably() {
    // An order of magnitude more chaos than the standard mix: clients may
    // exhaust their budgets, but every outcome must stay typed — either
    // accepted exactly once or given up, never silent loss.
    let faults = FaultConfig {
        drop_ppm: 60_000,
        truncate_ppm: 40_000,
        duplicate_ppm: 60_000,
        reorder_ppm: 60_000,
        corrupt_ppm: 40_000,
        reset_ppm: 30_000,
        stall_ppm: 30_000,
        snapshot_corrupt_ppm: 500_000,
    };
    for seed in 0..8u64 {
        let cfg = SimConfig {
            faults,
            ..SimConfig::chaos(seed)
        };
        let r = run_sim(&cfg);
        assert_seed_ok(&cfg, &r);
        assert!(r.faults_injected > 0, "seed {seed} injected nothing");
    }
}

#[test]
fn fault_token_replays_bit_identically() {
    let cfg = SimConfig::chaos(42);
    let r = run_sim(&cfg);
    assert_eq!(r.fault_token, "seed=42");
    let replayed = replay_token(&cfg, &r.fault_token).expect("token parses");
    assert_eq!(r, replayed, "token replay diverged");
}

#[test]
fn suppressing_every_fault_reduces_chaos_to_lossless_behaviour() {
    // A seed whose faults are all frame faults: a torn snapshot write is
    // not suppressible, so a seed with one never calms down.
    let cfg = SimConfig::chaos(19);
    let chaotic = run_sim(&cfg);
    assert!(chaotic.faults_injected > 0, "seed 19 must inject something");
    // Suppress every fault that fired; the re-run may fire faults at new
    // indices (the event flow changed), so iterate to a fixed point.
    let mut suppressed: HashSet<u64> = HashSet::new();
    let calm = loop {
        let r = run_sim_suppressed(&cfg, &suppressed);
        if r.faults_injected == 0 {
            break r;
        }
        suppressed.extend(r.faults_fired.iter().map(|&(i, _)| i));
    };
    assert!(calm.ok(), "suppressed run failed: {:?}", calm.violations);
    assert_eq!(calm.faults_injected, 0);
    assert!(calm.fault_token.starts_with("seed=19;suppress="));
    // And the token round-trips the suppressed run exactly.
    let replayed = replay_token(&cfg, &calm.fault_token).expect("token parses");
    assert_eq!(calm, replayed, "suppressed-token replay diverged");
}

#[test]
fn flight_dump_reconstructs_the_last_events_bit_identically_per_seed() {
    // The sim run itself asserts (via its verify pass) that the flight
    // ring's dump equals the shadow log's tail event-for-event; here we
    // additionally pin that the dump is a pure function of the seed, and
    // that chaos runs actually wrap the ring (dropped prefix > 0).
    for seed in [0u64, 11, 42] {
        let a = run_sim(&SimConfig::chaos(seed));
        let b = run_sim(&SimConfig::chaos(seed));
        assert!(a.ok(), "seed {seed}: {:?}", a.violations);
        assert_eq!(
            a.flight_digest, b.flight_digest,
            "seed {seed}: flight dump diverged across identical runs"
        );
        assert!(
            a.flight_total > 64,
            "seed {seed}: chaos run must wrap the 64-slot ring, recorded {}",
            a.flight_total
        );
    }
}

#[test]
fn minimizer_returns_none_for_passing_seeds() {
    assert!(minimize_failing_seed(&SimConfig::chaos(1)).is_none());
}

#[test]
fn lossless_baseline_is_perfect_delivery() {
    for seed in 0..4u64 {
        let r = run_sim(&SimConfig::lossless(seed));
        assert!(r.ok(), "seed {seed}: {:?}", r.violations);
        assert_eq!(r.reports_ingested, 240, "seed {seed} lost reports");
        assert_eq!(r.gave_up, 0);
        assert_eq!(r.faults_injected, 0);
        assert_eq!(r.snapshots_quarantined, 0);
    }
}
