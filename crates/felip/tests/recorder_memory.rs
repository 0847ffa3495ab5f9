//! A live server keeps the recorder on and answers queries for as long as
//! it runs, so nothing the recorder keeps may grow with the number of
//! answers: 200 000 warm λ=2 answers with the global recorder enabled must
//! leave this process's resident set (`VmRSS`) within a few MB of where it
//! started.
//!
//! It is the only test in this binary, so no parallel test allocates
//! beside it.
#![cfg(target_os = "linux")]

use std::time::Instant;

use felip::simulate::uniform_dataset;
use felip::{simulate, FelipConfig};
use felip_common::{Attribute, Predicate, Query, Schema};

const ANSWERS: usize = 200_000;

/// This process's resident set size in bytes, from `/proc/self/status`.
fn vm_rss() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("VmRSS line");
    kib * 1024
}

#[test]
fn warm_answers_with_the_recorder_on_do_not_grow_memory() {
    let schema = Schema::new(vec![
        Attribute::numerical("x", 64),
        Attribute::numerical("y", 64),
    ])
    .unwrap();
    let est = simulate(
        &uniform_dataset(&schema, 20_000, 1),
        &FelipConfig::new(1.0),
        7,
    )
    .unwrap();
    let query = Query::new(
        &schema,
        vec![Predicate::between(0, 4, 40), Predicate::between(1, 10, 50)],
    )
    .unwrap();

    felip_obs::enable();
    // Warm up: the first answer fits and caches the pair's response matrix
    // and registers the answer path's metrics.
    let want = est.answer(&query).unwrap();
    let before = vm_rss();
    let started = Instant::now();
    for _ in 0..ANSWERS {
        assert_eq!(est.answer(&query).unwrap().to_bits(), want.to_bits());
    }
    let elapsed = started.elapsed();
    let grown = vm_rss().saturating_sub(before);
    felip_obs::disable();

    eprintln!(
        "{ANSWERS} warm answers, recorder on: VmRSS +{:.2} MB, {:.0} ns/answer",
        grown as f64 / 1e6,
        elapsed.as_nanos() as f64 / ANSWERS as f64
    );
    assert!(
        grown < 4 << 20,
        "VmRSS grew {grown} B over {ANSWERS} warm answers with the recorder on"
    );
}
