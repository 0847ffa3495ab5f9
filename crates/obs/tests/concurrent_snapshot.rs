//! Property test for the snapshot/recorder race (DESIGN.md §11): metric
//! snapshots are captured *while* writer threads hammer the recorder, and
//! no capture may ever observe a torn histogram. The load-bearing
//! invariant is `Σ buckets == count` on every capture — the bucket
//! increment is the observation's single commit point, so a histogram can
//! never claim observations its buckets don't hold (the skew that made
//! racing quantiles lie before the PR-7 fix).
//!
//! Compiled out under the `noop` feature (there is nothing to observe).
#![cfg(not(feature = "noop"))]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use felip_obs::Recorder;
use felip_obs::{CallsiteId, MetricKind, MetricValue};

static PROP_LAT: CallsiteId = CallsiteId::new("prop.lat", MetricKind::Histogram, "ns");
static PROP_COUNT: CallsiteId = CallsiteId::new("prop.count", MetricKind::Counter, "events");

const WRITERS: usize = 4;
const PER_WRITER: u64 = 20_000;

/// The histogram snapshot of `prop.lat`, with torn-read assertions that
/// must hold on *every* capture, mid-race or quiesced.
fn lat_histogram(rec: &Recorder, when: &str) -> felip_obs::HistogramSnapshot {
    let snap = rec.metrics_snapshot();
    let m = snap.get("prop.lat").expect("prop.lat is registered");
    let MetricValue::Histogram(h) = &m.value else {
        panic!("{when}: prop.lat is not a histogram: {:?}", m.value);
    };
    let bucket_sum: u64 = h.buckets.iter().sum();
    assert_eq!(
        bucket_sum, h.count,
        "{when}: torn histogram: buckets hold {bucket_sum} observations but count says {}",
        h.count
    );
    if h.count > 0 {
        assert!(h.min <= h.max, "{when}: min {} above max {}", h.min, h.max);
    }
    h.clone()
}

/// Writers spin observations through a shared recorder while the main
/// thread captures snapshots as fast as it can; every capture must be
/// internally consistent and counts must be monotone across captures.
/// After the writers join, one quiesced capture must be exact.
#[test]
fn concurrent_snapshots_never_observe_a_torn_histogram() {
    let rec = Arc::new(Recorder::new());
    rec.set_enabled(true);
    let stop = Arc::new(AtomicBool::new(false));
    // Set after the capturer's first capture. Writers hold back after
    // their first observation until then, so the captures overlap the
    // writes even when the capturer is scheduled last.
    let captured = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let (rec, captured) = (Arc::clone(&rec), Arc::clone(&captured));
            std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    // Values sweep the full bucket layout (1ns .. ~1ms) so
                    // the race covers many distinct bucket cells.
                    let v = 1u64 << ((w as u64 + i) % 20);
                    rec.hist_record(&PROP_LAT, v);
                    rec.counter_add(&PROP_COUNT, 1);
                    while i == 0 && !captured.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();
    let capturer = {
        let (rec, stop, captured) = (Arc::clone(&rec), Arc::clone(&stop), Arc::clone(&captured));
        std::thread::spawn(move || {
            // The writers' first observations register the metrics.
            while rec.metrics_snapshot().get("prop.count").is_none() {
                std::thread::yield_now();
            }
            let mut captures = 0u64;
            let mut last_count = 0u64;
            let mut last_counter = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let h = lat_histogram(&rec, "mid-race");
                assert!(
                    h.count >= last_count,
                    "histogram count went backwards: {} then {}",
                    last_count,
                    h.count
                );
                last_count = h.count;
                let snap = rec.metrics_snapshot();
                let counter = snap
                    .get("prop.count")
                    .and_then(|m| m.value.as_u64())
                    .expect("prop.count is a counter");
                assert!(
                    counter >= last_counter,
                    "counter went backwards: {last_counter} then {counter}"
                );
                last_counter = counter;
                captures += 1;
                captured.store(true, Ordering::Release);
            }
            captures
        })
    };
    for w in writers {
        w.join().expect("writer thread");
    }
    stop.store(true, Ordering::Relaxed);
    let captures = capturer.join().expect("capture thread");
    assert!(captures > 0, "the capturer never ran");

    let total = WRITERS as u64 * PER_WRITER;
    let h = lat_histogram(&rec, "quiesced");
    assert_eq!(h.count, total, "quiesced capture lost observations");
    assert_eq!(h.min, 1, "every writer recorded the 1ns bucket");
    assert_eq!(h.max, 1 << 19, "largest swept value missing");
    let expected_sum: u64 = (0..WRITERS as u64)
        .map(|w| (0..PER_WRITER).map(|i| 1u64 << ((w + i) % 20)).sum::<u64>())
        .sum();
    assert_eq!(h.sum, expected_sum, "quiesced sum diverged");
    let snap = rec.metrics_snapshot();
    assert_eq!(
        snap.get("prop.count").and_then(|m| m.value.as_u64()),
        Some(total),
        "quiesced counter diverged"
    );
}
