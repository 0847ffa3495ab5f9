//! Metric registry and storage: sharded counters, gauges, histograms.
//!
//! Metric *identity* (name, kind, unit) lives in one process-wide registry,
//! so the per-call-site id cache in [`CallsiteId`] stays valid no matter
//! which [`Recorder`] instance consumes the recording (tests construct
//! private recorders; production uses the global one). Metric *values* live
//! in per-recorder fixed-size atomic arrays indexed by the registry id.
//!
//! Hot path (`counter_add` with a warm call site): one relaxed enabled
//! load, one cached-id load, one thread-local shard lookup, one relaxed
//! `fetch_add`. No locks, no allocation.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::Recorder;

/// Upper bound on distinct registered metrics; registrations beyond it are
/// silently dropped (the pipeline registers a few dozen).
pub(crate) const MAX_METRICS: usize = 128;

/// Counter shards. Threads are assigned shards round-robin, so concurrent
/// ingestion workers never contend on one cache line.
pub(crate) const SHARDS: usize = 16;

/// Power-of-two histogram buckets: bucket 0 holds zeros, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`, bucket 63 is the overflow tail.
pub(crate) const HIST_BUCKETS: usize = 64;

/// Sentinel id for call sites that lost the registration race against
/// [`MAX_METRICS`]; recordings against it are dropped.
const OVERFLOW: u32 = u32::MAX;

/// What a metric measures and how it merges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic sum of recorded increments.
    Counter,
    /// Last written integer value wins.
    Gauge,
    /// Last written `f64` (stored as bits) wins.
    GaugeF64,
    /// Distribution of recorded `u64` observations.
    Histogram,
}

impl MetricKind {
    /// The JSONL `kind` label.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::GaugeF64 => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A static per-call-site handle caching the registry id of one metric.
///
/// Declared by the recording macros as a `static`, so the name → id lookup
/// (the only locking step) happens once per call site per process.
pub struct CallsiteId {
    name: &'static str,
    kind: MetricKind,
    unit: &'static str,
    /// `0` = unresolved, [`u32::MAX`] = overflowed, otherwise `id + 1`.
    cached: AtomicU32,
}

impl CallsiteId {
    /// A new unresolved call-site handle (const, for statics).
    pub const fn new(name: &'static str, kind: MetricKind, unit: &'static str) -> Self {
        CallsiteId {
            name,
            kind,
            unit,
            cached: AtomicU32::new(0),
        }
    }

    /// The metric's registry id, registering on first use.
    #[inline]
    fn resolve(&self) -> u32 {
        match self.cached.load(Ordering::Relaxed) {
            0 => {
                let id = register(self.name, self.kind, self.unit);
                let cache = if id == OVERFLOW { OVERFLOW } else { id + 1 };
                self.cached.store(cache, Ordering::Relaxed);
                id
            }
            OVERFLOW => OVERFLOW,
            c => c - 1,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Meta {
    name: &'static str,
    kind: MetricKind,
    unit: &'static str,
}

static REGISTRY: Mutex<Vec<Meta>> = Mutex::new(Vec::new());

fn register(name: &'static str, kind: MetricKind, unit: &'static str) -> u32 {
    let mut reg = REGISTRY.lock().expect("metric registry poisoned");
    if let Some(i) = reg.iter().position(|m| m.name == name && m.kind == kind) {
        return i as u32;
    }
    if reg.len() >= MAX_METRICS {
        return OVERFLOW;
    }
    reg.push(Meta { name, kind, unit });
    (reg.len() - 1) as u32
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn shard_index() -> usize {
    MY_SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
        s.set(v);
        v
    })
}

fn atomic_array<const N: usize>() -> Box<[AtomicU64; N]> {
    Box::new(std::array::from_fn(|_| AtomicU64::new(0)))
}

/// One shard of counter cells (1 KiB: shards land on distinct cache lines).
struct Shard {
    cells: Box<[AtomicU64; MAX_METRICS]>,
}

/// Lock-free histogram cell.
///
/// There is deliberately no separate observation counter: the count is
/// always derived from the bucket sum, so a snapshot taken while other
/// threads record can never observe `count != Σ buckets` (the torn view a
/// free-running counter permits). The bucket increment is the *commit
/// point* of an observation — it is ordered last with `Release`, so a
/// snapshot that sees the bucket (an `Acquire` load) also sees the
/// matching `sum`/`min`/`max` updates.
struct Hist {
    buckets: Box<[AtomicU64; HIST_BUCKETS]>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Hist {
    fn new() -> Self {
        Hist {
            buckets: atomic_array(),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        // Commit point: publish the observation (and, transitively, the
        // stat updates above) to concurrent snapshots.
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Release);
    }

    fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// The bucket an observation falls into.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Per-recorder metric value storage.
pub(crate) struct MetricStore {
    shards: Vec<Shard>,
    gauges: Box<[AtomicU64; MAX_METRICS]>,
    hists: Vec<Hist>,
}

impl MetricStore {
    pub(crate) fn new() -> Self {
        MetricStore {
            shards: (0..SHARDS)
                .map(|_| Shard {
                    cells: atomic_array(),
                })
                .collect(),
            gauges: atomic_array(),
            hists: (0..MAX_METRICS).map(|_| Hist::new()).collect(),
        }
    }

    pub(crate) fn reset_values(&self) {
        for s in &self.shards {
            for c in s.cells.iter() {
                c.store(0, Ordering::Relaxed);
            }
        }
        for g in self.gauges.iter() {
            g.store(0, Ordering::Relaxed);
        }
        for h in &self.hists {
            h.reset();
        }
    }

    pub(crate) fn snapshots(&self) -> Vec<MetricSnapshot> {
        let reg = REGISTRY.lock().expect("metric registry poisoned");
        reg.iter()
            .enumerate()
            .map(|(i, meta)| {
                let value = match meta.kind {
                    MetricKind::Counter => MetricValue::Counter(
                        self.shards
                            .iter()
                            .map(|s| s.cells[i].load(Ordering::Relaxed))
                            .sum(),
                    ),
                    MetricKind::Gauge => MetricValue::Gauge(self.gauges[i].load(Ordering::Relaxed)),
                    MetricKind::GaugeF64 => MetricValue::GaugeF64(f64::from_bits(
                        self.gauges[i].load(Ordering::Relaxed),
                    )),
                    MetricKind::Histogram => MetricValue::Histogram(self.hists[i].snapshot()),
                };
                MetricSnapshot {
                    name: meta.name,
                    kind: meta.kind,
                    unit: meta.unit,
                    value,
                }
            })
            .collect()
    }
}

impl Hist {
    fn snapshot(&self) -> HistogramSnapshot {
        // Acquire pairs with the Release bucket increment in `record`:
        // every observation whose bucket we see has already published its
        // sum/min/max contribution. Counting the buckets (instead of a
        // second free-running counter) makes `count == Σ buckets` hold by
        // construction even mid-recording.
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Acquire))
            .collect();
        let count: u64 = buckets.iter().sum();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Point-in-time view of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Power-of-two bucket counts (see [`bucket_index`]'s layout).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `p`-th percentile (`0 < p ≤ 100`) by linear interpolation
    /// inside the containing power-of-two bucket, clamped to the observed
    /// `[min, max]` range (so constant data reports exact percentiles).
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (p / 100.0 * self.count as f64)
            .ceil()
            .clamp(1.0, self.count as f64);
        let mut before = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (before + c) as f64 >= rank {
                let (lo, hi) = bucket_range(i, self.max);
                let frac = (rank - before as f64) / c as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                return est.clamp(self.min as f64, self.max as f64);
            }
            before += c;
        }
        self.max as f64
    }
}

/// The value range `[lo, hi)` bucket `i` covers; the tail bucket is capped
/// at the observed maximum.
pub(crate) fn bucket_range(i: usize, observed_max: u64) -> (u64, u64) {
    match i {
        0 => (0, 1),
        _ if i >= HIST_BUCKETS - 1 => (
            1u64 << (HIST_BUCKETS - 2),
            observed_max.max(1u64 << (HIST_BUCKETS - 2)),
        ),
        _ => (1u64 << (i - 1), 1u64 << i),
    }
}

/// A metric's merged value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Summed counter.
    Counter(u64),
    /// Last-written gauge.
    Gauge(u64),
    /// Last-written floating-point gauge.
    GaugeF64(f64),
    /// Histogram distribution.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// The integer value of a counter or gauge; `None` for float gauges
    /// and histograms. Convenience for assertions and exporters.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => Some(*v),
            MetricValue::GaugeF64(_) | MetricValue::Histogram(_) => None,
        }
    }
}

/// One registered metric with its merged value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Registered name (dotted, e.g. `felip.agg.reports`).
    pub name: &'static str,
    /// Metric kind.
    pub kind: MetricKind,
    /// Unit label (may be empty).
    pub unit: &'static str,
    /// Merged value.
    pub value: MetricValue,
}

/// RAII guard of a live span (see [`crate::span!`]): dropping it records
/// the elapsed nanoseconds into the span's histogram. Inert when the
/// recorder was disabled at open time.
pub struct SpanGuard<'r> {
    open: Option<(&'r Recorder, &'static CallsiteId, Instant)>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((rec, cs, started)) = self.open.take() {
            rec.hist_record(cs, started.elapsed().as_nanos() as u64);
        }
    }
}

impl Recorder {
    /// Opens a span timing into the histogram behind `cs` (registered with
    /// unit `ns` by [`crate::span!`]).
    #[inline]
    pub fn span(&self, cs: &'static CallsiteId) -> SpanGuard<'_> {
        SpanGuard {
            open: self.is_enabled().then(|| (self, cs, Instant::now())),
        }
    }

    /// Adds `n` to the counter behind `cs`. Lock-free after the call site's
    /// first use; a no-op while disabled.
    #[inline]
    pub fn counter_add(&self, cs: &CallsiteId, n: u64) {
        if !self.is_enabled() {
            return;
        }
        let id = cs.resolve();
        if id == OVERFLOW {
            return;
        }
        self.metrics.shards[shard_index()].cells[id as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Stores `v` as the gauge's latest value; a no-op while disabled.
    #[inline]
    pub fn gauge_set(&self, cs: &CallsiteId, v: u64) {
        if !self.is_enabled() {
            return;
        }
        let id = cs.resolve();
        if id == OVERFLOW {
            return;
        }
        self.metrics.gauges[id as usize].store(v, Ordering::Relaxed);
    }

    /// Records one observation into the histogram; a no-op while disabled.
    #[inline]
    pub fn hist_record(&self, cs: &CallsiteId, v: u64) {
        if !self.is_enabled() {
            return;
        }
        let id = cs.resolve();
        if id == OVERFLOW {
            return;
        }
        self.metrics.hists[id as usize].record(v);
    }
}

#[cfg(all(test, not(feature = "noop")))]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_layout() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn counters_merge_across_shards() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        static CS: CallsiteId = CallsiteId::new("test.shard.counter", MetricKind::Counter, "");
        rec.counter_add(&CS, 2);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| rec.counter_add(&CS, 5));
            }
        });
        assert_eq!(
            rec.metric("test.shard.counter").unwrap().value,
            MetricValue::Counter(22)
        );
    }

    #[test]
    fn gauge_last_write_wins() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        static CS: CallsiteId = CallsiteId::new("test.gauge", MetricKind::Gauge, "cells");
        rec.gauge_set(&CS, 7);
        rec.gauge_set(&CS, 9);
        assert_eq!(
            rec.metric("test.gauge").unwrap().value,
            MetricValue::Gauge(9)
        );
    }

    #[test]
    fn gauge_f64_round_trips_bits() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        static CS: CallsiteId = CallsiteId::new("test.gauge.f", MetricKind::GaugeF64, "");
        rec.gauge_set(&CS, f64::to_bits(0.125));
        assert_eq!(
            rec.metric("test.gauge.f").unwrap().value,
            MetricValue::GaugeF64(0.125)
        );
    }

    #[test]
    fn disabled_recorder_drops_updates() {
        let rec = Recorder::new();
        static CS: CallsiteId = CallsiteId::new("test.disabled.counter", MetricKind::Counter, "");
        rec.counter_add(&CS, 10);
        rec.set_enabled(true);
        rec.counter_add(&CS, 1);
        assert_eq!(
            rec.metric("test.disabled.counter").unwrap().value,
            MetricValue::Counter(1)
        );
    }

    #[test]
    fn same_name_shares_one_registration() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        static A: CallsiteId = CallsiteId::new("test.shared", MetricKind::Counter, "");
        static B: CallsiteId = CallsiteId::new("test.shared", MetricKind::Counter, "");
        rec.counter_add(&A, 1);
        rec.counter_add(&B, 2);
        assert_eq!(
            rec.metric("test.shared").unwrap().value,
            MetricValue::Counter(3)
        );
    }

    #[test]
    fn histogram_stats_and_percentiles() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        static CS: CallsiteId = CallsiteId::new("test.hist", MetricKind::Histogram, "ns");
        for v in [5u64, 5, 5, 5] {
            rec.hist_record(&CS, v);
        }
        let MetricValue::Histogram(h) = rec.metric("test.hist").unwrap().value else {
            panic!("not a histogram");
        };
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 20);
        assert_eq!(h.min, 5);
        assert_eq!(h.max, 5);
        assert_eq!(h.mean(), 5.0);
        // Constant data: every percentile is exact thanks to min/max clamping.
        for p in [1.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 5.0, "p{p}");
        }
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        static CS: CallsiteId = CallsiteId::new("test.hist.mono", MetricKind::Histogram, "");
        for v in 1..=1000u64 {
            rec.hist_record(&CS, v);
        }
        let MetricValue::Histogram(h) = rec.metric("test.hist.mono").unwrap().value else {
            panic!("not a histogram");
        };
        let mut last = 0.0;
        for p in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p);
            assert!(v >= last, "p{p}: {v} < {last}");
            assert!((1.0..=1000.0).contains(&v), "p{p}: {v}");
            last = v;
        }
        // Log-bucket estimates are coarse but must be in the right decade.
        let p50 = h.percentile(50.0);
        assert!((250.0..=1000.0).contains(&p50), "p50 {p50}");
        assert_eq!(h.percentile(100.0), 1000.0);
    }

    #[test]
    fn span_records_elapsed_ns_into_its_histogram() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        static CS: CallsiteId = CallsiteId::new("test.span", MetricKind::Histogram, "ns");
        for _ in 0..3 {
            let _span = rec.span(&CS);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let m = rec.metric("test.span").unwrap();
        assert_eq!(m.unit, "ns");
        let MetricValue::Histogram(h) = m.value else {
            panic!("not a histogram");
        };
        assert_eq!(h.count, 3);
        assert!(h.min >= 1_000_000, "each span slept ≥ 1 ms: {h:?}");
    }

    #[test]
    fn span_opened_while_disabled_stays_inert() {
        let rec = Recorder::new();
        static CS: CallsiteId = CallsiteId::new("test.span.quiet", MetricKind::Histogram, "ns");
        let span = rec.span(&CS);
        rec.set_enabled(true);
        drop(span);
        // The guard never resolved its call site, so nothing registered.
        assert!(rec.metric("test.span.quiet").is_none());
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: vec![0; HIST_BUCKETS],
        };
        assert_eq!(h.percentile(50.0), 0.0);
        assert_eq!(h.mean(), 0.0);
    }
}
