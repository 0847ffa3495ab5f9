//! `felip-obs` — hand-rolled structured observability for the FELIP stack.
//!
//! One [`Recorder`] holds typed counters, gauges and histograms:
//!
//! * **Metrics** — counters are sharded over cache-padded atomic cells and
//!   touched with one relaxed `fetch_add` on the hot path; histograms use
//!   power-of-two buckets. Registration (the only locking step) happens
//!   once per call site and is cached in a static [`CallsiteId`].
//! * **Spans** — RAII wall-clock timers (the [`span!`] macro). A span is a
//!   histogram: dropping the guard records the elapsed nanoseconds under
//!   the span's name, so stage timings are live in every snapshot and
//!   nothing the recorder keeps grows with uptime.
//! * **Export** — one JSON writer per metric serves the STAT snapshot
//!   ([`MetricsSnapshot::to_json`]) and the JSON-lines trace
//!   ([`Recorder::export_jsonl`]). The crate writes JSON but never reads
//!   it: the `felip stat` table is rendered by the CLI.
//!
//! The recorder is **disabled by default**: every recording entry point is
//! gated on one relaxed atomic load, so an un-enabled binary pays a few
//! cycles per instrumentation site. Compiling with the `noop` feature
//! removes even that: the gate constant-folds to `false`, so instrumented
//! code records nothing.
//!
//! Most call sites use the process-global recorder through the macros:
//!
//! ```
//! felip_obs::enable();
//! {
//!     let _outer = felip_obs::span!("collect");
//!     felip_obs::counter!("reports.ingested", 128, "reports");
//!     let _inner = felip_obs::span!("ingest");
//! } // each guard records its elapsed time into its histogram
//! let mut out = Vec::new();
//! felip_obs::global().export_jsonl(&mut out).unwrap();
//! felip_obs::disable();
//! ```

#![forbid(unsafe_code)]

mod json;
mod metrics;
mod snapshot;

pub mod diag;
pub mod flight;

pub use metrics::{
    CallsiteId, HistogramSnapshot, MetricKind, MetricSnapshot, MetricValue, SpanGuard,
};
pub use snapshot::{MetricsSnapshot, METRICS_SNAPSHOT_VERSION};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// `true` when the crate was compiled with the `noop` feature: every
/// recording entry point constant-folds to nothing.
pub const COMPILED_OUT: bool = cfg!(feature = "noop");

/// The observability recorder: metric storage and the enabled switch. One
/// process-global instance serves the macros; tests construct private
/// instances to stay isolated.
pub struct Recorder {
    enabled: AtomicBool,
    /// Epoch snapshot timestamps are relative to.
    epoch: Instant,
    pub(crate) metrics: metrics::MetricStore,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A fresh, disabled recorder.
    pub fn new() -> Self {
        Recorder {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            metrics: metrics::MetricStore::new(),
        }
    }

    /// Turns recording on or off. Off is the default; every recording call
    /// on a disabled recorder is one relaxed load and a branch.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Whether the recorder currently records.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        !COMPILED_OUT && self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since this recorder's epoch.
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Clears metric *values* (registrations survive — call-site caches
    /// stay valid).
    pub fn reset(&self) {
        self.metrics.reset_values();
    }

    /// A merged snapshot of every registered metric.
    pub fn metric_snapshots(&self) -> Vec<MetricSnapshot> {
        self.metrics.snapshots()
    }

    /// The snapshot of one metric by name, if registered.
    pub fn metric(&self, name: &str) -> Option<MetricSnapshot> {
        self.metric_snapshots().into_iter().find(|m| m.name == name)
    }
}

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// The process-global recorder the macros target.
pub fn global() -> &'static Recorder {
    GLOBAL.get_or_init(Recorder::new)
}

/// Enables the process-global recorder.
pub fn enable() {
    global().set_enabled(true);
}

/// Disables the process-global recorder.
pub fn disable() {
    global().set_enabled(false);
}

/// Opens a span on the global recorder: a guard that, when dropped,
/// records the elapsed nanoseconds into the histogram `$name`. The
/// histogram id is cached per call site like [`hist!`]'s.
///
/// Bind the result — `let _span = span!("stage");` — so the guard lives to
/// the end of the scope.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static __CS: $crate::CallsiteId =
            $crate::CallsiteId::new($name, $crate::MetricKind::Histogram, "ns");
        $crate::global().span(&__CS)
    }};
}

/// Adds to a named counter on the global recorder. The metric id is
/// resolved once per call site and cached in a static, so the steady-state
/// cost is one relaxed load, one shard pick and one relaxed `fetch_add`.
#[macro_export]
macro_rules! counter {
    ($name:expr, $n:expr) => {
        $crate::counter!($name, $n, "")
    };
    ($name:expr, $n:expr, $unit:expr) => {{
        static __CS: $crate::CallsiteId =
            $crate::CallsiteId::new($name, $crate::MetricKind::Counter, $unit);
        $crate::global().counter_add(&__CS, $n as u64);
    }};
}

/// Stores the latest value of a named gauge (last write wins).
#[macro_export]
macro_rules! gauge {
    ($name:expr, $v:expr) => {
        $crate::gauge!($name, $v, "")
    };
    ($name:expr, $v:expr, $unit:expr) => {{
        static __CS: $crate::CallsiteId =
            $crate::CallsiteId::new($name, $crate::MetricKind::Gauge, $unit);
        $crate::global().gauge_set(&__CS, $v as u64);
    }};
}

/// Stores the latest value of a named floating-point gauge.
#[macro_export]
macro_rules! gauge_f64 {
    ($name:expr, $v:expr) => {
        $crate::gauge_f64!($name, $v, "")
    };
    ($name:expr, $v:expr, $unit:expr) => {{
        static __CS: $crate::CallsiteId =
            $crate::CallsiteId::new($name, $crate::MetricKind::GaugeF64, $unit);
        $crate::global().gauge_set(&__CS, f64::to_bits($v as f64));
    }};
}

/// Records one observation into a named histogram (power-of-two buckets;
/// tracks count/sum/min/max and serves percentile estimates).
#[macro_export]
macro_rules! hist {
    ($name:expr, $v:expr) => {
        $crate::hist!($name, $v, "")
    };
    ($name:expr, $v:expr, $unit:expr) => {{
        static __CS: $crate::CallsiteId =
            $crate::CallsiteId::new($name, $crate::MetricKind::Histogram, $unit);
        $crate::global().hist_record(&__CS, $v as u64);
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    static SPAN: CallsiteId = CallsiteId::new("test.lib.span", MetricKind::Histogram, "ns");

    fn span_count(rec: &Recorder) -> u64 {
        match rec.metric("test.lib.span").map(|m| m.value) {
            Some(MetricValue::Histogram(h)) => h.count,
            _ => 0,
        }
    }

    #[test]
    fn global_recorder_starts_disabled() {
        // Do not enable here: other tests share the process global; the
        // lookup just must not panic (it may or may not find metrics other
        // tests recorded).
        let _ = global().metric("no.such.metric");
        assert!(!Recorder::new().is_enabled());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new();
        drop(rec.span(&SPAN));
        assert_eq!(span_count(&rec), 0);
    }

    #[test]
    #[cfg(feature = "noop")]
    fn noop_build_ignores_enable() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        assert!(!rec.is_enabled());
        drop(rec.span(&SPAN));
        assert_eq!(span_count(&rec), 0);
    }

    #[test]
    #[cfg(not(feature = "noop"))]
    fn reset_clears_values_but_keeps_registrations() {
        let rec = Recorder::new();
        rec.set_enabled(true);
        static CS: CallsiteId = CallsiteId::new("reset.counter", MetricKind::Counter, "");
        rec.counter_add(&CS, 3);
        drop(rec.span(&SPAN));
        assert_eq!(span_count(&rec), 1);
        rec.reset();
        assert_eq!(span_count(&rec), 0);
        let m = rec.metric("reset.counter").expect("still registered");
        assert_eq!(m.value, MetricValue::Counter(0));
    }
}
