//! Live metrics snapshots: point-in-time captures of every registered
//! metric, deltas between captures, and their JSON wire form.
//!
//! This is the payload of the server's STAT admin verb and of the
//! `--metrics-out` rollup time-series; the JSONL trace
//! ([`Recorder::export_jsonl`]) writes the same per-metric objects. A
//! snapshot is taken without pausing recorders — counters are summed across
//! shards with relaxed loads and histograms are read through their
//! seqlock-free commit-point protocol (see `metrics::Hist`), so
//! `count == Σ buckets` holds on every capture even mid-recording.
//!
//! JSON shape (one object, no external dependencies):
//!
//! ```json
//! {"t":"metrics","version":1,"kind":"full"|"delta","taken_ns":N,
//!  "metrics":[
//!    {"name":"...","kind":"counter","unit":"...","value":N},
//!    {"name":"...","kind":"gauge","unit":"...","value":N},
//!    {"name":"...","kind":"histogram","unit":"...","count":N,"sum":N,
//!     "min":N,"max":N,"mean":F,"p50":F,"p90":F,"p99":F,"p999":F}
//! ]}
//! ```

use std::io::{self, Write};

use crate::json;
use crate::metrics::{bucket_range, HistogramSnapshot, MetricSnapshot, MetricValue};
use crate::Recorder;

/// Schema version of the metrics-snapshot JSON object.
pub const METRICS_SNAPSHOT_VERSION: u64 = 1;

/// Schema version of the JSONL trace ([`Recorder::export_jsonl`]).
const TRACE_VERSION: u64 = 2;

/// A point-in-time (or delta) capture of every registered metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Nanoseconds since the recorder's epoch when the capture was taken.
    pub taken_ns: u64,
    /// `true` when this snapshot is a delta between two captures.
    pub delta: bool,
    /// The captured metrics, in registration order.
    pub metrics: Vec<MetricSnapshot>,
}

impl Recorder {
    /// Captures every registered metric without pausing recorders.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            taken_ns: self.now_ns(),
            delta: false,
            metrics: self.metric_snapshots(),
        }
    }
}

impl MetricsSnapshot {
    /// The captured entry for `name`, if present.
    pub fn get(&self, name: &str) -> Option<&MetricSnapshot> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The change since `prev`: counters and histograms subtract
    /// (saturating — a reset between captures yields zeros, not wraps);
    /// gauges keep their point-in-time value. Histogram deltas derive
    /// their count from the bucket-wise difference; `min`/`max` are
    /// approximated from the populated delta buckets' bounds since exact
    /// interval extrema are not recoverable from running extrema.
    pub fn delta_since(&self, prev: &MetricsSnapshot) -> MetricsSnapshot {
        let metrics = self
            .metrics
            .iter()
            .map(|cur| {
                let old = prev
                    .metrics
                    .iter()
                    .find(|p| p.name == cur.name && p.kind == cur.kind);
                let value = match (&cur.value, old.map(|o| &o.value)) {
                    (MetricValue::Counter(c), Some(MetricValue::Counter(p))) => {
                        MetricValue::Counter(c.saturating_sub(*p))
                    }
                    (MetricValue::Histogram(c), Some(MetricValue::Histogram(p))) => {
                        MetricValue::Histogram(histogram_delta(c, p))
                    }
                    // New metric, kind change, or a gauge: the current
                    // value stands.
                    (v, _) => v.clone(),
                };
                MetricSnapshot {
                    name: cur.name,
                    kind: cur.kind,
                    unit: cur.unit,
                    value,
                }
            })
            .collect();
        MetricsSnapshot {
            taken_ns: self.taken_ns,
            delta: true,
            metrics,
        }
    }

    /// Serializes the snapshot as one JSON object (see the module docs for
    /// the shape).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + 96 * self.metrics.len());
        out.push_str("{\"t\":\"metrics\",\"version\":");
        out.push_str(&METRICS_SNAPSHOT_VERSION.to_string());
        out.push_str(",\"kind\":");
        out.push_str(if self.delta { "\"delta\"" } else { "\"full\"" });
        out.push_str(",\"taken_ns\":");
        out.push_str(&self.taken_ns.to_string());
        out.push_str(",\"metrics\":[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            json::push_metric(&mut out, m);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

impl Recorder {
    /// Writes the trace as JSON lines: a `meta` line
    /// (`{"t":"meta","version":2,"compiled_out":bool}`), then one
    /// `{"t":"metric",…}` line per registered metric in the same per-metric
    /// shape as [`MetricsSnapshot::to_json`]. Spans are histograms, so stage
    /// timings arrive as `metric` lines with unit `ns`.
    pub fn export_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        let mut text = format!(
            "{{\"t\":\"meta\",\"version\":{TRACE_VERSION},\"compiled_out\":{}}}\n",
            crate::COMPILED_OUT
        );
        for m in &self.metric_snapshots() {
            text.push_str("{\"t\":\"metric\",");
            json::push_metric(&mut text, m);
            text.push_str("}\n");
        }
        out.write_all(text.as_bytes())
    }
}

/// Bucket-wise histogram difference. Count derives from the delta buckets
/// (so `count == Σ buckets` holds for deltas too); min/max come from the
/// bounds of the populated delta buckets, clamped to the current extrema.
fn histogram_delta(cur: &HistogramSnapshot, prev: &HistogramSnapshot) -> HistogramSnapshot {
    let buckets: Vec<u64> = cur
        .buckets
        .iter()
        .zip(prev.buckets.iter().chain(std::iter::repeat(&0)))
        .map(|(c, p)| c.saturating_sub(*p))
        .collect();
    let count: u64 = buckets.iter().sum();
    let (mut min, mut max) = (0u64, 0u64);
    if count > 0 {
        if let Some(first) = buckets.iter().position(|&b| b > 0) {
            min = bucket_range(first, cur.max).0.max(cur.min);
        }
        if let Some(last) = buckets.iter().rposition(|&b| b > 0) {
            max = bucket_range(last, cur.max).1.min(cur.max);
        }
        min = min.min(max);
    }
    HistogramSnapshot {
        count,
        sum: cur.sum.saturating_sub(prev.sum),
        min,
        max,
        buckets,
    }
}

#[cfg(all(test, not(feature = "noop")))]
mod tests {
    use super::*;
    use crate::metrics::{CallsiteId, MetricKind};

    fn populated() -> Recorder {
        let rec = Recorder::new();
        rec.set_enabled(true);
        static C: CallsiteId = CallsiteId::new("snap.frames", MetricKind::Counter, "frames");
        static G: CallsiteId = CallsiteId::new("snap.depth", MetricKind::Gauge, "batches");
        static H: CallsiteId = CallsiteId::new("snap.lat", MetricKind::Histogram, "ns");
        rec.counter_add(&C, 10);
        rec.gauge_set(&G, 3);
        for v in [100u64, 200, 400] {
            rec.hist_record(&H, v);
        }
        rec
    }

    #[test]
    fn snapshot_captures_all_kinds() {
        let rec = populated();
        let snap = rec.metrics_snapshot();
        assert!(!snap.delta);
        assert_eq!(
            snap.get("snap.frames").unwrap().value,
            MetricValue::Counter(10)
        );
        assert_eq!(snap.get("snap.depth").unwrap().value, MetricValue::Gauge(3));
        let MetricValue::Histogram(h) = &snap.get("snap.lat").unwrap().value else {
            panic!("not a histogram");
        };
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 700);
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_gauges() {
        let rec = populated();
        let first = rec.metrics_snapshot();
        static C: CallsiteId = CallsiteId::new("snap.frames", MetricKind::Counter, "frames");
        static G: CallsiteId = CallsiteId::new("snap.depth", MetricKind::Gauge, "batches");
        rec.counter_add(&C, 5);
        rec.gauge_set(&G, 7);
        let second = rec.metrics_snapshot();
        let delta = second.delta_since(&first);
        assert!(delta.delta);
        assert_eq!(
            delta.get("snap.frames").unwrap().value,
            MetricValue::Counter(5)
        );
        assert_eq!(
            delta.get("snap.depth").unwrap().value,
            MetricValue::Gauge(7),
            "gauges report point-in-time, not a difference"
        );
    }

    #[test]
    fn delta_histogram_count_matches_bucket_sum() {
        let rec = populated();
        let first = rec.metrics_snapshot();
        static H: CallsiteId = CallsiteId::new("snap.lat", MetricKind::Histogram, "ns");
        for v in [800u64, 1600] {
            rec.hist_record(&H, v);
        }
        let delta = rec.metrics_snapshot().delta_since(&first);
        let MetricValue::Histogram(h) = &delta.get("snap.lat").unwrap().value else {
            panic!("not a histogram");
        };
        assert_eq!(h.count, 2);
        assert_eq!(h.count, h.buckets.iter().sum::<u64>());
        assert_eq!(h.sum, 2400);
        // The two new observations landed in buckets [512,1024) and
        // [1024,2048): the approximated extrema must bracket them.
        assert!(h.min >= 512 && h.min <= 800, "min {}", h.min);
        assert!(h.max >= 1600 && h.max <= 2048, "max {}", h.max);
    }

    #[test]
    fn empty_delta_is_all_zero() {
        let rec = populated();
        let first = rec.metrics_snapshot();
        let delta = rec.metrics_snapshot().delta_since(&first);
        let MetricValue::Histogram(h) = &delta.get("snap.lat").unwrap().value else {
            panic!("not a histogram");
        };
        assert_eq!((h.count, h.sum, h.min, h.max), (0, 0, 0, 0));
    }

    #[test]
    fn json_parses_and_round_trips() {
        let rec = populated();
        let json = rec.metrics_snapshot().to_json();
        let doc: serde_json::Value = serde_json::from_str(&json).expect("snapshot JSON parses");
        assert_eq!(doc["t"], "metrics");
        assert_eq!(doc["version"], METRICS_SNAPSHOT_VERSION);
        assert_eq!(doc["kind"], "full");
        let metrics = doc["metrics"].as_array().expect("metrics array");
        let hist = metrics
            .iter()
            .find(|m| m["name"] == "snap.lat")
            .expect("histogram present");
        assert_eq!(hist["count"], 3);
        for key in ["p50", "p90", "p99", "p999", "mean"] {
            assert!(hist[key].as_f64().is_some(), "{key}");
        }
    }

    #[test]
    fn jsonl_trace_is_a_meta_line_then_one_metric_line_per_metric() {
        let rec = populated();
        static SPAN: CallsiteId = CallsiteId::new("snap.stage", MetricKind::Histogram, "ns");
        drop(rec.span(&SPAN));
        let mut buf = Vec::new();
        rec.export_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<serde_json::Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("bad line {l:?}: {e}")))
            .collect();
        assert_eq!(lines[0]["t"], "meta");
        assert_eq!(lines[0]["version"], TRACE_VERSION);
        assert_eq!(lines[0]["compiled_out"], false);
        // The registry is process-wide, so other tests' metrics may appear;
        // every line after the meta line is a metric.
        assert!(lines[1..].iter().all(|l| l["t"] == "metric"), "{text}");
        let find = |name: &str| lines.iter().find(|l| l["name"] == name).unwrap();
        let c = find("snap.frames");
        assert_eq!(
            (c["kind"].as_str(), c["unit"].as_str()),
            (Some("counter"), Some("frames"))
        );
        assert_eq!(c["value"], 10);
        let h = find("snap.lat");
        assert_eq!(
            (h["count"].as_u64(), h["sum"].as_u64()),
            (Some(3), Some(700))
        );
        assert_eq!(
            (h["min"].as_u64(), h["max"].as_u64()),
            (Some(100), Some(400))
        );
        assert!(h["p999"].as_f64().unwrap() <= 400.0);
        let stage = find("snap.stage");
        assert_eq!(
            (stage["kind"].as_str(), stage["unit"].as_str()),
            (Some("histogram"), Some("ns"))
        );
        assert_eq!(stage["count"], 1);
    }

    #[test]
    fn trace_and_snapshot_share_the_per_metric_shape() {
        let rec = populated();
        let snap: serde_json::Value =
            serde_json::from_str(&rec.metrics_snapshot().to_json()).unwrap();
        let mut buf = Vec::new();
        rec.export_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let traced = text
            .lines()
            .find(|l| l.contains("\"name\":\"snap.lat\""))
            .unwrap();
        let traced: serde_json::Value = serde_json::from_str(traced).unwrap();
        let in_snapshot = snap["metrics"]
            .as_array()
            .unwrap()
            .iter()
            .find(|m| m["name"] == "snap.lat")
            .unwrap();
        assert_eq!(traced["p50"], in_snapshot["p50"]);
    }
}
