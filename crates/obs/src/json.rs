//! Minimal JSON serialization helpers for metric snapshots, the JSONL
//! trace and flight-recorder dumps.
//!
//! Hand-rolled on purpose: the workspace vendors its dependencies, and
//! these formats only need objects, strings, integers, floats and null.
//! `serde_json` (the vendored shim) is used in *tests* to prove the output
//! parses.

use crate::metrics::{MetricSnapshot, MetricValue};

/// Appends `s` as a JSON string literal (quoted, escaped) to `out`.
pub(crate) fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` as a JSON number. Non-finite values have no JSON encoding
/// and are emitted as `null`.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let s = format!("{v}");
        out.push_str(&s);
        // `format!` prints integral floats without a point; keep the type
        // visible to readers expecting a float field.
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

/// Appends one metric's `"name":…,"kind":…,"unit":…` fields and its value
/// fields (`"value"` for counters and gauges; `"count"`, `"sum"`, `"min"`,
/// `"max"`, `"mean"`, `"p50"`, `"p90"`, `"p99"`, `"p999"` for histograms),
/// without surrounding braces. The one per-metric writer behind both the
/// STAT snapshot and the JSONL trace.
pub(crate) fn push_metric(out: &mut String, m: &MetricSnapshot) {
    out.push_str("\"name\":");
    push_str(out, m.name);
    out.push_str(",\"kind\":");
    push_str(out, m.kind.as_str());
    out.push_str(",\"unit\":");
    push_str(out, m.unit);
    match &m.value {
        MetricValue::Counter(v) | MetricValue::Gauge(v) => {
            out.push_str(",\"value\":");
            out.push_str(&v.to_string());
        }
        MetricValue::GaugeF64(v) => {
            out.push_str(",\"value\":");
            push_f64(out, *v);
        }
        MetricValue::Histogram(h) => {
            out.push_str(",\"count\":");
            out.push_str(&h.count.to_string());
            out.push_str(",\"sum\":");
            out.push_str(&h.sum.to_string());
            out.push_str(",\"min\":");
            out.push_str(&h.min.to_string());
            out.push_str(",\"max\":");
            out.push_str(&h.max.to_string());
            out.push_str(",\"mean\":");
            push_f64(out, h.mean());
            for (label, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0), ("p999", 99.9)] {
                out.push_str(",\"");
                out.push_str(label);
                out.push_str("\":");
                push_f64(out, h.percentile(p));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut out = String::new();
        push_str(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, r#""a\"b\\c\nd\te\u0001""#);
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        let mut out = String::new();
        push_f64(&mut out, 3.0);
        assert_eq!(out, "3.0");
        out.clear();
        push_f64(&mut out, 0.25);
        assert_eq!(out, "0.25");
    }

    #[test]
    fn non_finite_floats_become_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut out = String::new();
            push_f64(&mut out, v);
            assert_eq!(out, "null");
        }
    }
}
