//! Server-side payload builders for the `Stat` admin verb (DESIGN.md §11).
//!
//! A `Stat` frame asks the server for one of three live views:
//!
//! * **Full** — a [`felip_obs::MetricsSnapshot`] of every registered
//!   metric since process start, serialized as one JSON document.
//! * **Delta** — the change since the previous `Delta` request (the first
//!   delta request returns the full snapshot and arms the baseline). The
//!   baseline is process-global: concurrent delta pollers share one
//!   cursor, which matches the intended single-operator use.
//! * **Flight** — a JSONL dump of the in-memory flight-recorder ring
//!   (the last ~1k protocol events), for on-demand postmortems without
//!   killing the process.
//!
//! Payloads are built outside any connection lock: snapshot capture never
//! blocks recording threads (see `felip-obs`'s sharded metric cells), so a
//! `STAT` poll mid-loadgen costs the server only the serialization.

use felip_obs::MetricsSnapshot;
use felip_sync::Mutex;

use crate::wire::StatMode;

/// Baseline for `StatMode::Delta`: the snapshot taken by the previous
/// delta request, or `None` before the first one.
static LAST_DELTA: Mutex<Option<MetricsSnapshot>> = Mutex::new(None);

/// Builds the `StatReply` payload for one decoded [`StatMode`].
///
/// Public so the cluster aggregator's session can answer `STAT` with the
/// same payload shapes the ingest server uses (the metrics registry and
/// flight recorder are process-global either way).
pub fn stat_payload(mode: StatMode) -> Vec<u8> {
    match mode {
        StatMode::Full => felip_obs::global()
            .metrics_snapshot()
            .to_json()
            .into_bytes(),
        StatMode::Delta => {
            let cur = felip_obs::global().metrics_snapshot();
            let mut last = LAST_DELTA.lock();
            let json = match last.as_ref() {
                Some(prev) => cur.delta_since(prev).to_json(),
                None => cur.to_json(),
            };
            *last = Some(cur);
            json.into_bytes()
        }
        StatMode::Flight => {
            let mut buf = Vec::new();
            // Writing into a Vec cannot fail; a best-effort empty dump is
            // still a valid (header-only) reply.
            let _ = felip_obs::flight::flight().dump_jsonl(&mut buf, "stat");
            buf
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_payload_is_a_metrics_document() {
        let payload = stat_payload(StatMode::Full);
        let text = String::from_utf8(payload).expect("utf8 json");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid json");
        assert_eq!(doc["t"], "metrics", "payload must be a metrics document");
        assert_eq!(doc["kind"], "full");
    }

    #[test]
    fn second_delta_request_is_marked_delta() {
        // First call arms the baseline (kind may be full), second must be
        // a delta document.
        let _ = stat_payload(StatMode::Delta);
        let payload = stat_payload(StatMode::Delta);
        let text = String::from_utf8(payload).expect("utf8 json");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid json");
        assert_eq!(doc["kind"], "delta");
    }

    #[test]
    fn flight_payload_starts_with_dump_header() {
        let payload = stat_payload(StatMode::Flight);
        let text = String::from_utf8(payload).expect("utf8 jsonl");
        let first = text.lines().next().expect("at least the header line");
        let doc: serde_json::Value = serde_json::from_str(first).expect("valid json");
        assert_eq!(doc["t"], "flight");
        assert_eq!(doc["reason"], "stat");
    }
}
