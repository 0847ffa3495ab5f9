//! The ingest-node side of the cluster tier: a background thread that
//! turns periodic [`CutState`]s into epoch-numbered `Delta` frames and
//! ships them upstream with the same exactly-once-or-rejected discipline
//! clients use for report batches (DESIGN.md §16).
//!
//! ## Coalescing
//!
//! Cut states are cumulative, and so is every delta: the streamer never
//! needs a queue, because the latest pending cut supersedes every older
//! one. The cut hook just replaces a single slot; the worker thread drains
//! it and ships the node's whole state. A slow upstream therefore costs
//! fewer deltas, never a backlog — backpressure without ever blocking the
//! ingest server's cut thread.
//!
//! ## Idle ticks and the final flush
//!
//! A periodic cut equal to the last acked one is skipped without touching
//! the connection: an idle node sends nothing between ticks. The final
//! cut [`UpstreamStreamer::finish`] offers is never skipped, so the flush
//! is confirmed by the aggregator that is up *now* — one that replaced
//! the acking aggregator without `--resume` gets the node's state too.
//!
//! ## Reconnect
//!
//! At most one delta is in flight. Each handshake learns the aggregator's
//! last applied epoch for this node from the `Hello` ack, and the next
//! delta is stamped one past it. Whether or not an in-flight delta landed
//! before the connection died, resending the cumulative state at the next
//! epoch is idempotent — the aggregator replaces its view with the same or
//! newer counts.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use felip_sync::{thread, Arc, Condvar, Mutex};

use felip_server::server::{CutHook, CutState};
use felip_server::wire::{
    decode_ack, decode_delta_ack, encode_delta, encode_hello, read_frame, write_frame, Frame,
    FrameKind, WireError,
};
use felip_server::Snapshot;

/// How the streamer reaches its aggregator.
#[derive(Debug, Clone)]
pub struct StreamerConfig {
    /// Aggregator address, e.g. `127.0.0.1:7900`.
    pub upstream: String,
    /// This ingest node's stable identity (the cluster-tier analogue of a
    /// client id; survives restarts so the epoch cursor stays meaningful).
    pub node_id: u64,
    /// The collection plan's schema hash, stamped on every frame.
    pub plan_hash: u64,
    /// Socket read/write deadline per frame exchange.
    pub io_timeout: Duration,
    /// Backoff between reconnect attempts while the aggregator is away.
    pub reconnect_delay: Duration,
}

impl Default for StreamerConfig {
    fn default() -> Self {
        StreamerConfig {
            upstream: "127.0.0.1:7900".to_string(),
            node_id: 1,
            plan_hash: 0,
            io_timeout: Duration::from_secs(5),
            reconnect_delay: Duration::from_millis(50),
        }
    }
}

/// What the worker thread reports back through [`UpstreamStreamer::finish`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamerReport {
    /// Deltas acked upstream.
    pub deltas_acked: u64,
    /// Reports covered by the highest acked cut.
    pub flushed_reports: u64,
}

/// Shared slot between the cut hook (producer) and the worker (consumer).
struct Shared {
    pending: Mutex<Pending>,
    cv: Condvar,
}

struct Pending {
    /// The newest cut not yet acked upstream (cumulative, so it replaces
    /// any older pending cut).
    latest: Option<CutState>,
    /// Set by [`UpstreamStreamer::finish`] with the final cut; the worker
    /// ships that cut even when it equals the last acked one and clears
    /// the flag once the current aggregator acks it.
    flush: bool,
    /// Set by [`UpstreamStreamer::finish`]; the worker exits once the
    /// pending slot is drained (or immediately if nothing is pending).
    stop: bool,
    /// Progress the worker publishes for `finish` to wait on.
    report: StreamerReport,
}

/// The background delta shipper. Construct with [`UpstreamStreamer::start`],
/// install [`UpstreamStreamer::hook`] as the serve run's cut hook, and call
/// [`UpstreamStreamer::finish`] with the final merged state once the serve
/// run returns.
pub struct UpstreamStreamer {
    shared: Arc<Shared>,
    handle: Option<thread::JoinHandle<()>>,
}

impl UpstreamStreamer {
    /// Spawns the worker thread.
    pub fn start(cfg: StreamerConfig) -> UpstreamStreamer {
        let shared = Arc::new(Shared {
            pending: Mutex::new(Pending {
                latest: None,
                flush: false,
                stop: false,
                report: StreamerReport::default(),
            }),
            cv: Condvar::new(),
        });
        let worker_shared = Arc::clone(&shared);
        let handle = thread::spawn(move || Worker::new(cfg, worker_shared).run());
        UpstreamStreamer {
            shared,
            handle: Some(handle),
        }
    }

    /// A [`CutHook`] that offers each periodic cut to the worker.
    pub fn hook(&self) -> CutHook {
        let shared = Arc::clone(&self.shared);
        Arc::new(move |cut: CutState| {
            let mut pending = shared.pending.lock();
            pending.latest = Some(cut);
            shared.cv.notify_all();
        })
    }

    /// Offers `final_cut`, waits up to `deadline` for the aggregator that
    /// is up now to ack it (even when an earlier aggregator already acked
    /// the same state), then stops and joins the worker. Returns the
    /// worker's report; `Err` carries the report when the flush did not
    /// complete in time (the aggregator stayed unreachable).
    pub fn finish(
        mut self,
        final_cut: CutState,
        deadline: Duration,
    ) -> Result<StreamerReport, StreamerReport> {
        let start = Instant::now();
        let flushed = {
            let mut pending = self.shared.pending.lock();
            pending.latest = Some(final_cut);
            pending.flush = true;
            self.shared.cv.notify_all();
            loop {
                if !pending.flush {
                    break true;
                }
                if start.elapsed() >= deadline {
                    break false;
                }
                let (guard, _timeout) = self
                    .shared
                    .cv
                    .wait_timeout(pending, Duration::from_millis(20));
                pending = guard;
            }
        };
        {
            let mut pending = self.shared.pending.lock();
            pending.stop = true;
            self.shared.cv.notify_all();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        let report = self.shared.pending.lock().report.clone();
        if flushed {
            Ok(report)
        } else {
            Err(report)
        }
    }

    /// Stops the worker without waiting for pending cuts — the "node was
    /// killed" path the chaos harness exercises.
    pub fn abandon(mut self) {
        {
            let mut pending = self.shared.pending.lock();
            pending.stop = true;
            pending.latest = None;
            self.shared.cv.notify_all();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Worker-local shipping state.
struct Worker {
    cfg: StreamerConfig,
    shared: Arc<Shared>,
    /// The last cut the aggregator acked (None = nothing acked yet).
    acked: Option<CutState>,
    /// The aggregator's last applied epoch for this node, as of the most
    /// recent handshake or ack.
    acked_epoch: u64,
    conn: Option<TcpStream>,
}

impl Worker {
    fn new(cfg: StreamerConfig, shared: Arc<Shared>) -> Worker {
        Worker {
            cfg,
            shared,
            acked: None,
            acked_epoch: 0,
            conn: None,
        }
    }

    fn run(mut self) {
        loop {
            // Take the newest pending cut (coalesced), or exit on stop.
            let (cut, flush) = {
                let mut pending = self.shared.pending.lock();
                loop {
                    if let Some(cut) = pending.latest.take() {
                        break (cut, pending.flush);
                    }
                    if pending.stop {
                        return;
                    }
                    let (guard, _timeout) = self
                        .shared
                        .cv
                        .wait_timeout(pending, Duration::from_millis(50));
                    pending = guard;
                }
            };
            // An idle tick — nothing new since the last ack — skips the
            // exchange entirely; the final flush never does.
            if !flush && self.acked.as_ref() == Some(&cut) {
                continue;
            }
            // Ship, retrying until acked or stopped. A newer pending cut
            // does not abort the attempt — cumulative cuts mean the next
            // loop iteration simply ships the newer one on top.
            loop {
                match self.ship(&cut) {
                    Ok(()) => {
                        let mut pending = self.shared.pending.lock();
                        pending.report.deltas_acked += 1;
                        pending.report.flushed_reports = cut.reports;
                        if flush {
                            pending.flush = false;
                        }
                        self.shared.cv.notify_all();
                        break;
                    }
                    Err(_e) => {
                        self.conn = None;
                        if self.shared.pending.lock().stop {
                            return;
                        }
                        thread::sleep(self.cfg.reconnect_delay);
                    }
                }
            }
        }
    }

    /// One shipping attempt for `cut`: the node's cumulative state at the
    /// epoch after the aggregator's last applied one. Any error leaves the
    /// connection torn down for a clean retry.
    fn ship(&mut self, cut: &CutState) -> Result<(), WireError> {
        if self.conn.is_none() {
            self.handshake()?;
        }
        let epoch = self.acked_epoch + 1;
        let snapshot = Snapshot {
            plan_hash: self.cfg.plan_hash,
            counts: cut.counts.clone(),
            group_sizes: cut.group_sizes.clone(),
            dedup: Vec::new(),
        };
        let frame = Frame {
            kind: FrameKind::Delta,
            plan_hash: self.cfg.plan_hash,
            payload: encode_delta(epoch, &snapshot),
        };
        let stream = match self.conn.as_mut() {
            Some(s) => s,
            // Unreachable (handshake just set it); treated as a retryable
            // transport error rather than a panic.
            None => return Err(WireError::Io(std::io::ErrorKind::NotConnected.into())),
        };
        write_frame(stream, &frame)?;
        felip_obs::counter!("cluster.delta.sent", 1, "deltas");
        let reply = match read_frame(stream)? {
            Some(reply) => reply,
            None => return Err(WireError::Io(std::io::ErrorKind::UnexpectedEof.into())),
        };
        match reply.kind {
            FrameKind::DeltaAck => {
                let (ack_epoch, last_applied) = decode_delta_ack(&reply.payload)?;
                if ack_epoch != epoch {
                    return Err(WireError::Malformed(format!(
                        "delta ack for epoch {ack_epoch}, expected {epoch}"
                    )));
                }
                self.acked = Some(cut.clone());
                self.acked_epoch = last_applied;
                Ok(())
            }
            FrameKind::Error => Err(WireError::Rejected(
                String::from_utf8_lossy(&reply.payload).into_owned(),
            )),
            other => Err(WireError::Malformed(format!(
                "unexpected {other:?} reply to delta"
            ))),
        }
    }

    /// Connects and handshakes, taking the aggregator's last applied epoch
    /// for this node as the cursor the next delta builds on.
    fn handshake(&mut self) -> Result<(), WireError> {
        let stream = TcpStream::connect(&self.cfg.upstream)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.cfg.io_timeout))?;
        stream.set_write_timeout(Some(self.cfg.io_timeout))?;
        let mut stream = stream;
        let hello = Frame {
            kind: FrameKind::Hello,
            plan_hash: self.cfg.plan_hash,
            payload: encode_hello(self.cfg.node_id),
        };
        write_frame(&mut stream, &hello)?;
        let reply = match read_frame(&mut stream)? {
            Some(reply) => reply,
            None => return Err(WireError::Io(std::io::ErrorKind::UnexpectedEof.into())),
        };
        self.acked_epoch = match reply.kind {
            FrameKind::Ack => decode_ack(&reply.payload)?.0,
            FrameKind::Error => {
                return Err(WireError::Rejected(
                    String::from_utf8_lossy(&reply.payload).into_owned(),
                ))
            }
            other => {
                return Err(WireError::Malformed(format!(
                    "unexpected {other:?} reply to hello"
                )))
            }
        };
        self.conn = Some(stream);
        Ok(())
    }
}
