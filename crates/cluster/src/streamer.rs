//! The ingest-node side of the cluster tier: turns periodic [`CutState`]s
//! into epoch-numbered `Delta` frames and ships them upstream with the
//! same exactly-once-or-rejected discipline clients use for report
//! batches (DESIGN.md §16).
//!
//! Every decision lives in one sans-I/O core, [`StreamerCore`], beside the
//! ingest client's `ClientCore`; [`UpstreamStreamer`] drives it from a
//! thread over blocking TCP, and the cluster sweep on the sim harness's
//! virtual clock. Cuts and deltas are cumulative, so the core keeps one
//! pending slot that each offer replaces: a slow upstream costs fewer
//! deltas, never a backlog. A cut equal to the last acked one is skipped;
//! the final cut is never skipped, and only the aggregator up *now* can
//! ack it. Each `Hello` ack names the aggregator's last applied epoch for
//! the node, and the next delta is stamped one past it, so resending the
//! cumulative state after a lost connection is idempotent. A node has no
//! attempt budget: it backs off per [`RetryPolicy::backoff`] and retries
//! until `finish`'s deadline or `abandon`.

use std::io::ErrorKind;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use felip_sync::{thread, Arc, Condvar, Mutex};

use felip_server::client::{RetryPolicy, Step, REPLY_DEADLINE};
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
}

/// What the streamer reports back through [`UpstreamStreamer::finish`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamerReport {
    /// Deltas acked upstream.
    pub deltas_acked: u64,
    /// Reports covered by the highest acked cut.
    pub flushed_reports: u64,
}

/// Where the core stands on its connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// No connection: the next wake with a cut to ship connects.
    Disconnected,
    /// `Hello` sent on a fresh connection; awaiting its ack.
    Hello,
    /// Connected with nothing in flight.
    Idle,
    /// A delta sent; awaiting its `DeltaAck`.
    Delta,
}

/// The delta streamer's protocol, free of I/O: it turns the driver's
/// events (an offered cut, a reply, a lost connection, a finished sleep)
/// into [`Step`]s.
pub(crate) struct StreamerCore {
    plan_hash: u64,
    node_id: u64,
    policy: RetryPolicy,
    phase: Phase,
    /// The newest cut not yet shipped: an offer replaces it.
    pending: Option<CutState>,
    /// The delta in flight: its epoch, its cut, and whether it is the
    /// final flush.
    in_flight: Option<(u64, CutState, bool)>,
    /// The final cut was offered and the aggregator up now has not acked
    /// it yet.
    flush: bool,
    /// The last cut the aggregator acked.
    acked: Option<CutState>,
    /// The aggregator's last applied epoch for this node, per its last
    /// `Hello` ack or `DeltaAck`.
    last_applied: u64,
    /// Connects and sends since the last ack.
    attempts: u32,
    report: StreamerReport,
}

impl StreamerCore {
    /// A disconnected core for `node_id` with nothing acked yet.
    pub(crate) fn new(plan_hash: u64, node_id: u64, policy: RetryPolicy) -> StreamerCore {
        StreamerCore {
            plan_hash,
            node_id,
            policy,
            phase: Phase::Disconnected,
            pending: None,
            in_flight: None,
            flush: false,
            acked: None,
            last_applied: 0,
            attempts: 0,
            report: StreamerReport::default(),
        }
    }

    /// Offers a periodic cut; it replaces any older pending one.
    pub(crate) fn offer(&mut self, cut: CutState) {
        self.pending = Some(cut);
    }

    /// Offers the final cut, which is shipped even when it equals the last
    /// acked one.
    pub(crate) fn finish(&mut self, cut: CutState) {
        self.pending = Some(cut);
        self.flush = true;
    }

    /// Whether the final cut was acked by the aggregator up now (true
    /// before [`StreamerCore::finish`], when nothing is owed).
    pub(crate) fn flushed(&self) -> bool {
        !self.flush
    }

    /// A cut waits to be shipped: a parked driver wakes the core.
    pub(crate) fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Progress so far.
    pub(crate) fn report(&self) -> &StreamerReport {
        &self.report
    }

    /// The aggregator's last applied epoch for this node, as last heard.
    #[cfg(test)]
    pub(crate) fn last_applied(&self) -> u64 {
        self.last_applied
    }

    /// The driver is ready to act: connect, ship the pending cut, or park
    /// ([`Step::Done`]) until the next offer. While a reply is awaited
    /// this is [`Step::Await`].
    pub(crate) fn wake(&mut self) -> Step {
        match self.phase {
            Phase::Hello | Phase::Delta => Step::Await,
            Phase::Disconnected if self.pending.is_none() => Step::Done,
            Phase::Disconnected => {
                self.attempts += 1;
                self.phase = Phase::Hello;
                Step::Connect(Frame {
                    kind: FrameKind::Hello,
                    plan_hash: self.plan_hash,
                    payload: encode_hello(self.node_id),
                })
            }
            Phase::Idle => {
                let Some(cut) = self.pending.take() else {
                    return Step::Done;
                };
                // An idle tick — nothing new since the last ack — skips the
                // exchange entirely; the final flush never does.
                if !self.flush && self.acked.as_ref() == Some(&cut) {
                    return Step::Done;
                }
                let epoch = self.last_applied + 1;
                let snapshot = Snapshot {
                    plan_hash: self.plan_hash,
                    counts: cut.counts.clone(),
                    group_sizes: cut.group_sizes.clone(),
                    dedup: Vec::new(),
                };
                let frame = Frame {
                    kind: FrameKind::Delta,
                    plan_hash: self.plan_hash,
                    payload: encode_delta(epoch, &snapshot),
                };
                self.in_flight = Some((epoch, cut, self.flush));
                self.attempts += 1;
                self.phase = Phase::Delta;
                felip_obs::counter!("cluster.delta.sent", 1, "deltas");
                Step::Send(frame)
            }
        }
    }

    /// A reply arrived, or reading one failed (`Err`: the connection
    /// closed, the reply deadline expired, or the bytes were garbled).
    pub(crate) fn on_reply(&mut self, reply: Result<Frame, WireError>) -> Step {
        if !matches!(self.phase, Phase::Hello | Phase::Delta) {
            // Nothing is awaited: a late or duplicated reply.
            return Step::Await;
        }
        let Ok(frame) = reply else {
            return self.lost();
        };
        match (self.phase, frame.kind) {
            (Phase::Hello, FrameKind::Ack) => {
                let Ok((last_applied, _)) = decode_ack(&frame.payload) else {
                    return self.lost();
                };
                self.last_applied = last_applied;
            }
            (Phase::Delta, FrameKind::DeltaAck) => {
                let Ok((epoch, last_applied)) = decode_delta_ack(&frame.payload) else {
                    return self.lost();
                };
                // An ack for another epoch (a duplicated or late reply)
                // leaves unknown which cut the aggregator holds: resync.
                let Some((_, cut, flush)) = self.in_flight.take_if(|f| f.0 == epoch) else {
                    return self.lost();
                };
                self.report.deltas_acked += 1;
                self.report.flushed_reports = cut.reports;
                self.flush &= !flush;
                self.acked = Some(cut);
                self.last_applied = last_applied;
                self.attempts = 0;
            }
            // An `Error`, or a reply that makes no sense here: the
            // connection is unusable.
            _ => return self.lost(),
        }
        self.phase = Phase::Idle;
        self.wake()
    }

    /// The connection is gone, or its reply deadline expired: reconnect
    /// after backing off, shipping the newest cut (the one in flight,
    /// unless a newer one was offered) at the epoch the next `Hello` ack
    /// names.
    pub(crate) fn lost(&mut self) -> Step {
        self.phase = Phase::Disconnected;
        if let Some((_, cut, _)) = self.in_flight.take() {
            self.pending.get_or_insert(cut);
        }
        Step::Reconnect(self.policy.backoff(self.attempts))
    }
}

/// What the cut hook, `finish` and the driver thread share.
struct Slot {
    core: StreamerCore,
    stop: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    cv: Condvar,
}

/// The background delta shipper: the blocking TCP driver of a
/// [`StreamerCore`]. Construct with [`UpstreamStreamer::start`], install
/// [`UpstreamStreamer::hook`] as the serve run's cut hook, and call
/// [`UpstreamStreamer::finish`] with the final merged state once the serve
/// run returns.
pub struct UpstreamStreamer {
    shared: Arc<Shared>,
    handle: Option<thread::JoinHandle<()>>,
}

impl UpstreamStreamer {
    /// Spawns the driver thread.
    pub fn start(cfg: StreamerConfig) -> UpstreamStreamer {
        let core = StreamerCore::new(cfg.plan_hash, cfg.node_id, RetryPolicy::default());
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot { core, stop: false }),
            cv: Condvar::new(),
        });
        let driver = Arc::clone(&shared);
        let handle = thread::spawn(move || drive(&cfg.upstream, &driver));
        UpstreamStreamer {
            shared,
            handle: Some(handle),
        }
    }

    /// A [`CutHook`] that offers each periodic cut to the core.
    pub fn hook(&self) -> CutHook {
        let shared = Arc::clone(&self.shared);
        Arc::new(move |cut: CutState| {
            shared.slot.lock().core.offer(cut);
            shared.cv.notify_all();
        })
    }

    /// Offers `final_cut`, waits up to `deadline` for the aggregator that
    /// is up now to ack it (even when an earlier aggregator already acked
    /// the same state), then stops and joins the driver. Returns the
    /// report; `Err` carries it when the flush did not complete in time
    /// (the aggregator stayed unreachable).
    pub fn finish(
        mut self,
        final_cut: CutState,
        deadline: Duration,
    ) -> Result<StreamerReport, StreamerReport> {
        let end = Instant::now() + deadline;
        let mut slot = self.shared.slot.lock();
        slot.core.finish(final_cut);
        self.shared.cv.notify_all();
        while !slot.core.flushed() && Instant::now() < end {
            let left = end.saturating_duration_since(Instant::now());
            slot = self.shared.cv.wait_timeout(slot, left).0;
        }
        let flushed = slot.core.flushed();
        drop(slot);
        let report = self.stop();
        if flushed {
            Ok(report)
        } else {
            Err(report)
        }
    }

    /// Stops the driver without waiting for pending cuts — the "node was
    /// killed" path.
    pub fn abandon(mut self) {
        self.stop();
    }

    /// Sets the stop flag, joins the driver and returns its report.
    fn stop(&mut self) -> StreamerReport {
        self.shared.slot.lock().stop = true;
        self.shared.cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        self.shared.slot.lock().core.report().clone()
    }
}

/// The driver loop: carry out each step over TCP with the core unlocked,
/// then hand the core the reply, or wake it once a cut is pending (after
/// a backoff one always is), or wait on the condvar for the next offer,
/// `finish` or stop.
fn drive(upstream: &str, shared: &Shared) {
    let mut conn: Option<TcpStream> = None;
    let mut step = Step::Done;
    loop {
        let mut reply = match step {
            Step::Connect(hello) => Some(
                dial(upstream).and_then(|stream| exchange(Some(conn.insert(stream)), Some(&hello))),
            ),
            Step::Send(frame) => Some(exchange(conn.as_mut(), Some(&frame))),
            Step::Await => Some(exchange(conn.as_mut(), None)),
            Step::Reconnect(delay) | Step::Backoff(delay) => {
                conn = None;
                thread::sleep(delay);
                None
            }
            Step::Done | Step::Failed(_) => None,
        };
        let mut slot = shared.slot.lock();
        step = loop {
            if slot.stop {
                return;
            }
            if let Some(reply) = reply.take() {
                break slot.core.on_reply(reply);
            }
            if slot.core.has_pending() {
                break slot.core.wake();
            }
            slot = shared.cv.wait(slot);
        };
        // `finish` waits on the same condvar for the flush.
        shared.cv.notify_all();
    }
}

/// Connects with the client's reply deadline on every read and write.
fn dial(upstream: &str) -> Result<TcpStream, WireError> {
    let stream = TcpStream::connect(upstream)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_DEADLINE))?;
    stream.set_write_timeout(Some(REPLY_DEADLINE))?;
    Ok(stream)
}

/// Writes `frame`, if any, on `conn` and reads the reply.
fn exchange(conn: Option<&mut TcpStream>, frame: Option<&Frame>) -> Result<Frame, WireError> {
    let stream = conn.ok_or_else(|| WireError::Io(ErrorKind::NotConnected.into()))?;
    if let Some(frame) = frame {
        write_frame(stream, frame)?;
    }
    read_frame(stream)?.ok_or_else(|| WireError::Io(ErrorKind::UnexpectedEof.into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use felip_server::wire::{decode_delta, encode_ack, encode_delta_ack};

    const PLAN: u64 = 0xfe11_cafe;

    fn core() -> StreamerCore {
        StreamerCore::new(PLAN, 7, RetryPolicy::default())
    }

    fn cut(reports: u64) -> CutState {
        CutState {
            counts: vec![vec![reports, 1], vec![2, reports]],
            group_sizes: vec![reports as usize],
            reports,
        }
    }

    fn hello_ack(last_applied: u64) -> Result<Frame, WireError> {
        Ok(Frame {
            kind: FrameKind::Ack,
            plan_hash: PLAN,
            payload: encode_ack(last_applied, 0),
        })
    }

    fn delta_ack(epoch: u64, last_applied: u64) -> Result<Frame, WireError> {
        Ok(Frame {
            kind: FrameKind::DeltaAck,
            plan_hash: PLAN,
            payload: encode_delta_ack(epoch, last_applied),
        })
    }

    /// The epoch and reports of a `Send` step's delta.
    fn sent(step: &Step) -> (u64, u64) {
        match step {
            Step::Send(frame) if frame.kind == FrameKind::Delta => {
                let (epoch, snap) = decode_delta(&frame.payload).expect("delta payload");
                (epoch, snap.group_sizes.iter().sum::<usize>() as u64)
            }
            other => panic!("expected a delta, got {other:?}"),
        }
    }

    /// Offers `cut` to a connected core whose aggregator holds
    /// `last_applied`, returning the step that ships it.
    fn connected(core: &mut StreamerCore, last_applied: u64, first: CutState) -> Step {
        core.offer(first);
        assert!(matches!(core.wake(), Step::Connect(_)));
        core.on_reply(hello_ack(last_applied))
    }

    #[test]
    fn the_same_cut_offered_twice_ships_one_delta() {
        let mut core = core();
        let step = connected(&mut core, 0, cut(10));
        assert_eq!(sent(&step), (1, 10));
        assert!(matches!(core.on_reply(delta_ack(1, 1)), Step::Done));
        core.offer(cut(10));
        assert!(matches!(core.wake(), Step::Done), "an idle tick ships");
        assert_eq!(core.report().deltas_acked, 1);
    }

    #[test]
    fn a_final_flush_equal_to_the_last_ack_ships_once() {
        let mut core = core();
        let step = connected(&mut core, 0, cut(10));
        assert_eq!(sent(&step), (1, 10));
        core.on_reply(delta_ack(1, 1));
        core.finish(cut(10));
        assert!(!core.flushed());
        let step = core.wake();
        assert_eq!(sent(&step), (2, 10), "the final flush is never skipped");
        assert!(matches!(core.on_reply(delta_ack(2, 2)), Step::Done));
        assert!(core.flushed());
        assert_eq!(core.report().deltas_acked, 2);
        core.offer(cut(10));
        assert!(matches!(core.wake(), Step::Done), "one flush, not two");
    }

    #[test]
    fn a_hello_ack_ahead_of_local_state_stamps_the_next_epoch() {
        let mut core = core();
        let step = connected(&mut core, 41, cut(5));
        assert_eq!(sent(&step), (42, 5));
        core.on_reply(delta_ack(42, 42));
        assert_eq!(core.last_applied(), 42);
    }

    #[test]
    fn a_wrong_epoch_ack_an_error_and_a_deadline_each_reconnect() {
        type Failure = Box<dyn Fn(&mut StreamerCore) -> Step>;
        let failures: [Failure; 3] = [
            Box::new(|c| c.on_reply(delta_ack(3, 3))),
            Box::new(|c| c.on_reply(Ok(Frame::error(PLAN, "dropped a stalled frame")))),
            Box::new(|c| c.lost()),
        ];
        for fail in failures {
            let mut core = core();
            assert_eq!(sent(&connected(&mut core, 4, cut(8))), (5, 8));
            assert!(matches!(fail(&mut core), Step::Reconnect(_)));
            // The cut in flight is shipped again after the next Hello, at
            // the epoch that Hello's ack names.
            assert!(matches!(core.wake(), Step::Connect(_)));
            assert_eq!(sent(&core.on_reply(hello_ack(5))), (6, 8));
            assert!(matches!(core.on_reply(delta_ack(6, 6)), Step::Done));
            assert_eq!(core.report().flushed_reports, 8);
        }
    }

    #[test]
    fn two_offers_before_an_ack_ship_only_the_newer_cut() {
        let mut core = core();
        assert_eq!(sent(&connected(&mut core, 0, cut(10))), (1, 10));
        core.offer(cut(20));
        core.offer(cut(30));
        assert!(matches!(core.wake(), Step::Await), "one delta in flight");
        assert_eq!(sent(&core.on_reply(delta_ack(1, 1))), (2, 30));
        assert!(matches!(core.on_reply(delta_ack(2, 2)), Step::Done));
        assert_eq!(core.report().deltas_acked, 2);
    }
}
