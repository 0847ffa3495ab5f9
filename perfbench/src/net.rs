//! The load side of the wire workloads: one thread, at most two loopback
//! connections, driven by `ppoll`.
//!
//! * The **writer** connection sends pre-encoded frames open loop: item
//!   `k` is due at `k × interval` after the schedule's origin and is sent
//!   as soon as it is due, however far behind the generator runs. Each
//!   frame's latency counts from its due time, so a stall that delays
//!   sending also shows in the latency of every frame it delayed; how late
//!   the generator ran is reported separately as lag.
//! * The **asker** connection runs closed loop: it cycles a fixed list of
//!   pre-encoded requests, sending the next one a fixed think time after
//!   the previous reply.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use felip_server::wire::{
    decode_ack, decode_query_reply, encode_hello, Frame, FrameKind, FrameView, QueryAnswer,
};

use crate::sys;

/// A non-blocking connection with an outgoing and an incoming buffer.
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    /// Set by the first I/O error; a dead connection is no longer used.
    dead: bool,
}

impl Conn {
    /// Connects to `addr` with Nagle off.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            out_pos: 0,
            inbuf: Vec::new(),
            dead: false,
        })
    }

    /// Queues bytes for sending.
    pub fn queue(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    fn wants_write(&self) -> bool {
        !self.dead && self.out_pos < self.out.len()
    }

    /// Marks the connection dead on the first error, so the error is
    /// reported once and the connection is left alone afterwards.
    fn check<T>(&mut self, r: io::Result<T>) -> io::Result<()> {
        match r {
            Ok(_) => Ok(()),
            Err(e) => {
                self.dead = true;
                Err(e)
            }
        }
    }

    /// Writes as much of the queued bytes as the socket takes.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.dead {
            return Ok(());
        }
        let r = self.write_some();
        self.check(r)
    }

    fn write_some(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }

    /// Reads what has arrived and hands every complete frame to
    /// `on_frame`. A closed connection is an error.
    pub fn recv(&mut self, on_frame: impl FnMut(FrameView<'_>)) -> io::Result<()> {
        if self.dead {
            return Ok(());
        }
        let r = self.read_some(on_frame);
        self.check(r)
    }

    fn read_some(&mut self, mut on_frame: impl FnMut(FrameView<'_>)) -> io::Result<()> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let mut consumed = 0;
        loop {
            match FrameView::decode_prefix(&self.inbuf[consumed..]) {
                Ok(Some((view, used))) => {
                    on_frame(view);
                    consumed += used;
                }
                Ok(None) => break,
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            }
        }
        self.inbuf.drain(..consumed);
        Ok(())
    }

    /// Sends one frame and waits up to `timeout` for one reply (set-up and
    /// final checks only; nothing else may be in flight).
    pub fn request(&mut self, bytes: &[u8], timeout: Duration) -> io::Result<Frame> {
        self.queue(bytes);
        let end = Instant::now() + timeout;
        loop {
            self.flush()?;
            let mut got = None;
            self.recv(|f| got = got.take().or(Some(f.to_frame())))?;
            if let Some(f) = got {
                return Ok(f);
            }
            let now = Instant::now();
            if now >= end {
                return Err(io::ErrorKind::TimedOut.into());
            }
            let ev = sys::POLLIN | if self.wants_write() { sys::POLLOUT } else { 0 };
            sys::poll(&[(&self.stream, ev)], end - now);
        }
    }
}

/// Open-loop due times. Items come in bursts of `burst` that share a due
/// time; burst `b` is due `b × interval_ns` after the origin.
#[derive(Debug, Clone)]
pub struct Schedule {
    interval_ns: u64,
    burst: u64,
    next: u64,
}

impl Schedule {
    /// `rate` items per second, one at a time.
    pub fn per_second(rate: f64) -> Schedule {
        Schedule::bursts(rate, 1)
    }

    /// `rate` items per second in bursts of `burst`.
    pub fn bursts(rate: f64, burst: u64) -> Schedule {
        Schedule {
            interval_ns: (1e9 * burst as f64 / rate) as u64,
            burst: burst.max(1),
            next: 0,
        }
    }

    /// When the next item is due.
    pub fn next_due_ns(&self) -> u64 {
        self.next / self.burst * self.interval_ns
    }

    /// Takes the next item if it is due at `now_ns`, returning its due
    /// time.
    pub fn take(&mut self, now_ns: u64) -> Option<u64> {
        let due = self.next_due_ns();
        (due <= now_ns).then(|| {
            self.next += 1;
            due
        })
    }
}

/// The reply a sent frame expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `Ack` of a `Hello`: no latency sample.
    Hello,
    /// `Ack` of batch `id` carrying `reports` reports.
    Batch {
        /// Batch id.
        id: u64,
        /// Reports in the batch.
        reports: u32,
    },
}

/// Due-time accounting for the writer connection. Replies arrive in send
/// order on one connection, so each reply answers the oldest pending
/// frame.
#[derive(Debug, Default)]
pub struct Tracker {
    pending: VecDeque<(u64, Expect)>,
    /// Due → reply time of every acknowledged frame, ms.
    pub latency_ms: Vec<f64>,
    /// Due → send time of every frame, ms.
    pub lag_ms: Vec<f64>,
    /// RETRY replies: frames the server refused for backpressure.
    pub retries: u64,
    /// Reports in the acknowledged frames.
    pub acked_reports: u64,
    /// Due time of each acknowledged frame, in ack order.
    pub acked_due: Vec<u64>,
}

impl Tracker {
    /// Records a frame due at `due_ns` and sent at `sent_ns`.
    pub fn sent(&mut self, due_ns: u64, sent_ns: u64, expect: Expect) {
        if expect != Expect::Hello {
            self.lag_ms
                .push(sent_ns.saturating_sub(due_ns) as f64 / 1e6);
        }
        self.pending.push_back((due_ns, expect));
    }

    /// Frames sent but not yet answered.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Matches one reply arriving at `now_ns` against the oldest pending
    /// frame. `Err` describes a failed operation.
    pub fn on_reply(&mut self, reply: FrameView<'_>, now_ns: u64) -> Result<(), String> {
        let Some((due_ns, expect)) = self.pending.pop_front() else {
            return Err(format!("unsolicited {:?} reply", reply.kind));
        };
        match (expect, reply.kind) {
            (Expect::Hello, FrameKind::Ack) => Ok(()),
            (Expect::Batch { id, reports }, FrameKind::Ack) => {
                let (acked, count) = decode_ack(reply.payload).map_err(|e| e.to_string())?;
                if (acked, count) != (id, reports) {
                    return Err(format!(
                        "ack ({acked}, {count}) for batch ({id}, {reports})"
                    ));
                }
                self.latency_ms
                    .push(now_ns.saturating_sub(due_ns) as f64 / 1e6);
                self.acked_due.push(due_ns);
                self.acked_reports += u64::from(reports);
                Ok(())
            }
            (Expect::Batch { id, .. }, FrameKind::Retry) => {
                self.retries += 1;
                Err(format!("batch {id} refused with RETRY"))
            }
            (_, kind) => Err(format!(
                "{expect:?} answered {kind:?}: {}",
                String::from_utf8_lossy(reply.payload)
            )),
        }
    }
}

/// What the writer sends: pre-encoded `ReportBatch` frames 1..=F,
/// replayed under a fresh client id each time (a `Hello` opens every
/// replay), so the server counts every replay again.
pub struct Feed {
    /// Pre-encoded batch frames.
    pub frames: Vec<Vec<u8>>,
    /// Reports per frame.
    pub reports: Vec<u32>,
    /// Client id of replay 0; replay `r` uses `client_base + r`.
    pub client_base: u64,
    /// Plan hash for the `Hello` frames.
    pub plan_hash: u64,
    /// Batches sent so far.
    pub sent: u64,
}

impl Feed {
    /// Queues the next batch on `conn` (after a `Hello` when it opens a
    /// replay), registering the replies it expects.
    fn emit(&mut self, conn: &mut Conn, t: &mut Tracker, due: u64, now: u64) {
        let f = self.frames.len() as u64;
        let (replay, b) = (self.sent / f, (self.sent % f) as usize);
        if b == 0 {
            let hello = Frame {
                kind: FrameKind::Hello,
                plan_hash: self.plan_hash,
                payload: encode_hello(self.client_base + replay),
            };
            conn.queue(&hello.encode());
            t.sent(due, now, Expect::Hello);
        }
        conn.queue(&self.frames[b]);
        let expect = Expect::Batch {
            id: b as u64 + 1,
            reports: self.reports[b],
        };
        t.sent(due, now, expect);
        self.sent += 1;
    }
}

/// The open-loop writer: connection, feed, schedule and accounting.
pub struct Writer {
    /// Connection the frames go out on.
    pub conn: Conn,
    /// What to send.
    pub feed: Feed,
    /// When to send it.
    pub schedule: Schedule,
    /// What came back.
    pub tracker: Tracker,
}

/// A closed-loop request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ask {
    /// A `Query`; the reply is a `QueryReply`.
    Query,
    /// A `Stat` for the metrics snapshot: the cheapest round trip, the
    /// wire floor.
    Stat,
    /// A `Stat` for the flight-recorder dump.
    Flight,
}

/// The closed-loop asker: connection, request list and samples.
pub struct Asker {
    /// Connection the requests go out on.
    pub conn: Conn,
    /// Pre-encoded requests, cycled in order.
    pub items: Vec<(Vec<u8>, Ask)>,
    /// Pause between a reply and the next request.
    pub think: Duration,
    next: usize,
    in_flight: Option<(u64, Ask)>,
    ready_ns: u64,
    /// Round trips of `Query` requests, ms.
    pub query_ms: Vec<f64>,
    /// Round trips of metrics `Stat` requests, ms.
    pub stat_ms: Vec<f64>,
    /// Round trips of flight-recorder `Stat` requests, ms.
    pub flight_ms: Vec<f64>,
    /// Answers in arrival order.
    pub answers: Vec<QueryAnswer>,
}

impl Asker {
    /// An asker cycling `items`.
    pub fn new(conn: Conn, items: Vec<(Vec<u8>, Ask)>, think: Duration) -> Asker {
        Asker {
            conn,
            items,
            think,
            next: 0,
            in_flight: None,
            ready_ns: 0,
            query_ms: Vec::new(),
            stat_ms: Vec::new(),
            flight_ms: Vec::new(),
            answers: Vec::new(),
        }
    }

    fn on_reply(&mut self, reply: FrameView<'_>, now_ns: u64) -> Result<(), String> {
        let Some((sent, ask)) = self.in_flight.take() else {
            return Err(format!("unsolicited {:?} reply", reply.kind));
        };
        self.ready_ns = now_ns + self.think.as_nanos() as u64;
        let rtt = now_ns.saturating_sub(sent) as f64 / 1e6;
        match (ask, reply.kind) {
            (Ask::Query, FrameKind::QueryReply) => {
                let a = decode_query_reply(reply.payload).map_err(|e| e.to_string())?;
                if a.epoch > a.head_epoch || !(0.0..=1.0).contains(&a.answer) {
                    return Err(format!("inconsistent answer {a:?}"));
                }
                self.query_ms.push(rtt);
                self.answers.push(a);
                Ok(())
            }
            (Ask::Stat, FrameKind::StatReply) => {
                self.stat_ms.push(rtt);
                Ok(())
            }
            (Ask::Flight, FrameKind::StatReply) => {
                self.flight_ms.push(rtt);
                Ok(())
            }
            (_, kind) => Err(format!(
                "{ask:?} answered {kind:?}: {}",
                String::from_utf8_lossy(reply.payload)
            )),
        }
    }
}

/// Completion time of each burst: the latency of its last-acknowledged
/// frame. `acked` pairs each acknowledged frame's due time (frames of one
/// burst share it) with its latency, in ack order.
pub fn burst_completion_ms(acked: impl IntoIterator<Item = (u64, f64)>) -> Vec<f64> {
    let mut out: Vec<f64> = Vec::new();
    let mut current = None;
    for (due, latency) in acked {
        match out.last_mut() {
            Some(last) if current == Some(due) => *last = last.max(latency),
            _ => out.push(latency),
        }
        current = Some(due);
    }
    out
}

/// Failed operations and their first few descriptions.
#[derive(Debug, Default)]
pub struct Failures {
    /// Operations sent.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first failures, described.
    pub first: Vec<String>,
}

impl Failures {
    fn record(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.failed += 1;
            if self.first.len() < 5 {
                self.first.push(e);
            }
        }
    }
}

/// The whole load side.
pub struct Load {
    origin: Instant,
    /// The open-loop writer, if the workload writes.
    pub writer: Option<Writer>,
    /// The closed-loop asker, if the workload reads.
    pub asker: Option<Asker>,
    /// Failed operations.
    pub failures: Failures,
    /// Called about every 10 ms while the load runs (traced runs sample
    /// gauges with it).
    pub sampler: Option<Box<dyn FnMut()>>,
}

impl Load {
    /// A load whose schedule starts now.
    pub fn new(writer: Option<Writer>, asker: Option<Asker>) -> Load {
        sys::tighten_timer_slack();
        Load {
            origin: Instant::now(),
            writer,
            asker,
            failures: Failures::default(),
            sampler: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Issues load until `end`. With `drain`, then stops issuing and waits
    /// up to `grace` for every outstanding reply.
    pub fn run(&mut self, end: Instant, drain: bool, grace: Duration) {
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        let give_up_ns = end_ns + grace.as_nanos() as u64;
        let mut next_sample = 0u64;
        loop {
            let now = self.now_ns();
            let issuing = now < end_ns;
            if !issuing && (!drain || self.idle() || now >= give_up_ns) {
                break;
            }
            if let Some(s) = self.sampler.as_mut() {
                if now >= next_sample {
                    s();
                    next_sample = now + 10_000_000;
                }
            }
            let mut wake = if issuing { end_ns } else { give_up_ns };
            if let Some(w) = self.writer.as_mut() {
                while issuing && !w.conn.dead {
                    let Some(due) = w.schedule.take(now) else {
                        break;
                    };
                    w.feed.emit(&mut w.conn, &mut w.tracker, due, now);
                    self.failures.attempted += 1;
                }
                self.failures
                    .record(w.conn.flush().map_err(|e| format!("writer: {e}")));
                if issuing {
                    wake = wake.min(w.schedule.next_due_ns());
                }
            }
            if let Some(a) = self.asker.as_mut() {
                if a.in_flight.is_none() && issuing && !a.conn.dead {
                    if now >= a.ready_ns {
                        let (frame, ask) = &a.items[a.next % a.items.len()];
                        a.conn.queue(frame);
                        a.in_flight = Some((now, *ask));
                        a.next += 1;
                        self.failures.attempted += 1;
                    } else {
                        wake = wake.min(a.ready_ns);
                    }
                }
                self.failures
                    .record(a.conn.flush().map_err(|e| format!("asker: {e}")));
            }
            let mut socks = Vec::with_capacity(2);
            if let Some(w) = &self.writer {
                let out = if w.conn.wants_write() {
                    sys::POLLOUT
                } else {
                    0
                };
                socks.push((&w.conn.stream, sys::POLLIN | out));
            }
            if let Some(a) = &self.asker {
                let out = if a.conn.wants_write() {
                    sys::POLLOUT
                } else {
                    0
                };
                socks.push((&a.conn.stream, sys::POLLIN | out));
            }
            if self.sampler.is_some() {
                wake = wake.min(next_sample);
            }
            let now = self.now_ns();
            sys::poll(&socks, Duration::from_nanos(wake.saturating_sub(now)));
            self.receive();
        }
        if drain {
            let lost = self.writer.as_ref().map_or(0, |w| w.tracker.in_flight())
                + self
                    .asker
                    .as_ref()
                    .map_or(0, |a| usize::from(a.in_flight.is_some()));
            for _ in 0..lost {
                self.failures
                    .record(Err("no reply before the drain deadline".into()));
            }
        }
    }

    fn idle(&self) -> bool {
        self.writer
            .as_ref()
            .is_none_or(|w| w.tracker.in_flight() == 0)
            && self.asker.as_ref().is_none_or(|a| a.in_flight.is_none())
    }

    fn receive(&mut self) {
        let origin = self.origin;
        let now = move || origin.elapsed().as_nanos() as u64;
        let failures = &mut self.failures;
        if let Some(w) = self.writer.as_mut() {
            let tracker = &mut w.tracker;
            let mut results = Vec::new();
            let r = w.conn.recv(|f| results.push(tracker.on_reply(f, now())));
            results.into_iter().for_each(|r| failures.record(r));
            failures.record(r.map_err(|e| format!("writer: {e}")));
        }
        if let Some(a) = self.asker.as_mut() {
            let mut replies = Vec::new();
            let r = a.conn.recv(|f| replies.push((f.to_frame(), now())));
            for (f, t) in replies {
                let res = a.on_reply(f.view(), t);
                failures.record(res);
            }
            failures.record(r.map_err(|e| format!("asker: {e}")));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use felip_server::wire::{encode_ack, encode_retry};

    fn reply(kind: FrameKind, payload: Vec<u8>) -> Frame {
        Frame {
            kind,
            plan_hash: 0,
            payload,
        }
    }

    #[test]
    fn schedule_releases_items_at_their_due_times() {
        let mut s = Schedule::per_second(1000.0); // 1 ms apart
        assert_eq!(s.take(0), Some(0));
        assert_eq!(s.take(999_999), None);
        assert_eq!(s.take(1_000_000), Some(1_000_000));
        assert_eq!(s.next_due_ns(), 2_000_000);
        let mut b = Schedule::bursts(1000.0, 4); // 4 items every 4 ms
        let due: Vec<_> = std::iter::from_fn(|| b.take(4_000_000)).collect();
        assert_eq!(
            due,
            vec![0, 0, 0, 0, 4_000_000, 4_000_000, 4_000_000, 4_000_000]
        );
    }

    /// A generator that stalls for 50 ms sends the frames due meanwhile
    /// late; their latency and the reported lag both grow.
    #[test]
    fn a_stall_raises_later_latency_and_lag() {
        let mut s = Schedule::per_second(1000.0);
        let mut t = Tracker::default();
        let mut id = 0;
        let mut step = |t: &mut Tracker, now: u64, s: &mut Schedule| {
            while let Some(due) = s.take(now) {
                id += 1;
                t.sent(due, now, Expect::Batch { id, reports: 10 });
            }
            // The server answers everything 100 µs after it was sent.
            while t.in_flight() > 0 {
                let (bid, _) = match t.pending.front() {
                    Some((_, Expect::Batch { id, reports })) => (*id, *reports),
                    _ => unreachable!(),
                };
                let f = reply(FrameKind::Ack, encode_ack(bid, 10));
                t.on_reply(f.view(), now + 100_000).unwrap();
            }
        };
        for ms in 0..10u64 {
            step(&mut t, ms * 1_000_000, &mut s);
        }
        let before = t.latency_ms.clone();
        assert!(before.iter().all(|&l| (l - 0.1).abs() < 1e-9), "{before:?}");
        // Stall: nothing runs until 60 ms.
        step(&mut t, 60_000_000, &mut s);
        let after = &t.latency_ms[before.len()..];
        assert_eq!(after.len(), 51, "frames due at 10..=60 ms");
        assert!((after[0] - 50.1).abs() < 1e-9, "{}", after[0]);
        assert!((after[50] - 0.1).abs() < 1e-9);
        let lag_max = t.lag_ms.iter().cloned().fold(0.0, f64::max);
        assert!((lag_max - 50.0).abs() < 1e-9, "lag {lag_max}");
        assert_eq!(t.acked_reports, 61 * 10);
    }

    #[test]
    fn a_burst_completes_with_its_last_ack() {
        let acked = [
            (0, 1.0),
            (0, 3.0),
            (0, 2.0),
            (10, 0.5),
            (20, 4.0),
            (20, 5.0),
        ];
        assert_eq!(burst_completion_ms(acked), vec![3.0, 0.5, 5.0]);
    }

    #[test]
    fn retry_is_counted_and_fails_the_frame() {
        let mut t = Tracker::default();
        t.sent(0, 0, Expect::Hello);
        t.sent(0, 0, Expect::Batch { id: 1, reports: 5 });
        t.sent(1, 1, Expect::Batch { id: 2, reports: 5 });
        t.on_reply(reply(FrameKind::Ack, encode_ack(0, 0)).view(), 5)
            .unwrap();
        assert!(t
            .on_reply(reply(FrameKind::Retry, encode_retry(1)).view(), 6)
            .is_err());
        assert_eq!(t.retries, 1);
        // A wrong ack is a failure too, without counting as a retry.
        assert!(t
            .on_reply(reply(FrameKind::Ack, encode_ack(3, 5)).view(), 7)
            .is_err());
        assert_eq!((t.retries, t.acked_reports), (1, 0));
        assert!(t.latency_ms.is_empty());
    }
}
