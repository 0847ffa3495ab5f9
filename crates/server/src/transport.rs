//! [`TcpTransport`]: the portable serve loop's (`serve.rs`) frame pipe, a
//! thin deadline-aware wrapper around `TcpStream` and the wire codec. The
//! reactor keeps the same deadline semantics on its own event loop. The
//! session state machine above it does no I/O, which is what lets the
//! deterministic chaos harness drive the same session logic on a virtual
//! clock.

use std::io::{self, Read};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::wire::{read_frame, write_frame, Frame, WireError};

/// What one receive attempt produced.
#[derive(Debug)]
pub enum RecvOutcome {
    /// A complete, checksum-verified frame.
    Frame(Frame),
    /// The peer closed the stream cleanly between frames.
    Eof,
    /// No bytes arrived within the idle deadline — the connection reaper's
    /// signal to close this connection.
    Idle,
    /// The server is shutting down; stop serving this connection.
    Shutdown,
    /// The stream is broken: garbled framing, a mid-frame stall past the
    /// read deadline, or a transport error.
    Err(WireError),
}

/// Why a deadline read bailed out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bail {
    Shutdown,
    Idle,
    Stall,
}

/// A `Read` adapter enforcing the per-connection deadlines: waiting for the
/// *first* byte of a frame is bounded by `idle_timeout` (a quiet client),
/// while finishing a frame that has started arriving is bounded by
/// `read_timeout` (a stalled peer mid-frame — an error, not idleness).
/// The shutdown flag is polled between short socket timeouts.
struct DeadlineRead<'a, F: Fn() -> bool> {
    stream: &'a TcpStream,
    stop: &'a F,
    start: Instant,
    got_any: bool,
    idle_timeout: Duration,
    read_timeout: Duration,
    bail: Option<Bail>,
}

impl<F: Fn() -> bool> Read for DeadlineRead<'_, F> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if (self.stop)() {
                self.bail = Some(Bail::Shutdown);
                return Err(io::ErrorKind::ConnectionAborted.into());
            }
            let elapsed = self.start.elapsed();
            if !self.got_any && elapsed >= self.idle_timeout {
                self.bail = Some(Bail::Idle);
                return Err(io::ErrorKind::TimedOut.into());
            }
            if self.got_any && elapsed >= self.read_timeout {
                self.bail = Some(Bail::Stall);
                return Err(io::ErrorKind::TimedOut.into());
            }
            match (&mut &*self.stream).read(buf) {
                Ok(0) => return Ok(0),
                Ok(n) => {
                    if !self.got_any {
                        // The frame's first byte starts the stall clock:
                        // `read_timeout` bounds time since that byte, not
                        // since `recv` began waiting — a frame that merely
                        // *arrived* late (but within the idle window) must
                        // not be torn down as a mid-frame stall.
                        self.got_any = true;
                        self.start = Instant::now();
                    }
                    return Ok(n);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::Interrupted =>
                {
                    continue
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// The production transport: frames over a `TcpStream` with read/idle
/// deadlines and a shutdown poll.
pub struct TcpTransport<'a, F: Fn() -> bool> {
    stream: &'a TcpStream,
    stop: &'a F,
    read_timeout: Duration,
    idle_timeout: Duration,
}

impl<'a, F: Fn() -> bool> TcpTransport<'a, F> {
    /// Wraps `stream`, arming the socket's poll timeout (short, so `stop`
    /// and the deadlines are checked frequently) and the write deadline.
    pub fn new(
        stream: &'a TcpStream,
        stop: &'a F,
        read_timeout: Duration,
        write_timeout: Duration,
        idle_timeout: Duration,
    ) -> Result<Self, WireError> {
        stream.set_nodelay(true).map_err(WireError::Io)?;
        stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .map_err(WireError::Io)?;
        stream
            .set_write_timeout(Some(write_timeout))
            .map_err(WireError::Io)?;
        Ok(TcpTransport {
            stream,
            stop,
            read_timeout,
            idle_timeout,
        })
    }

    /// Sends one frame, blocking until it is written or the write deadline
    /// expires.
    pub fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
        // One `write_all` of the already-contiguous encoding; a `BufWriter`
        // here would only add an 8 KiB allocation and an extra copy per
        // reply frame.
        write_frame(&mut &*self.stream, frame).map_err(WireError::Io)
    }

    /// Receives one frame; see [`RecvOutcome`] for the cases.
    pub fn recv(&mut self) -> RecvOutcome {
        let mut reader = DeadlineRead {
            stream: self.stream,
            stop: self.stop,
            start: Instant::now(),
            got_any: false,
            idle_timeout: self.idle_timeout,
            read_timeout: self.read_timeout,
            bail: None,
        };
        match read_frame(&mut reader) {
            Ok(Some(frame)) => RecvOutcome::Frame(frame),
            Ok(None) => RecvOutcome::Eof,
            Err(WireError::Io(_)) if reader.bail == Some(Bail::Shutdown) => RecvOutcome::Shutdown,
            Err(WireError::Io(_)) if reader.bail == Some(Bail::Idle) => RecvOutcome::Idle,
            Err(WireError::Io(e)) if reader.bail == Some(Bail::Stall) => RecvOutcome::Err(
                WireError::Io(io::Error::new(e.kind(), "read deadline exceeded mid-frame")),
            ),
            Err(e) => RecvOutcome::Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::FrameKind;
    use felip_sync::thread;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn frames_round_trip_over_tcp() {
        let (client, server) = pair();
        let stop = || false;
        let mut a = TcpTransport::new(
            &client,
            &stop,
            Duration::from_secs(1),
            Duration::from_secs(1),
            Duration::from_secs(1),
        )
        .unwrap();
        let mut b = TcpTransport::new(
            &server,
            &stop,
            Duration::from_secs(1),
            Duration::from_secs(1),
            Duration::from_secs(1),
        )
        .unwrap();
        let frame = Frame::control(FrameKind::Hello, 99);
        a.send(&frame).unwrap();
        match b.recv() {
            RecvOutcome::Frame(f) => assert_eq!(f, frame),
            other => panic!("expected frame, got {other:?}"),
        }
        drop(client);
        assert!(matches!(b.recv(), RecvOutcome::Eof));
    }

    #[test]
    fn idle_deadline_fires_without_data() {
        let (client, server) = pair();
        let stop = || false;
        let mut t = TcpTransport::new(
            &server,
            &stop,
            Duration::from_secs(5),
            Duration::from_secs(5),
            Duration::from_millis(60),
        )
        .unwrap();
        let start = Instant::now();
        assert!(matches!(t.recv(), RecvOutcome::Idle));
        assert!(start.elapsed() >= Duration::from_millis(50));
        drop(client);
    }

    #[test]
    fn mid_frame_stall_is_an_error_not_idle() {
        let (client, server) = pair();
        let stop = || false;
        let mut t = TcpTransport::new(
            &server,
            &stop,
            Duration::from_millis(80),
            Duration::from_secs(5),
            Duration::from_secs(5),
        )
        .unwrap();
        // Send half a frame and stall.
        let bytes = Frame::control(FrameKind::Hello, 1).encode();
        let half = &bytes[..bytes.len() / 2];
        thread::scope(|s| {
            s.spawn(|| {
                use std::io::Write;
                (&client).write_all(half).unwrap();
                (&client).flush().unwrap();
                thread::sleep(Duration::from_millis(300));
            });
            match t.recv() {
                RecvOutcome::Err(WireError::Io(e)) => {
                    assert_eq!(e.kind(), io::ErrorKind::TimedOut)
                }
                other => panic!("expected stall error, got {other:?}"),
            }
        });
    }

    #[test]
    fn late_first_byte_within_idle_window_is_not_a_stall() {
        // read_timeout (80 ms) < first-byte delay (200 ms) < idle_timeout
        // (5 s): the frame arrives late but healthy, and must be received —
        // the stall clock starts at the first byte, not at recv() entry.
        let (client, server) = pair();
        let stop = || false;
        let mut t = TcpTransport::new(
            &server,
            &stop,
            Duration::from_millis(80),
            Duration::from_secs(5),
            Duration::from_secs(5),
        )
        .unwrap();
        let frame = Frame::control(FrameKind::Hello, 7);
        let bytes = frame.encode();
        thread::scope(|s| {
            s.spawn(|| {
                use std::io::Write;
                thread::sleep(Duration::from_millis(200));
                (&client).write_all(&bytes).unwrap();
                (&client).flush().unwrap();
            });
            match t.recv() {
                RecvOutcome::Frame(f) => assert_eq!(f, frame),
                other => panic!("healthy late frame was torn down: {other:?}"),
            }
        });
    }

    #[test]
    fn shutdown_poll_interrupts_recv() {
        use felip_sync::atomic::{AtomicBool, Ordering};
        let (client, server) = pair();
        let flag = AtomicBool::new(false);
        let stop = || flag.load(Ordering::SeqCst);
        let mut t = TcpTransport::new(
            &server,
            &stop,
            Duration::from_secs(5),
            Duration::from_secs(5),
            Duration::from_secs(5),
        )
        .unwrap();
        thread::scope(|s| {
            s.spawn(|| {
                thread::sleep(Duration::from_millis(40));
                flag.store(true, Ordering::SeqCst);
            });
            assert!(matches!(t.recv(), RecvOutcome::Shutdown));
        });
        drop(client);
    }
}
