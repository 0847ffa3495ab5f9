//! A bounded multi-producer queue with non-blocking push — the
//! backpressure primitive of the ingestion pipeline (DESIGN.md §12.2) —
//! plus the [`Mailbox`] the reactor and its query worker hand work
//! through (DESIGN.md §15) and the [`Periodic`] signal the servers'
//! periodic tasks run on.
//!
//! Connection handlers `try_push`; when a worker falls behind and its queue
//! is full the push fails *immediately* and the handler answers the client
//! with a RETRY frame instead of buffering unboundedly. Workers block on
//! `pop_timeout` so they can periodically observe shutdown; a consistent
//! cut blocks on `wait_quiescent`, which the last `task_done` wakes.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use felip_sync::{Condvar, Mutex};

/// Why a [`BoundedQueue::try_push`] was refused; carries the item back so
/// the caller can respond to the producer without cloning.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity — the backpressure signal.
    Full(T),
    /// The queue was closed (server draining); no more items are accepted.
    Closed(T),
}

/// Outcome of a [`BoundedQueue::pop_timeout`].
#[derive(Debug, PartialEq, Eq)]
pub enum PopResult<T> {
    /// An item was dequeued.
    Item(T),
    /// The timeout elapsed with the queue empty (and still open).
    Empty,
    /// The queue is closed *and* drained: the consumer can exit.
    Done,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Items popped but not yet [`BoundedQueue::task_done`]-acknowledged:
    /// batches a worker is ingesting right now. Snapshot consistency needs
    /// to know about these — an empty queue alone does not mean every
    /// accepted batch has reached an aggregator.
    in_flight: usize,
}

impl<T> Inner<T> {
    fn quiescent(&self) -> bool {
        self.items.is_empty() && self.in_flight == 0
    }
}

/// A fixed-capacity FIFO shared between connection handlers (producers)
/// and one ingest worker (consumer).
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    /// Signalled when the queue turns quiescent (see
    /// [`BoundedQueue::wait_quiescent`]).
    drained: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (`capacity ≥ 1`).
    ///
    /// # Panics
    /// Panics when `capacity` is zero — a zero-capacity queue could never
    /// accept work.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                in_flight: 0,
            }),
            not_empty: Condvar::new(),
            drained: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues without blocking. Returns the queue depth *after* the push,
    /// or the item wrapped in the refusal reason.
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        drop(inner);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Dequeues, waiting up to `timeout` for an item.
    ///
    /// A popped item counts as *in flight* until the consumer calls
    /// [`BoundedQueue::task_done`] for it; [`BoundedQueue::is_quiescent`]
    /// stays false in between.
    pub fn pop_timeout(&self, timeout: Duration) -> PopResult<T> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                inner.in_flight += 1;
                return PopResult::Item(item);
            }
            if inner.closed {
                return PopResult::Done;
            }
            let (guard, wait) = self.not_empty.wait_timeout(inner, timeout);
            inner = guard;
            if wait.timed_out() {
                return match inner.items.pop_front() {
                    Some(item) => {
                        inner.in_flight += 1;
                        PopResult::Item(item)
                    }
                    None if inner.closed => PopResult::Done,
                    None => PopResult::Empty,
                };
            }
        }
    }

    /// Marks one previously popped item as fully processed (ingested into
    /// an aggregator), clearing its in-flight mark. The call that leaves
    /// the queue quiescent wakes every [`BoundedQueue::wait_quiescent`]
    /// caller.
    pub fn task_done(&self) {
        let mut inner = self.inner.lock();
        inner.in_flight = inner.in_flight.saturating_sub(1);
        if inner.quiescent() {
            drop(inner);
            self.drained.notify_all();
        }
    }

    /// Whether the queue holds no items *and* nothing popped is still being
    /// processed — i.e. every batch ever pushed is in an aggregator. Only
    /// meaningful while producers are paused (the snapshot consistent cut).
    pub fn is_quiescent(&self) -> bool {
        self.inner.lock().quiescent()
    }

    /// Blocks until the queue is quiescent. Producers must be paused (the
    /// consistent cut holds the dedup lock), or the wait may never end;
    /// the consumer's last [`BoundedQueue::task_done`] is the wakeup.
    pub fn wait_quiescent(&self) {
        let mut inner = self.inner.lock();
        while !inner.quiescent() {
            inner = self.drained.wait(inner);
        }
    }

    /// Closes the queue: further pushes fail, consumers drain what remains
    /// and then observe [`PopResult::Done`].
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Current depth (racy, for observability only).
    pub fn len(&self) -> usize {
        self.inner.lock().items.len()
    }

    /// Whether the queue is currently empty (racy, for observability only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An unbounded FIFO whose consumer takes everything queued at once. The
/// reactor posts query jobs into one and the query worker posts replies
/// into another; bounding is the producer's job (a connection has at most
/// one query out).
pub struct Mailbox<T> {
    inner: Mutex<(Vec<T>, bool)>,
    ready: Condvar,
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Mailbox {
            inner: Mutex::new((Vec::new(), false)),
            ready: Condvar::new(),
        }
    }
}

impl<T> Mailbox<T> {
    /// Appends `item` and wakes a waiting consumer.
    pub fn post(&self, item: T) {
        self.inner.lock().0.push(item);
        self.ready.notify_one();
    }

    /// Everything queued so far, without blocking (possibly nothing).
    pub fn take(&self) -> Vec<T> {
        std::mem::take(&mut self.inner.lock().0)
    }

    /// Blocks until something is queued and takes all of it; `None` once
    /// the mailbox is closed and empty.
    pub fn wait_take(&self) -> Option<Vec<T>> {
        let mut inner = self.inner.lock();
        loop {
            if !inner.0.is_empty() {
                return Some(std::mem::take(&mut inner.0));
            }
            if inner.1 {
                return None;
            }
            inner = self.ready.wait(inner);
        }
    }

    /// Closes the mailbox: the consumer drains what is left, then sees
    /// `None`.
    pub fn close(&self) {
        self.inner.lock().1 = true;
        self.ready.notify_all();
    }
}

/// The stop signal of a server's periodic tasks (snapshots, cuts, the
/// metrics rollup, the aggregator's persist). Each task runs
/// [`Periodic::every`] on its own thread, asleep on a condvar between
/// ticks; [`Periodic::stop`] wakes them all at once, so shutdown never
/// waits out a period.
#[derive(Default)]
pub struct Periodic {
    stopped: Mutex<bool>,
    wake: Condvar,
}

impl Periodic {
    /// Runs `task` every `period` — measured from one tick's start to the
    /// next — until [`Periodic::stop`]. The first tick is one period in; a
    /// period too long for the clock never ticks.
    pub fn every(&self, period: Duration, mut task: impl FnMut()) {
        let mut next = Instant::now().checked_add(period);
        while self.wait_until(next) {
            next = Instant::now().checked_add(period);
            task();
        }
    }

    /// Stops every task and wakes the ones waiting for their next tick.
    pub fn stop(&self) {
        *self.stopped.lock() = true;
        self.wake.notify_all();
    }

    /// Sleeps until `deadline` (`true`: tick) or until stopped (`false`).
    fn wait_until(&self, deadline: Option<Instant>) -> bool {
        let mut stopped = self.stopped.lock();
        while !*stopped {
            let Some(deadline) = deadline else {
                stopped = self.wake.wait(stopped);
                continue;
            };
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return true;
            }
            let (guard, wait) = self.wake.wait_timeout(stopped, left);
            // The deadline passed: tick, even if a stop raced it (the next
            // wait sees the stop). The model checker fires a timeout only
            // when nothing else can run, so there a lost stop is a tick.
            if wait.timed_out() {
                return true;
            }
            stopped = guard;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use felip_sync::{thread, Arc};

    #[test]
    fn push_pop_fifo() {
        let q = BoundedQueue::new(4);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), PopResult::Item(1));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), PopResult::Item(2));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), PopResult::Empty);
    }

    #[test]
    fn full_queue_exerts_backpressure() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        // Draining one slot re-admits pushes.
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), PopResult::Item(1));
        assert_eq!(q.try_push(3).unwrap(), 2);
    }

    #[test]
    fn close_drains_then_signals_done() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err(PushError::Closed(2)));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), PopResult::Item(1));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), PopResult::Done);
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let q2 = Arc::clone(&q);
        let consumer = thread::spawn(move || q2.pop_timeout(Duration::from_secs(30)));
        // Give the consumer a moment to block, then close.
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), PopResult::Done);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = BoundedQueue::<u32>::new(0);
    }

    #[test]
    fn quiescence_tracks_in_flight_items() {
        let q = BoundedQueue::new(4);
        assert!(q.is_quiescent(), "fresh queue is quiescent");
        q.try_push(1).unwrap();
        assert!(!q.is_quiescent(), "queued item pending");
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), PopResult::Item(1));
        assert!(
            !q.is_quiescent(),
            "popped item is in flight until task_done"
        );
        q.task_done();
        assert!(q.is_quiescent(), "drained and processed");
    }

    #[test]
    fn last_task_done_wakes_quiescence_waiter() {
        use felip_sync::atomic::{AtomicBool, Ordering};
        let q = Arc::new(BoundedQueue::new(4));
        let woke = Arc::new(AtomicBool::new(false));
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let waiter = {
            let (q, woke) = (Arc::clone(&q), Arc::clone(&woke));
            thread::spawn(move || {
                q.wait_quiescent();
                woke.store(true, Ordering::SeqCst);
            })
        };
        for want in [1, 2] {
            // Let the waiter block while work is still outstanding.
            thread::sleep(Duration::from_millis(10));
            assert!(
                !woke.load(Ordering::SeqCst),
                "woke before the queue drained"
            );
            assert_eq!(
                q.pop_timeout(Duration::from_millis(1)),
                PopResult::Item(want)
            );
            thread::sleep(Duration::from_millis(10));
            assert!(
                !woke.load(Ordering::SeqCst),
                "woke with item {want} in flight"
            );
            q.task_done();
        }
        waiter.join().expect("waiter wakes on the last task_done");
        assert!(woke.load(Ordering::SeqCst));
    }

    #[test]
    fn mailbox_hands_over_everything_then_closes() {
        let m = Mailbox::default();
        assert!(m.take().is_empty());
        m.post(1);
        m.post(2);
        m.post(3);
        assert_eq!(m.wait_take(), Some(vec![1, 2, 3]));
        m.post(4);
        m.close();
        assert_eq!(m.wait_take(), Some(vec![4]), "close drains first");
        assert_eq!(m.wait_take(), None);
    }

    #[test]
    fn periodic_ticks_until_stopped() {
        use felip_sync::atomic::{AtomicUsize, Ordering};
        let periodic = Periodic::default();
        let ticks = AtomicUsize::new(0);
        thread::scope(|s| {
            let task = s.spawn(|| {
                periodic.every(Duration::from_millis(5), || {
                    ticks.fetch_add(1, Ordering::SeqCst);
                })
            });
            while ticks.load(Ordering::SeqCst) < 3 {
                thread::sleep(Duration::from_millis(1));
            }
            periodic.stop();
            task.join().expect("task returns once stopped");
        });
        let seen = ticks.load(Ordering::SeqCst);
        thread::sleep(Duration::from_millis(20));
        assert_eq!(ticks.load(Ordering::SeqCst), seen, "no tick after stop");
    }

    #[test]
    fn periodic_stop_wakes_a_task_mid_period() {
        let periodic = Periodic::default();
        let start = std::time::Instant::now();
        thread::scope(|s| {
            s.spawn(|| periodic.every(Duration::from_secs(3600), || panic!("ticked")));
            // Too long to add to the clock: waits for the stop alone.
            s.spawn(|| periodic.every(Duration::MAX, || panic!("ticked")));
            thread::sleep(Duration::from_millis(20));
            periodic.stop();
        });
        assert!(start.elapsed() < Duration::from_secs(60));
    }
}
