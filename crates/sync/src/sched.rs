//! The deterministic exploration scheduler behind `feature = "model"`.
//!
//! ## Execution model
//!
//! One *execution* runs the user closure with every task (the root closure
//! plus everything it spawns through the shims) on a real OS thread, but
//! only **one task runs at a time**: each synchronization point calls back
//! into the scheduler, which decides who runs next and parks everyone
//! else. Because every shared-memory access the program performs goes
//! through a shim (enforced by `xtask analyze` for `crates/server`), the
//! sequence of scheduler decisions fully determines the execution — same
//! choices, same run.
//!
//! ## Exploration
//!
//! [`check`] explores the tree of schedules depth-first. Each decision
//! point records which tasks were enabled and what operation each was
//! about to perform; backtracking re-runs the program with a forced
//! choice prefix and picks the next unexplored branch. Pruning:
//!
//! * **Sleep sets** — after fully exploring "task `t` goes first" at a
//!   node, `t` sleeps at that node; siblings whose next operation is
//!   independent of the explored one (different object, or both reads)
//!   inherit the sleep set, so commuting interleavings are visited once.
//! * **Preemption bound** — a context switch away from a task that could
//!   have kept running costs one preemption; schedules needing more than
//!   the configured bound are skipped. Most real races (including the
//!   PR-4 snapshot-cut races) need ≤ 2 preemptions.
//! * **Voluntary yields** — `thread::sleep`/`yield_now` deprioritize the
//!   caller until something else has run, so spin-wait loops make
//!   progress instead of generating unbounded self-schedules; switches at
//!   voluntary yields are free.
//!
//! A timed condvar wait only times out when no other task can run —
//! early-timeout schedules re-enter the wait loop they came from, so
//! collapsing them loses no distinct behaviour (DESIGN.md §14 spells out
//! the argument).
//!
//! ## Failures and replay
//!
//! A task panic (assertion failure), a deadlock (all tasks blocked), or a
//! step-cap livelock aborts the execution and is reported as a
//! [`Violation`] carrying the schedule token — the `.`-joined task ids
//! chosen at each decision point. [`replay`] re-runs exactly that
//! schedule; the reproduction is deterministic, not probabilistic.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, Once};

/// Index of a task within one execution (0 = the root closure).
pub type TaskId = usize;

/// The kind of synchronization operation a task is about to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Mutex or rwlock-write acquisition.
    LockAcquire,
    /// Condvar wait (the atomic release-and-block).
    CondWait,
    /// Condvar notify (one or all).
    CondNotify,
    /// Atomic load.
    AtomicLoad,
    /// Atomic store or read-modify-write.
    AtomicWrite,
    /// RwLock read acquisition.
    RwRead,
    /// Voluntary yield (`sleep`, `yield_now`).
    Yield,
    /// Join on another task.
    Join,
}

/// One pending operation: the object it touches and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Scheduler-assigned object id; 0 means "not object-specific"
    /// (yields, joins) and is conservatively dependent with everything.
    pub obj: usize,
    /// Access kind.
    pub kind: OpKind,
}

impl Op {
    /// Whether reordering `self` and `other` cannot change any observable
    /// state: distinct objects, or two pure reads of the same object.
    /// Object 0 (task-lifecycle ops) is conservatively dependent with
    /// everything, which only costs pruning, never soundness.
    fn independent(self, other: Op) -> bool {
        if self.obj == 0 || other.obj == 0 {
            return false;
        }
        if self.obj != other.obj {
            return true;
        }
        matches!(
            (self.kind, other.kind),
            (OpKind::AtomicLoad, OpKind::AtomicLoad) | (OpKind::RwRead, OpKind::RwRead)
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    /// Voluntarily yielded: schedulable, but only preferred when nothing
    /// Runnable exists; flips back to Runnable once another task runs.
    Yielded,
    BlockedLock(usize),
    BlockedCond {
        obj: usize,
        timed: bool,
    },
    BlockedJoin(TaskId),
    Finished,
}

struct Slot {
    status: Status,
    pending: Op,
    /// How the last condvar wait ended (true = last-resort timeout).
    cond_timed_out: bool,
}

#[derive(Default)]
struct Objects {
    /// Mutex / rwlock-write owner.
    writer: HashMap<usize, TaskId>,
    /// RwLock shared-reader count.
    readers: HashMap<usize, usize>,
    /// Condvar FIFO wait queues.
    cond_waiters: HashMap<usize, Vec<TaskId>>,
}

/// One recorded decision point (public for the DFS driver).
#[derive(Debug, Clone)]
pub struct Decision {
    /// Tasks that could have been chosen, ascending id order.
    pub enabled: Vec<TaskId>,
    /// The operation each enabled task was about to perform (parallel to
    /// `enabled`).
    pub ops: Vec<Op>,
    /// The task that was chosen.
    pub chosen: TaskId,
    /// The task that held the token when the decision was made.
    pub running: TaskId,
    /// Whether `running` gave the token up voluntarily (yield, block,
    /// finish) — switching away is then free of preemption cost.
    pub voluntary: bool,
}

struct State {
    slots: Vec<Slot>,
    current: TaskId,
    live: usize,
    prefix: Vec<TaskId>,
    trace: Vec<Decision>,
    objs: Objects,
    next_obj: usize,
    step_cap: usize,
    failure: Option<String>,
    abort: bool,
}

/// Shared per-execution scheduler: one instance per schedule run.
pub(crate) struct Scheduler {
    st: StdMutex<State>,
    cv: StdCondvar,
    /// Global execution number; modeled objects compare it to re-register
    /// their ids once per execution.
    pub(crate) epoch: u64,
}

/// Zero-sized panic payload used to unwind tasks after a violation; the
/// panic hook and failure recording both ignore it.
pub(crate) struct ModelAbort;

static EPOCH: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static CTX: RefCell<Option<(Arc<Scheduler>, TaskId)>> = const { RefCell::new(None) };
}

/// The scheduler + task id of the current thread, when it is a model task.
pub(crate) fn current() -> Option<(Arc<Scheduler>, TaskId)> {
    CTX.with(|c| c.borrow().clone())
}

pub(crate) fn set_ctx(ctx: Option<(Arc<Scheduler>, TaskId)>) {
    CTX.with(|c| *c.borrow_mut() = ctx);
}

/// Lazily assigned per-execution object identity for modeled sync types
/// (const-constructible so shim types can live in statics).
pub(crate) struct ObjId {
    id: std::sync::atomic::AtomicUsize,
    epoch: AtomicU64,
}

impl ObjId {
    pub(crate) const fn new() -> ObjId {
        ObjId {
            id: std::sync::atomic::AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
        }
    }

    /// The object's id under `sched`, registering on first touch this
    /// execution. Only called while holding the schedule token, so the
    /// two relaxed stores cannot race.
    pub(crate) fn get(&self, sched: &Scheduler) -> usize {
        if self.epoch.load(Ordering::Relaxed) != sched.epoch {
            let id = sched.alloc_obj();
            self.id.store(id, Ordering::Relaxed);
            self.epoch.store(sched.epoch, Ordering::Relaxed);
        }
        self.id.load(Ordering::Relaxed)
    }
}

impl Scheduler {
    fn new(prefix: Vec<TaskId>, step_cap: usize, epoch: u64) -> Scheduler {
        Scheduler {
            st: StdMutex::new(State {
                slots: vec![Slot {
                    status: Status::Runnable,
                    pending: Op {
                        obj: 0,
                        kind: OpKind::Yield,
                    },
                    cond_timed_out: false,
                }],
                current: 0,
                live: 1,
                prefix,
                trace: Vec::new(),
                objs: Objects::default(),
                next_obj: 0,
                step_cap,
                failure: None,
                abort: false,
            }),
            cv: StdCondvar::new(),
            epoch,
        }
    }

    pub(crate) fn alloc_obj(&self) -> usize {
        let mut st = self
            .st
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        st.next_obj += 1;
        st.next_obj
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, State> {
        self.st
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn fail(&self, st: &mut State, msg: String) {
        if st.failure.is_none() {
            st.failure = Some(msg);
        }
        st.abort = true;
        self.cv.notify_all();
    }

    /// The schedulable set: Runnable tasks, or — only when none exist —
    /// voluntarily yielded tasks and timed condvar waiters (their timeout
    /// "fires" as a last resort).
    fn enabled(st: &State) -> (Vec<TaskId>, Vec<Op>) {
        let pick = |f: &dyn Fn(&Status) -> bool| -> (Vec<TaskId>, Vec<Op>) {
            let mut ids = Vec::new();
            let mut ops = Vec::new();
            for (i, s) in st.slots.iter().enumerate() {
                if f(&s.status) {
                    ids.push(i);
                    ops.push(s.pending);
                }
            }
            (ids, ops)
        };
        let runnable = pick(&|s| matches!(s, Status::Runnable));
        if !runnable.0.is_empty() {
            return runnable;
        }
        pick(&|s| matches!(s, Status::Yielded | Status::BlockedCond { timed: true, .. }))
    }

    /// Picks the next task to run. Called with the state lock held, by the
    /// task currently holding the token (`running`).
    fn decide(&self, st: &mut State, running: TaskId) {
        if st.abort {
            return;
        }
        if st.trace.len() >= st.step_cap {
            self.fail(
                st,
                format!(
                    "livelock: step cap ({}) exceeded — a task is spinning without progress",
                    st.step_cap
                ),
            );
            return;
        }
        let (enabled, ops) = Self::enabled(st);
        if enabled.is_empty() {
            if st.live == 0 {
                self.cv.notify_all();
                return;
            }
            let stuck: Vec<String> = st
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| !matches!(s.status, Status::Finished))
                .map(|(i, s)| format!("task {i}: {:?}", s.status))
                .collect();
            self.fail(st, format!("deadlock: [{}]", stuck.join(", ")));
            return;
        }
        let idx = st.trace.len();
        let chosen = if idx < st.prefix.len() {
            let c = st.prefix[idx];
            if !enabled.contains(&c) {
                self.fail(
                    st,
                    format!(
                        "replay diverged: task {c} not schedulable at step {idx} (enabled: {enabled:?})"
                    ),
                );
                return;
            }
            c
        } else if matches!(st.slots[running].status, Status::Runnable) {
            // Default: keep running the current task (zero preemptions
            // down the leftmost path).
            running
        } else {
            enabled[0]
        };
        let voluntary = !matches!(st.slots[running].status, Status::Runnable);
        st.trace.push(Decision {
            enabled,
            ops,
            chosen,
            running,
            voluntary,
        });
        // Another task ran (or is about to): yielded tasks rejoin the
        // runnable set; a chosen last-resort waiter wakes by timeout.
        for (i, s) in st.slots.iter_mut().enumerate() {
            if matches!(s.status, Status::Yielded) && (i != running || i == chosen) {
                s.status = Status::Runnable;
            }
        }
        if matches!(st.slots[chosen].status, Status::Yielded) {
            st.slots[chosen].status = Status::Runnable;
        }
        if let Status::BlockedCond { obj, timed: true } = st.slots[chosen].status {
            if let Some(w) = st.objs.cond_waiters.get_mut(&obj) {
                w.retain(|&t| t != chosen);
            }
            st.slots[chosen].status = Status::Runnable;
            st.slots[chosen].cond_timed_out = true;
        }
        st.current = chosen;
        self.cv.notify_all();
    }

    /// Parks the calling task until it is granted the token (or the
    /// execution aborts, in which case it unwinds).
    fn wait_for_token<'a>(
        &'a self,
        mut st: std::sync::MutexGuard<'a, State>,
        me: TaskId,
    ) -> std::sync::MutexGuard<'a, State> {
        loop {
            if st.abort {
                drop(st);
                panic::panic_any(ModelAbort);
            }
            if st.current == me && matches!(st.slots[me].status, Status::Runnable) {
                return st;
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// The universal interleaving point: declare the upcoming operation,
    /// let the scheduler pick who runs, return once this task is picked.
    pub(crate) fn yield_op(&self, me: TaskId, op: Op, voluntary: bool) {
        let mut st = self.lock_state();
        if st.abort {
            drop(st);
            panic::panic_any(ModelAbort);
        }
        st.slots[me].pending = op;
        if voluntary {
            st.slots[me].status = Status::Yielded;
        }
        self.decide(&mut st, me);
        drop(self.wait_for_token(st, me));
    }

    /// Acquires mutex/write object `obj` for `me` (blocking-by-schedule).
    pub(crate) fn lock_acquire(&self, me: TaskId, obj: usize, read: bool) {
        let kind = if read {
            OpKind::RwRead
        } else {
            OpKind::LockAcquire
        };
        self.yield_op(me, Op { obj, kind }, false);
        loop {
            let mut st = self.lock_state();
            if st.abort {
                drop(st);
                panic::panic_any(ModelAbort);
            }
            let writer_free = !st.objs.writer.contains_key(&obj);
            let readers = st.objs.readers.get(&obj).copied().unwrap_or(0);
            if read {
                if writer_free {
                    *st.objs.readers.entry(obj).or_insert(0) += 1;
                    return;
                }
            } else if writer_free && readers == 0 {
                st.objs.writer.insert(obj, me);
                return;
            }
            st.slots[me].status = Status::BlockedLock(obj);
            self.decide(&mut st, me);
            drop(self.wait_for_token(st, me));
        }
    }

    /// Releases mutex/write (or one read share of) object `obj`.
    pub(crate) fn lock_release(&self, me: TaskId, obj: usize, read: bool) {
        let _ = me;
        let mut st = self.lock_state();
        if read {
            if let Some(n) = st.objs.readers.get_mut(&obj) {
                *n = n.saturating_sub(1);
            }
        } else {
            st.objs.writer.remove(&obj);
        }
        Self::wake_lock_waiters(&mut st, obj);
    }

    fn wake_lock_waiters(st: &mut State, obj: usize) {
        for s in &mut st.slots {
            if s.status == Status::BlockedLock(obj) {
                s.status = Status::Runnable;
            }
        }
    }

    /// Atomically releases mutex `mutex_obj`, waits on condvar `cond`,
    /// and (after wake) re-acquires the mutex. Returns whether the wake
    /// was a last-resort timeout.
    pub(crate) fn cond_wait(&self, me: TaskId, cond: usize, mutex_obj: usize, timed: bool) -> bool {
        self.yield_op(
            me,
            Op {
                obj: cond,
                kind: OpKind::CondWait,
            },
            false,
        );
        {
            let mut st = self.lock_state();
            st.objs.writer.remove(&mutex_obj);
            Self::wake_lock_waiters(&mut st, mutex_obj);
            st.objs.cond_waiters.entry(cond).or_default().push(me);
            st.slots[me].status = Status::BlockedCond { obj: cond, timed };
            st.slots[me].cond_timed_out = false;
            self.decide(&mut st, me);
            drop(self.wait_for_token(st, me));
        }
        let timed_out = self.lock_state().slots[me].cond_timed_out;
        self.lock_acquire(me, mutex_obj, false);
        timed_out
    }

    /// Wakes one (or all) waiters of condvar `cond`.
    pub(crate) fn cond_notify(&self, me: TaskId, cond: usize, all: bool) {
        self.yield_op(
            me,
            Op {
                obj: cond,
                kind: OpKind::CondNotify,
            },
            false,
        );
        let mut st = self.lock_state();
        let waiters = st.objs.cond_waiters.entry(cond).or_default();
        let woken: Vec<TaskId> = if all {
            std::mem::take(waiters)
        } else if waiters.is_empty() {
            Vec::new()
        } else {
            vec![waiters.remove(0)]
        };
        for t in woken {
            st.slots[t].status = Status::Runnable;
            st.slots[t].cond_timed_out = false;
        }
    }

    /// An interleaving point before an atomic access (the access itself is
    /// performed by the caller after this returns).
    pub(crate) fn atomic_op(&self, me: TaskId, obj: usize, write: bool) {
        let kind = if write {
            OpKind::AtomicWrite
        } else {
            OpKind::AtomicLoad
        };
        self.yield_op(me, Op { obj, kind }, false);
    }

    /// Registers a new task and returns its id; the caller spawns the OS
    /// thread that will run it.
    pub(crate) fn register_task(&self) -> TaskId {
        let mut st = self.lock_state();
        st.slots.push(Slot {
            status: Status::Runnable,
            pending: Op {
                obj: 0,
                kind: OpKind::Yield,
            },
            cond_timed_out: false,
        });
        st.live += 1;
        st.slots.len() - 1
    }

    /// Blocks `me` until task `target` finishes.
    pub(crate) fn join_task(&self, me: TaskId, target: TaskId) {
        self.yield_op(
            me,
            Op {
                obj: 0,
                kind: OpKind::Join,
            },
            false,
        );
        loop {
            let mut st = self.lock_state();
            if st.abort {
                drop(st);
                panic::panic_any(ModelAbort);
            }
            if matches!(st.slots[target].status, Status::Finished) {
                return;
            }
            st.slots[me].status = Status::BlockedJoin(target);
            self.decide(&mut st, me);
            drop(self.wait_for_token(st, me));
        }
    }

    /// Whether this execution has aborted (violation found); no further
    /// tokens will be granted.
    pub(crate) fn aborted(&self) -> bool {
        self.lock_state().abort
    }

    /// Parks a freshly spawned task until it is first granted the token.
    pub(crate) fn wait_initial(&self, me: TaskId) {
        let st = self.lock_state();
        drop(self.wait_for_token(st, me));
    }

    /// Marks `me` finished, records a panic as a violation, wakes joiners,
    /// and hands the token onward.
    pub(crate) fn finish_task(
        &self,
        me: TaskId,
        panic_payload: Option<Box<dyn std::any::Any + Send>>,
    ) {
        let mut st = self.lock_state();
        if let Some(p) = panic_payload {
            if !p.is::<ModelAbort>() {
                let msg = p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "task panicked (non-string payload)".to_string());
                self.fail(&mut st, format!("task {me} panicked: {msg}"));
            }
        }
        st.slots[me].status = Status::Finished;
        st.live -= 1;
        for s in &mut st.slots {
            if s.status == Status::BlockedJoin(me) {
                s.status = Status::Runnable;
            }
        }
        if st.live == 0 || st.abort {
            self.cv.notify_all();
        } else {
            self.decide(&mut st, me);
        }
    }
}

/// Outcome of one schedule run.
struct ExecOutcome {
    trace: Vec<Decision>,
    failure: Option<String>,
}

/// Runs one execution of `f` under the forced choice `prefix`.
fn run_one(prefix: &[TaskId], step_cap: usize, f: &(dyn Fn() + Sync)) -> ExecOutcome {
    let epoch = EPOCH.fetch_add(1, Ordering::Relaxed) + 1;
    let sched = Arc::new(Scheduler::new(prefix.to_vec(), step_cap, epoch));
    std::thread::scope(|scope| {
        let root = Arc::clone(&sched);
        scope.spawn(move || {
            set_ctx(Some((Arc::clone(&root), 0)));
            let r = panic::catch_unwind(AssertUnwindSafe(f));
            set_ctx(None);
            root.finish_task(0, r.err());
        });
        let mut st = sched.lock_state();
        while st.live > 0 {
            st = sched
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    });
    let st = sched.lock_state();
    ExecOutcome {
        trace: st.trace.clone(),
        failure: st.failure.clone(),
    }
}

/// Exploration limits for [`check_with`].
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Maximum involuntary context switches per schedule (default 2 —
    /// enough for every known class of cut/cursor race, see DESIGN.md
    /// §14).
    pub preemption_bound: usize,
    /// Abort exploration after this many schedules (safety valve against
    /// state-space blowup; exceeding it is reported as a violation so
    /// tests cannot silently under-explore).
    pub max_schedules: u64,
    /// Per-execution decision cap; exceeding it means a livelock.
    pub max_steps: usize,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            preemption_bound: 2,
            max_schedules: 500_000,
            max_steps: 50_000,
        }
    }
}

/// A concurrency bug found by the checker.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What went wrong: the panic message, deadlock roster, or livelock.
    pub message: String,
    /// Replay token — feed to [`replay`] to re-run this exact schedule.
    pub schedule: String,
    /// Schedules explored before the violation surfaced.
    pub schedules_explored: u64,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [after {} schedules; replay token: {}]",
            self.message, self.schedules_explored, self.schedule
        )
    }
}

/// Exploration statistics from a clean [`check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Distinct schedules executed.
    pub schedules: u64,
    /// Deepest decision sequence seen.
    pub max_depth: usize,
}

struct Frame {
    enabled: Vec<TaskId>,
    ops: Vec<Op>,
    running: TaskId,
    voluntary: bool,
    chosen: TaskId,
    tried: Vec<TaskId>,
    sleep: Vec<TaskId>,
    preemptions_before: usize,
}

impl Frame {
    fn op_of(&self, t: TaskId) -> Op {
        let i = self
            .enabled
            .iter()
            .position(|&e| e == t)
            .unwrap_or_default();
        self.ops[i]
    }

    fn is_preemption(&self, t: TaskId) -> bool {
        !self.voluntary && t != self.running && self.enabled.contains(&self.running)
    }
}

fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().is::<ModelAbort>() {
                return;
            }
            // Panics inside model tasks are captured and reported as
            // violations; printing each one would spam every explored
            // failing schedule.
            if current().is_some() {
                return;
            }
            prev(info);
        }));
    });
}

fn token_of(trace: &[Decision]) -> String {
    trace
        .iter()
        .map(|d| d.chosen.to_string())
        .collect::<Vec<_>>()
        .join(".")
}

/// Exhaustively explores `f` under the default [`Config`].
pub fn check(f: impl Fn() + Send + Sync) -> Result<Stats, Violation> {
    check_with(Config::default(), f)
}

/// Exhaustively explores every schedule of `f` up to `cfg`'s bounds.
///
/// Returns [`Stats`] when the whole (bounded) schedule space is clean, or
/// the first [`Violation`] found — whose token [`replay`]s
/// deterministically.
pub fn check_with(cfg: Config, f: impl Fn() + Send + Sync) -> Result<Stats, Violation> {
    install_quiet_hook();
    let mut stack: Vec<Frame> = Vec::new();
    let mut schedules = 0u64;
    let mut max_depth = 0usize;
    loop {
        let prefix: Vec<TaskId> = stack.iter().map(|fr| fr.chosen).collect();
        let out = run_one(&prefix, cfg.max_steps, &f);
        schedules += 1;
        if let Some(message) = out.failure {
            return Err(Violation {
                message,
                schedule: token_of(&out.trace),
                schedules_explored: schedules,
            });
        }
        // First visit of every decision beyond the forced prefix: record
        // a frame, inheriting the parent's sleep set filtered by
        // independence with the parent's chosen operation.
        for d in &out.trace[stack.len()..] {
            let sleep = match stack.last() {
                Some(p) => {
                    let chosen_op = p.op_of(p.chosen);
                    p.sleep
                        .iter()
                        .copied()
                        .filter(|&t| p.op_of(t).independent(chosen_op))
                        .filter(|t| d.enabled.contains(t))
                        .collect()
                }
                None => Vec::new(),
            };
            let preemptions_before = match stack.last() {
                Some(p) => p.preemptions_before + usize::from(p.is_preemption(p.chosen)),
                None => 0,
            };
            stack.push(Frame {
                enabled: d.enabled.clone(),
                ops: d.ops.clone(),
                running: d.running,
                voluntary: d.voluntary,
                chosen: d.chosen,
                tried: vec![d.chosen],
                sleep,
                preemptions_before,
            });
        }
        max_depth = max_depth.max(out.trace.len());
        // Backtrack to the deepest frame with an untried, unslept,
        // preemption-affordable alternative.
        loop {
            let Some(top) = stack.last_mut() else {
                return Ok(Stats {
                    schedules,
                    max_depth,
                });
            };
            if !top.sleep.contains(&top.chosen) {
                top.sleep.push(top.chosen);
            }
            let budget_left = cfg.preemption_bound.saturating_sub(top.preemptions_before);
            let next = top.enabled.iter().copied().find(|&t| {
                !top.tried.contains(&t)
                    && !top.sleep.contains(&t)
                    && (!top.is_preemption(t) || budget_left > 0)
            });
            match next {
                Some(t) => {
                    top.tried.push(t);
                    top.chosen = t;
                    break;
                }
                None => {
                    stack.pop();
                }
            }
        }
        if schedules >= cfg.max_schedules {
            return Err(Violation {
                message: format!(
                    "exploration aborted: max_schedules ({}) reached without exhausting the space",
                    cfg.max_schedules
                ),
                schedule: String::new(),
                schedules_explored: schedules,
            });
        }
    }
}

/// Re-runs `f` under exactly the schedule a [`Violation`] reported.
///
/// `Ok(())` means the schedule ran clean (the bug no longer reproduces);
/// `Err` carries the reproduced violation.
pub fn replay(token: &str, f: impl Fn() + Send + Sync) -> Result<(), Violation> {
    install_quiet_hook();
    let prefix: Vec<TaskId> = if token.is_empty() {
        Vec::new()
    } else {
        match token.split('.').map(str::parse).collect() {
            Ok(p) => p,
            Err(e) => {
                return Err(Violation {
                    message: format!("unparseable schedule token {token:?}: {e}"),
                    schedule: token.to_string(),
                    schedules_explored: 0,
                })
            }
        }
    };
    let out = run_one(&prefix, Config::default().max_steps, &f);
    match out.failure {
        Some(message) => Err(Violation {
            message,
            schedule: token_of(&out.trace),
            schedules_explored: 1,
        }),
        None => Ok(()),
    }
}
