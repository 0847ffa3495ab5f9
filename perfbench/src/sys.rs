//! The few host facilities the benchmark needs beyond `std`: process CPU
//! time, peak resident set, `/proc/stat` deltas, readiness polling and
//! timer slack. The C functions come from the C library `std` already
//! links; no extra crate is involved.

use std::os::fd::AsRawFd;
use std::time::Duration;

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench reads /proc and calls Linux-only C functions");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const PR_SET_TIMERSLACK: i32 = 29;
/// `poll(2)` readiness bits.
pub const POLLIN: i16 = 0x1;
/// Writable.
pub const POLLOUT: i16 = 0x4;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// CPU time consumed by every thread of this process so far.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is a
    // constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Asks the kernel to wake this thread's timed sleeps without the default
/// 50 µs slack, so open-loop frames leave close to their due time.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes a plain integer and touches no
    // caller memory; failure only leaves the default slack in place.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// Waits until one of `socks` is ready for the events asked for it, or
/// until `timeout` passes. Returns the ready events per socket.
pub fn poll(socks: &[(&std::net::TcpStream, i16)], timeout: Duration) -> Vec<i16> {
    let mut fds: Vec<PollFd> = socks
        .iter()
        .map(|(s, events)| PollFd {
            fd: s.as_raw_fd(),
            events: *events,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` holds `fds.len()` initialised pollfd records backed by
    // open sockets borrowed for the call; `ts` outlives it; a null signal
    // mask leaves the mask unchanged.
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if rc < 0 {
        // EINTR: report nothing ready; the caller re-polls.
        return vec![0; fds.len()];
    }
    fds.iter().map(|f| f.revents).collect()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative idle and steal jiffies of all CPUs, from `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    /// Ticks the CPUs spent idle (idle + iowait).
    pub idle: u64,
    /// Ticks the hypervisor gave to other guests.
    pub steal: u64,
    /// All ticks.
    pub total: u64,
}

impl CpuTicks {
    /// Reads the aggregate `cpu` line.
    pub fn now() -> CpuTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTicks::default();
        };
        let f: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|x| x.parse().ok())
            .collect();
        let at = |i: usize| f.get(i).copied().unwrap_or(0);
        CpuTicks {
            idle: at(3) + at(4),
            steal: at(7),
            total: f.iter().take(8).sum(),
        }
    }

    /// Idle and steal shares of the ticks elapsed since `earlier`.
    pub fn shares_since(&self, earlier: &CpuTicks) -> (f64, f64) {
        let total = self.total.saturating_sub(earlier.total).max(1) as f64;
        (
            self.idle.saturating_sub(earlier.idle) as f64 / total,
            self.steal.saturating_sub(earlier.steal) as f64 / total,
        )
    }
}
