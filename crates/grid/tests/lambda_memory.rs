//! Algorithm 4's working memory is O(2^λ): one λ = 14 fit over its 91
//! pair constraints may raise this process's peak resident set by a few
//! hundred KB (three vectors of 2^14 entries), not by the 24 MB a 0/1
//! membership table per constraint would take.
//!
//! The fit frees whatever it allocates before it returns, and the
//! allocator hands large blocks straight back to the kernel, so the
//! resident set after the fit shows nothing; the peak (`VmHWM`) does. It
//! is the only test in this binary, so no parallel test allocates beside
//! it.
#![cfg(target_os = "linux")]

use felip_grid::lambda::{fit_constraints_full, Constraint};

const LAMBDA: usize = 14;

/// A `/proc/self/status` field in bytes (`VmRSS`, `VmHWM`, ...).
fn status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} line"));
    kib * 1024
}

#[test]
fn lambda_14_fit_stays_within_a_few_vectors() {
    // Independent predicates: every pair answer is the product of its two
    // marginals, so the constraints are consistent and the fit converges.
    let marginals: Vec<f64> = (0..LAMBDA).map(|s| 0.3 + 0.03 * s as f64).collect();
    let mut constraints = Vec::new();
    for s in 0..LAMBDA {
        for t in s + 1..LAMBDA {
            constraints.push(Constraint {
                mask: (1 << s) | (1 << t),
                answer: marginals[s] * marginals[t],
            });
        }
    }
    assert_eq!(constraints.len(), 91);

    // Peak after minus resident before: if the fit never set a new peak,
    // this over-counts, so it cannot hide the fit's allocations.
    let before = status_bytes("VmRSS");
    let fit = fit_constraints_full(LAMBDA, &constraints, 1e-3);
    let grown = status_bytes("VmHWM").saturating_sub(before);
    eprintln!(
        "λ = {LAMBDA}: {} sweeps, peak VmRSS +{:.2} MB",
        fit.sweeps,
        grown as f64 / 1e6
    );
    assert!(fit.converged(1e-3), "residual {:e}", fit.residual);
    assert!(
        grown < 8 << 20,
        "a λ = {LAMBDA} fit raised the peak resident set by {grown} B"
    );
}
