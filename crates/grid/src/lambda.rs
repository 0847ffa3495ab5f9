//! λ-D query estimation from associated 2-D answers (Algorithm 4, §5.6).
//!
//! A λ-D query `q = ∧_t (a_t, o_t, v_t)` is split into its `C(λ, 2)`
//! associated 2-D queries. The aggregator then maintains a vector `z` of
//! `2^λ` entries, one per combination of "predicate t satisfied / violated"
//! (bit `t` of the index set ⇔ predicate `t` satisfied), and iteratively
//! fits `z` to the 2-D answers: the answer of `q^(i,j)` constrains the total
//! mass of the `2^(λ−2)` entries whose bits `i` and `j` are both set.
//!
//! Implementation note: the paper's Algorithm 4 rescales only the
//! constrained entries. We apply the standard two-sided iterative
//! proportional fitting update (rescale the complement so `z` stays a
//! probability vector); the fixed points are identical when the 2-D answers
//! are mutually consistent, and the two-sided update is better conditioned
//! when they are not (documented in DESIGN.md).
//!
//! The paper iterates "until the change is below 1/n". The fit stops when
//! one whole sweep moves `z` by less than the threshold in L1,
//! `‖z_k − z_{k−1}‖₁`, the first sweep measured against the uniform start.
//! By the triangle inequality that movement is at most the change summed
//! over the sweep's updates, so this rule never stops later than summing
//! would. A sweep needs `z`, its copy from the previous sweep and one
//! constraint's saved entries: three vectors of `2^λ` entries and no
//! per-constraint state.

/// One associated 2-D answer: local predicate slots `(s, t)` (indices into
/// the query's predicate list, `s < t < λ`) and the estimated 2-D frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairAnswer {
    /// First predicate slot.
    pub s: usize,
    /// Second predicate slot.
    pub t: usize,
    /// Estimated answer of the 2-D query `(pred_s ∧ pred_t)`, clamped to
    /// `[0, 1]` by the caller or here.
    pub answer: f64,
}

/// A general fitting constraint: the total mass of the entries whose index
/// contains every bit of `mask` must equal `answer`.
///
/// [`PairAnswer`]s are the paper's constraints (two-bit masks), and the
/// only ones the query path builds. The fit itself accepts any non-zero
/// mask: single-bit masks (1-D marginal answers) let the tests pin a fit
/// to a known joint distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraint {
    /// Bit `i` set ⇔ predicate `i` must be satisfied.
    pub mask: usize,
    /// Target mass of the constrained entry set.
    pub answer: f64,
}

impl From<PairAnswer> for Constraint {
    fn from(p: PairAnswer) -> Self {
        Constraint {
            mask: (1usize << p.s) | (1usize << p.t),
            answer: p.answer,
        }
    }
}

/// Hard cap on fitting sweeps. Consistent constraints, and the paper's own
/// λ = 4 and λ = 6 lists, stop far below it; conflicting noisy answers can
/// make the fit cycle, and then the cap ends it.
pub const MAX_SWEEPS: usize = 500;

/// Largest λ the fit accepts: `z` has `2^λ` entries, so λ = 20 already
/// needs 8 MB per working vector. Callers that take λ from a query
/// (`Estimator::answer`) check it against this cap and return an error.
pub const MAX_LAMBDA: usize = 20;

/// Outcome of an IPF fit: the fitted vector plus convergence diagnostics.
///
/// [`fit_constraints`] keeps its plain-`Vec` signature for pipeline callers;
/// tests and diagnostics use [`fit_constraints_full`] to assert the fit
/// actually converged below the requested threshold instead of hitting the
/// [`MAX_SWEEPS`] cap.
#[derive(Debug, Clone, PartialEq)]
pub struct FitResult {
    /// The fitted `2^λ` probability vector.
    pub z: Vec<f64>,
    /// Sweeps actually performed (≤ [`MAX_SWEEPS`]).
    pub sweeps: usize,
    /// L1 movement of the final sweep, `‖z_k − z_{k−1}‖₁` (the first sweep
    /// is measured against the uniform start).
    pub residual: f64,
}

impl FitResult {
    /// True when the final sweep moved `z` by less than `threshold` (i.e.
    /// the loop exited by convergence, not by the sweep cap).
    pub fn converged(&self, threshold: f64) -> bool {
        self.residual < threshold
    }
}

/// Algorithm 4: estimates the λ-D answer from its `C(λ, 2)` associated 2-D
/// answers. `threshold` is the convergence bound on the L1 movement of `z`
/// over one sweep (use `1/n`).
///
/// Returns the full estimated vector `z` (length `2^λ`); the λ-D answer is
/// `z[2^λ − 1]` (all predicates satisfied), exposed via [`lambda_answer`].
///
/// # Panics
/// Panics when `lambda < 2` or `lambda > MAX_LAMBDA`, when a pair
/// references an out-of-range slot, or when `pairs` is empty.
pub fn fit_lambda(lambda: usize, pairs: &[PairAnswer], threshold: f64) -> Vec<f64> {
    assert!(lambda >= 2, "lambda must be at least 2, got {lambda}");
    assert!(!pairs.is_empty(), "need at least one 2-D answer");
    for p in pairs {
        assert!(
            p.s < p.t && p.t < lambda,
            "bad pair slots ({}, {})",
            p.s,
            p.t
        );
    }
    let constraints: Vec<Constraint> = pairs.iter().map(|&p| p.into()).collect();
    fit_constraints(lambda, &constraints, threshold)
}

/// Generalised Algorithm 4: fits the `2^λ` vector against arbitrary
/// upward-closed mask constraints (pairs, marginals, or higher-order
/// answers).
///
/// # Panics
/// Panics when `lambda < 2` or `lambda > MAX_LAMBDA`, when a constraint's
/// mask is zero or references a slot `≥ λ`, or when `constraints` is empty.
pub fn fit_constraints(lambda: usize, constraints: &[Constraint], threshold: f64) -> Vec<f64> {
    fit_constraints_full(lambda, constraints, threshold).z
}

/// [`fit_constraints`] with convergence diagnostics: returns the fitted
/// vector together with the sweep count and final residual so callers can
/// assert convergence (see [`FitResult::converged`]).
///
/// # Panics
/// Same contract as [`fit_constraints`].
pub fn fit_constraints_full(
    lambda: usize,
    constraints: &[Constraint],
    threshold: f64,
) -> FitResult {
    assert!(lambda >= 2, "lambda must be at least 2, got {lambda}");
    assert!(
        lambda <= MAX_LAMBDA,
        "lambda of {lambda} exceeds the cap of {MAX_LAMBDA}"
    );
    assert!(!constraints.is_empty(), "need at least one constraint");
    let size = 1usize << lambda;
    for c in constraints {
        assert!(
            c.mask != 0 && c.mask < size,
            "constraint mask {:#x} out of range",
            c.mask
        );
    }
    let mut z = vec![1.0 / size as f64; size];
    // `z` as the previous sweep left it, for the end-of-sweep movement.
    let mut prev = z.clone();
    // One constraint's entries before its update; a one-bit mask has the
    // most, 2^(λ−1).
    let mut saved = vec![0.0; size / 2];
    let mut sweeps: usize = 0;
    let mut residual = 0.0;
    for _ in 0..MAX_SWEEPS {
        sweeps += 1;
        for c in constraints {
            // Soft-clamp away from exact 0/1: a hard-zero target makes the
            // constrained set absorbing, and several conflicting hard
            // constraints (possible with noisy inputs) would drain `z`
            // entirely. The 1e-9 slack is far below the 1/n convergence
            // threshold of any realistic population.
            let target = c.answer.clamp(1e-9, 1.0 - 1e-9);
            rescale(&mut z, &mut saved, c.mask, target);
        }
        residual = movement(&z, &mut prev);
        if residual < threshold {
            break;
        }
    }
    felip_obs::hist!("grid.ipf.sweeps", sweeps as u64, "sweeps");
    if residual < threshold {
        felip_obs::counter!("grid.ipf.converged", 1, "fits");
    }
    FitResult {
        z,
        sweeps,
        residual,
    }
}

/// Independent accumulators in the fit kernel. A `2^λ` vector with λ ≥ 2
/// splits into whole chunks of this many entries.
const LANES: usize = 4;

/// Two-sided IPF update for one constraint: scales the entries whose index
/// contains `mask` so they sum to `target` and the rest so they sum to
/// `1 − target`.
///
/// The constrained entries are walked with `i = (i + 1) | mask`, which
/// visits exactly the supersets of `mask` in increasing order, and saved
/// in `saved`; the complement's mass is `Σz` minus theirs, so no masked
/// pass over the complement and no per-constraint table is needed. Every entry is then
/// scaled by the complement's factor, and the saved ones are rewritten
/// with theirs: the same products as scaling each entry by its own set's
/// factor.
fn rescale(z: &mut [f64], saved: &mut [f64], mask: usize, target: f64) {
    let mut inside = [0.0; LANES];
    let mut count = 0;
    let mut i = mask;
    while i < z.len() {
        saved[count] = z[i];
        inside[count % LANES] += z[i];
        count += 1;
        i = (i + 1) | mask;
    }
    let y_in: f64 = inside.iter().sum();
    // Actual complement mass — never assume Σz == 1: tiny floating-point
    // drift would otherwise compound multiplicatively across sweeps.
    let y_out = sum(z) - y_in;
    if y_in <= 0.0 || y_out <= 0.0 {
        // The constrained set (or its complement) has no mass left — the
        // constraint is unreachable from here; skip it so `z` stays a
        // distribution.
        return;
    }
    let (scale_in, scale_out) = (target / y_in, (1.0 - target) / y_out);
    // Floor at a tiny positive value: repeated near-zero targets on
    // conflicting constraints would otherwise underflow entries to exact 0,
    // permanently removing them from the fit (and, once a whole constrained
    // set hits 0, de-normalising `z`). The floor's contribution to any sum
    // is ≪ 1e-6.
    for v in z.iter_mut() {
        *v = (*v * scale_out).max(1e-300);
    }
    let mut i = mask;
    for &v in &saved[..count] {
        z[i] = (v * scale_in).max(1e-300);
        i = (i + 1) | mask;
    }
}

/// `Σz`, summed over [`LANES`] accumulators. Kept as its own pass: folding
/// it into the scaling loop measured slower.
fn sum(z: &[f64]) -> f64 {
    let mut sums = [0.0; LANES];
    for z in z.chunks_exact(LANES) {
        for l in 0..LANES {
            sums[l] += z[l];
        }
    }
    sums.iter().sum()
}

/// `‖z − prev‖₁`, summed over [`LANES`] accumulators; leaves `prev` equal
/// to `z`.
fn movement(z: &[f64], prev: &mut [f64]) -> f64 {
    let mut moved = [0.0; LANES];
    for (z, prev) in z.chunks_exact(LANES).zip(prev.chunks_exact(LANES)) {
        for l in 0..LANES {
            moved[l] += (z[l] - prev[l]).abs();
        }
    }
    prev.copy_from_slice(z);
    moved.iter().sum()
}

/// Convenience wrapper: runs [`fit_lambda`] and returns the all-predicates
/// answer `z[2^λ − 1]`.
pub fn lambda_answer(lambda: usize, pairs: &[PairAnswer], threshold: f64) -> f64 {
    let z = fit_lambda(lambda, pairs, threshold);
    z[(1usize << lambda) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-entry branching loop the kernel replaced, kept as its
    /// oracle: same clamp, skip rule, two-sided update and floor, two full
    /// masked passes per constraint, and the stop on the L1 movement
    /// against a full copy of the previous sweep's `z`.
    fn fit_scalar(lambda: usize, constraints: &[Constraint], threshold: f64) -> FitResult {
        let size = 1usize << lambda;
        let mut z = vec![1.0 / size as f64; size];
        let mut sweeps = 0;
        let mut residual = 0.0;
        for _ in 0..MAX_SWEEPS {
            sweeps += 1;
            let before = z.clone();
            for p in constraints {
                let target = p.answer.clamp(1e-9, 1.0 - 1e-9);
                let mask = p.mask;
                let (mut y_in, mut y_out) = (0.0, 0.0);
                for (idx, v) in z.iter().enumerate() {
                    if idx & mask == mask {
                        y_in += v;
                    } else {
                        y_out += v;
                    }
                }
                if y_in <= 0.0 || y_out <= 0.0 {
                    continue;
                }
                let (scale_in, scale_out) = (target / y_in, (1.0 - target) / y_out);
                for (idx, v) in z.iter_mut().enumerate() {
                    let scale = if idx & mask == mask {
                        scale_in
                    } else {
                        scale_out
                    };
                    *v = (*v * scale).max(1e-300);
                }
            }
            residual = z.iter().zip(&before).map(|(a, b)| (a - b).abs()).sum();
            if residual < threshold {
                break;
            }
        }
        FitResult {
            z,
            sweeps,
            residual,
        }
    }

    /// Noisy constraints the way estimation produces them: the masses of
    /// a skewed random joint over `2^λ` states plus noise of up to ±`noise`,
    /// so small answers fall below 0 and large ones can pass 1.
    fn noisy_constraints(
        rng: &mut impl rand::Rng,
        lambda: usize,
        marginals: bool,
        noise: f64,
    ) -> Vec<Constraint> {
        let mut joint: Vec<f64> = (0..1usize << lambda)
            .map(|_| rng.gen::<f64>().powi(3))
            .collect();
        let total: f64 = joint.iter().sum();
        joint.iter_mut().for_each(|v| *v /= total);
        let mut masks: Vec<usize> = Vec::new();
        for s in 0..lambda {
            for t in s + 1..lambda {
                masks.push((1 << s) | (1 << t));
            }
        }
        if marginals {
            masks.extend((0..lambda).map(|s| 1 << s));
        }
        masks
            .into_iter()
            .map(|mask| {
                let mass: f64 = (0..joint.len())
                    .filter(|idx| idx & mask == mask)
                    .map(|idx| joint[idx])
                    .sum();
                Constraint {
                    mask,
                    answer: mass + rng.gen_range(-noise..noise),
                }
            })
            .collect()
    }

    fn max_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// The branch-free kernel agrees with the scalar oracle for λ = 2..=8
    /// on random noisy pair constraints, with and without marginals,
    /// answers outside `[0, 1]` included; at noise ±0.3 the fits run to
    /// `MAX_SWEEPS`. Only rounding differs (the kernel takes the
    /// complement's mass as `Σz` minus the constrained mass), so `z` agrees
    /// to rounding and the stop to one sweep.
    ///
    /// Answers drawn independently of any joint are left out on purpose:
    /// they drain most entries to the 1e-300 floor and the fit turns
    /// chaotic, so moving a single answer by one ulp already moves the
    /// oracle's own `z` by up to 0.6. `lambda_fit_is_distribution` covers
    /// those inputs.
    #[test]
    fn kernel_matches_scalar_oracle() {
        let mut rng = felip_common::rng::seeded_rng(0x0A4C);
        for lambda in 2..=8 {
            for case in 0..8 {
                let noise = [0.001, 0.02, 0.1, 0.3][case % 4];
                let cs = noisy_constraints(&mut rng, lambda, case >= 4, noise);
                let threshold = [1e-6, 1e-12][case / 2 % 2];
                let got = fit_constraints_full(lambda, &cs, threshold);
                let want = fit_scalar(lambda, &cs, threshold);
                let diff = max_diff(&got.z, &want.z);
                assert!(
                    diff <= 1e-10,
                    "λ {lambda} case {case}: max |z − z_ref| = {diff:e}"
                );
                assert!(
                    got.sweeps.abs_diff(want.sweeps) <= 1,
                    "λ {lambda} case {case}: {} vs {} sweeps",
                    got.sweeps,
                    want.sweeps
                );
            }
        }
    }

    /// With λ = 2 the single constraint pins the answer exactly.
    #[test]
    fn two_dim_passthrough() {
        let a = lambda_answer(
            2,
            &[PairAnswer {
                s: 0,
                t: 1,
                answer: 0.37,
            }],
            1e-12,
        );
        assert!((a - 0.37).abs() < 1e-9);
    }

    /// Independent predicates: the fit lands in the right region — the
    /// constraints only pin pairwise "both satisfied" masses (not the
    /// marginals), so exact product recovery is not guaranteed, but the
    /// joint must be positive and bounded by every pairwise answer.
    #[test]
    fn independent_predicates_give_plausible_joint() {
        // Marginals p0 = 0.5, p1 = 0.4, p2 = 0.3; pairwise = products.
        let pairs = [
            PairAnswer {
                s: 0,
                t: 1,
                answer: 0.5 * 0.4,
            },
            PairAnswer {
                s: 0,
                t: 2,
                answer: 0.5 * 0.3,
            },
            PairAnswer {
                s: 1,
                t: 2,
                answer: 0.4 * 0.3,
            },
        ];
        let a = lambda_answer(3, &pairs, 1e-12);
        assert!(a > 0.01, "{a}");
        assert!(a <= 0.12 + 1e-9, "{a} exceeds the smallest pair answer");
    }

    /// The all-predicates entry is a subset of every constrained set, so at
    /// the fixed point the joint can never exceed the smallest 2-D answer.
    #[test]
    fn joint_bounded_by_min_pair() {
        let p = 0.3;
        let pairs = [
            PairAnswer {
                s: 0,
                t: 1,
                answer: p,
            },
            PairAnswer {
                s: 0,
                t: 2,
                answer: p,
            },
            PairAnswer {
                s: 1,
                t: 2,
                answer: 0.18,
            },
        ];
        let a = lambda_answer(3, &pairs, 1e-12);
        assert!(a > 0.0, "{a}");
        assert!(a <= 0.18 + 1e-6, "joint {a} exceeds min pairwise 0.18");
    }

    /// A zero pairwise answer forces the joint to zero.
    #[test]
    fn zero_pair_kills_joint() {
        let pairs = [
            PairAnswer {
                s: 0,
                t: 1,
                answer: 0.0,
            },
            PairAnswer {
                s: 0,
                t: 2,
                answer: 0.25,
            },
            PairAnswer {
                s: 1,
                t: 2,
                answer: 0.25,
            },
        ];
        let a = lambda_answer(3, &pairs, 1e-12);
        assert!(a < 1e-9, "{a}");
    }

    /// The fitted vector stays a probability distribution.
    #[test]
    fn z_is_a_distribution() {
        let pairs = [
            PairAnswer {
                s: 0,
                t: 1,
                answer: 0.2,
            },
            PairAnswer {
                s: 0,
                t: 2,
                answer: 0.15,
            },
            PairAnswer {
                s: 1,
                t: 2,
                answer: 0.1,
            },
            PairAnswer {
                s: 0,
                t: 3,
                answer: 0.4,
            },
            PairAnswer {
                s: 1,
                t: 3,
                answer: 0.12,
            },
            PairAnswer {
                s: 2,
                t: 3,
                answer: 0.09,
            },
        ];
        let z = fit_lambda(4, &pairs, 1e-12);
        assert_eq!(z.len(), 16);
        assert!(z.iter().all(|&v| v >= -1e-12));
        assert!((z.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    /// Constraints are (approximately) satisfied at the fixed point when
    /// they are mutually consistent.
    #[test]
    fn constraints_satisfied_at_fixed_point() {
        let pairs = [
            PairAnswer {
                s: 0,
                t: 1,
                answer: 0.5 * 0.4,
            },
            PairAnswer {
                s: 0,
                t: 2,
                answer: 0.5 * 0.3,
            },
            PairAnswer {
                s: 1,
                t: 2,
                answer: 0.4 * 0.3,
            },
        ];
        let z = fit_lambda(3, &pairs, 1e-14);
        for p in &pairs {
            let mask = (1usize << p.s) | (1usize << p.t);
            let got: f64 = z
                .iter()
                .enumerate()
                .filter(|(i, _)| i & mask == mask)
                .map(|(_, v)| v)
                .sum();
            assert!(
                (got - p.answer).abs() < 1e-6,
                "pair ({},{}) {} vs {}",
                p.s,
                p.t,
                got,
                p.answer
            );
        }
    }

    /// Out-of-range 2-D answers (negative / > 1 from noisy estimation) are
    /// clamped rather than corrupting the fit.
    #[test]
    fn noisy_answers_are_clamped() {
        let pairs = [
            PairAnswer {
                s: 0,
                t: 1,
                answer: -0.05,
            },
            PairAnswer {
                s: 0,
                t: 2,
                answer: 1.2,
            },
            PairAnswer {
                s: 1,
                t: 2,
                answer: 0.5,
            },
        ];
        let z = fit_lambda(3, &pairs, 1e-12);
        assert!(z.iter().all(|&v| (0.0..=1.0 + 1e-9).contains(&v)));
    }

    /// Adding 1-D marginal constraints (the extension) pins the joint of
    /// independent predicates to (nearly) the product of marginals, which
    /// the pairs-only fit cannot do.
    #[test]
    fn marginal_constraints_sharpen_independent_fit() {
        let (p0, p1, p2) = (0.5, 0.4, 0.3);
        let mut cs: Vec<Constraint> = vec![
            PairAnswer {
                s: 0,
                t: 1,
                answer: p0 * p1,
            }
            .into(),
            PairAnswer {
                s: 0,
                t: 2,
                answer: p0 * p2,
            }
            .into(),
            PairAnswer {
                s: 1,
                t: 2,
                answer: p1 * p2,
            }
            .into(),
        ];
        cs.push(Constraint {
            mask: 0b001,
            answer: p0,
        });
        cs.push(Constraint {
            mask: 0b010,
            answer: p1,
        });
        cs.push(Constraint {
            mask: 0b100,
            answer: p2,
        });
        let z = fit_constraints(3, &cs, 1e-12);
        let joint = z[7];
        assert!(
            (joint - p0 * p1 * p2).abs() < 5e-3,
            "joint {joint} vs product {}",
            p0 * p1 * p2
        );
    }

    #[test]
    fn pair_answer_converts_to_constraint() {
        let c: Constraint = PairAnswer {
            s: 1,
            t: 3,
            answer: 0.2,
        }
        .into();
        assert_eq!(c.mask, 0b1010);
        assert_eq!(c.answer, 0.2);
    }

    #[test]
    #[should_panic(expected = "mask")]
    fn rejects_zero_mask() {
        fit_constraints(
            3,
            &[Constraint {
                mask: 0,
                answer: 0.5,
            }],
            1e-9,
        );
    }

    #[test]
    #[should_panic(expected = "mask")]
    fn rejects_out_of_range_mask() {
        fit_constraints(
            2,
            &[Constraint {
                mask: 0b100,
                answer: 0.5,
            }],
            1e-9,
        );
    }

    #[test]
    #[should_panic(expected = "lambda must be at least 2")]
    fn rejects_lambda_one() {
        fit_lambda(
            1,
            &[PairAnswer {
                s: 0,
                t: 1,
                answer: 0.5,
            }],
            1e-9,
        );
    }

    #[test]
    #[should_panic(expected = "bad pair slots")]
    fn rejects_bad_slots() {
        fit_lambda(
            3,
            &[PairAnswer {
                s: 2,
                t: 1,
                answer: 0.5,
            }],
            1e-9,
        );
    }

    #[test]
    #[should_panic(expected = "at least one 2-D answer")]
    fn rejects_empty_pairs() {
        fit_lambda(3, &[], 1e-9);
    }
}
