//! Property-based tests for the grid substrate's core data structures.

use proptest::prelude::*;

use felip_grid::bins::Binning;
use felip_grid::lambda::{
    fit_constraints, fit_constraints_full, fit_lambda, Constraint, PairAnswer, MAX_SWEEPS,
};
use felip_grid::postprocess::norm_sub;
use felip_grid::response::ResponseMatrix;
use felip_grid::{EstimatedGrid, GridSpec};

use felip_common::{Attribute, Predicate, Schema};
use felip_fo::FoKind;

proptest! {
    /// A binning always partitions the domain exactly: cells tile `0..d`
    /// with widths differing by at most one, and `cell_of` inverts
    /// `cell_range` for every value.
    #[test]
    fn binning_partitions_domain(d in 1u32..500, raw_l in 1u32..500) {
        let l = raw_l.min(d);
        let b = Binning::equal(d, l).unwrap();
        prop_assert_eq!(b.cells(), l);
        prop_assert_eq!(b.domain(), d);
        let widths: Vec<u32> = (0..l).map(|i| b.width(i)).collect();
        prop_assert_eq!(widths.iter().sum::<u32>(), d);
        let (min, max) = (widths.iter().min().unwrap(), widths.iter().max().unwrap());
        prop_assert!(max - min <= 1);
        for v in (0..d).step_by((d as usize / 64).max(1)) {
            let c = b.cell_of(v);
            let (lo, hi) = b.cell_range(c);
            prop_assert!(lo <= v && v < hi);
        }
    }

    /// Overlap fractions of any range are in (0, 1], cover exactly the
    /// cells intersecting the range, and weight-sum to the range length.
    #[test]
    fn binning_overlaps_measure_range(d in 2u32..300, raw_l in 1u32..300, a in 0u32..300, b in 0u32..300) {
        let l = raw_l.min(d);
        let (lo, hi) = (a.min(b) % d, (a.max(b)) % d);
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let bin = Binning::equal(d, l).unwrap();
        let overlaps = bin.overlaps(lo, hi);
        prop_assert!(!overlaps.is_empty());
        let mut measured = 0.0;
        for &(c, frac) in &overlaps {
            prop_assert!(frac > 0.0 && frac <= 1.0 + 1e-12);
            measured += frac * bin.width(c) as f64;
        }
        prop_assert!((measured - (hi - lo + 1) as f64).abs() < 1e-9);
    }

    /// norm-sub always yields a non-negative vector summing to the target.
    #[test]
    fn norm_sub_yields_distribution(
        mut freqs in proptest::collection::vec(-1.0f64..2.0, 1..200),
    ) {
        norm_sub(&mut freqs, 1.0);
        prop_assert!(freqs.iter().all(|&f| f >= 0.0), "{freqs:?}");
        prop_assert!((freqs.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    /// norm-sub is idempotent: applying it to a valid distribution is a
    /// no-op (up to float noise).
    #[test]
    fn norm_sub_idempotent(mut freqs in proptest::collection::vec(-1.0f64..2.0, 1..100)) {
        norm_sub(&mut freqs, 1.0);
        let once = freqs.clone();
        norm_sub(&mut freqs, 1.0);
        for (a, b) in once.iter().zip(&freqs) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// A response matrix built from a proper-distribution grid is itself a
    /// proper distribution, and its unconstrained answer is its total.
    #[test]
    fn response_matrix_conserves_mass(
        d in 4u32..64,
        raw_l in 2u32..16,
        weights in proptest::collection::vec(0.0f64..1.0, 4..=256),
    ) {
        let l = raw_l.min(d);
        let schema = Schema::new(vec![
            Attribute::numerical("x", d),
            Attribute::numerical("y", d),
        ]).unwrap();
        let spec = GridSpec::two_dim(&schema, 0, 1, l, l, FoKind::Olh).unwrap();
        let cells = spec.num_cells() as usize;
        prop_assume!(weights.len() >= cells);
        let mut freqs: Vec<f64> = weights[..cells].to_vec();
        let total: f64 = freqs.iter().sum();
        prop_assume!(total > 1e-9);
        freqs.iter_mut().for_each(|f| *f /= total);
        let grid = EstimatedGrid::new(spec, freqs);
        let m = ResponseMatrix::build(0, 1, d, d, &[&grid], 1e-7).unwrap();
        prop_assert!((m.total() - 1.0).abs() < 1e-4, "total {}", m.total());
        prop_assert!((m.answer(None, None) - m.total()).abs() < 1e-9);
        // Row/col marginals are consistent with the total.
        prop_assert!((m.row_marginal().iter().sum::<f64>() - m.total()).abs() < 1e-9);
    }

    /// Algorithm-4 output is always a probability vector, even for
    /// mutually *inconsistent* pairwise answers (raw noisy estimates).
    #[test]
    fn lambda_fit_is_distribution(
        lambda in 2usize..6,
        answers in proptest::collection::vec(-0.2f64..1.2, 15),
    ) {
        let mut pairs = Vec::new();
        let mut i = 0;
        for s in 0..lambda {
            for t in (s + 1)..lambda {
                pairs.push(PairAnswer { s, t, answer: answers[i % answers.len()] });
                i += 1;
            }
        }
        let z = fit_lambda(lambda, &pairs, 1e-9);
        prop_assert_eq!(z.len(), 1 << lambda);
        prop_assert!(z.iter().all(|&v| v >= -1e-12));
        prop_assert!((z.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    /// For *consistent* pairwise answers — derived from an actual joint
    /// distribution — the fit satisfies every constraint, so the all-true
    /// entry is bounded by every pairwise answer.
    #[test]
    fn lambda_fit_satisfies_consistent_constraints(
        lambda in 2usize..5,
        weights in proptest::collection::vec(0.01f64..1.0, 32),
    ) {
        let size = 1usize << lambda;
        let mut joint: Vec<f64> = weights[..size].to_vec();
        let total: f64 = joint.iter().sum();
        joint.iter_mut().for_each(|w| *w /= total);
        let mut pairs = Vec::new();
        for s in 0..lambda {
            for t in (s + 1)..lambda {
                let mask = (1usize << s) | (1usize << t);
                let answer: f64 = joint
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i & mask == mask)
                    .map(|(_, v)| v)
                    .sum();
                pairs.push(PairAnswer { s, t, answer });
            }
        }
        let z = fit_lambda(lambda, &pairs, 1e-12);
        for p in &pairs {
            let mask = (1usize << p.s) | (1usize << p.t);
            let got: f64 = z
                .iter()
                .enumerate()
                .filter(|(i, _)| i & mask == mask)
                .map(|(_, v)| v)
                .sum();
            prop_assert!((got - p.answer).abs() < 1e-4,
                "pair ({}, {}): fitted {got} vs constraint {}", p.s, p.t, p.answer);
        }
        let all = z[size - 1];
        let min_pair = pairs.iter().map(|p| p.answer).fold(f64::INFINITY, f64::min);
        prop_assert!(all <= min_pair + 1e-4, "joint {all} exceeds min pair {min_pair}");
    }

    /// Equal-mass binning always yields a valid partition with exactly the
    /// requested number of cells, and balances mass at least as well as a
    /// trivial single-bin split.
    #[test]
    fn equal_mass_is_valid_partition(
        weights in proptest::collection::vec(0.0f64..1.0, 2..120),
        raw_cells in 1u32..40,
    ) {
        let d = weights.len() as u32;
        let cells = raw_cells.min(d);
        let b = Binning::equal_mass(&weights, cells).unwrap();
        prop_assert_eq!(b.cells(), cells);
        prop_assert_eq!(b.domain(), d);
        // Edges strictly increasing and spanning the domain.
        for w in b.edges().windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        // Every value maps into a cell containing it.
        for v in 0..d {
            let c = b.cell_of(v);
            let (lo, hi) = b.cell_range(c);
            prop_assert!(lo <= v && v < hi);
        }
        // When mass exists, the heaviest bin never exceeds the mass of the
        // heaviest single value plus one ideal share (greedy guarantee).
        let total: f64 = weights.iter().sum();
        if total > 1e-9 {
            let max_w = weights.iter().cloned().fold(0.0, f64::max);
            let heaviest_bin = (0..cells)
                .map(|c| {
                    let (lo, hi) = b.cell_range(c);
                    weights[lo as usize..hi as usize].iter().sum::<f64>()
                })
                .fold(0.0, f64::max);
            prop_assert!(
                heaviest_bin <= total / cells as f64 + max_w + 1e-9,
                "heaviest bin {heaviest_bin} vs ideal {} + max value {max_w}",
                total / cells as f64
            );
        }
    }

    /// Record projection always lands inside the grid, for any record.
    #[test]
    fn projection_in_grid(
        dx in 2u32..128,
        dy in 2u32..16,
        lx in 2u32..16,
        vx in 0u32..128,
        vy in 0u32..16,
    ) {
        let lx = lx.min(dx);
        let schema = Schema::new(vec![
            Attribute::numerical("x", dx),
            Attribute::categorical("c", dy),
        ]).unwrap();
        let spec = GridSpec::two_dim(&schema, 0, 1, lx, dy, FoKind::Grr).unwrap();
        let record = [vx % dx, vy % dy];
        let cell = spec.cell_of_record(&record);
        prop_assert!(cell < spec.num_cells());
        let (cx, cy) = spec.cell_coords(cell);
        prop_assert_eq!(spec.cell_index(cx, cy), cell);
    }
}

/// Builds the C(λ,2) pairwise answers of independent predicates with
/// marginals `p` — a mutually consistent constraint set, so the IPF fixed
/// point is unique and order-independent.
fn product_pairs(p: &[f64]) -> Vec<PairAnswer> {
    let mut pairs = Vec::new();
    for s in 0..p.len() {
        for t in (s + 1)..p.len() {
            pairs.push(PairAnswer {
                s,
                t,
                answer: p[s] * p[t],
            });
        }
    }
    pairs
}

proptest! {
    /// IPF output is a probability vector: non-negative entries summing to
    /// the normalised total (the two-sided update keeps Σz = 1 exactly).
    #[test]
    fn ipf_output_is_distribution(
        marginals in proptest::collection::vec(0.05f64..0.95, 2..=4),
    ) {
        let pairs = product_pairs(&marginals);
        let z = fit_lambda(marginals.len().max(2), &pairs, 1e-9);
        prop_assert_eq!(z.len(), 1usize << marginals.len().max(2));
        for &v in &z {
            prop_assert!(v >= 0.0, "negative entry {v}");
        }
        let total: f64 = z.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "Σz = {total}");
    }

    /// Consistent constraints have a unique IPF fixed point, so the fit is
    /// invariant (to well below estimation noise) under any permutation of
    /// the pair order.
    #[test]
    fn ipf_is_pair_order_invariant(
        marginals in proptest::collection::vec(0.05f64..0.95, 3..=4),
        seed in 0u64..1_000,
    ) {
        let lambda = marginals.len();
        let mut pairs = product_pairs(&marginals);
        let forward = fit_lambda(lambda, &pairs, 1e-12);
        // A deterministic shuffle driven by the seed.
        let n = pairs.len();
        for i in (1..n).rev() {
            let j = ((seed.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(i as u32)) % (i as u64 + 1)) as usize;
            pairs.swap(i, j);
        }
        let shuffled = fit_lambda(lambda, &pairs, 1e-12);
        for (a, b) in forward.iter().zip(&shuffled) {
            prop_assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    /// The fit converges below the documented threshold well before the
    /// MAX_SWEEPS cap whenever the constraints are mutually consistent.
    #[test]
    fn ipf_converges_on_consistent_constraints(
        marginals in proptest::collection::vec(0.05f64..0.95, 2..=4),
    ) {
        let lambda = marginals.len().max(2);
        let threshold = 1e-9;
        let constraints: Vec<Constraint> =
            product_pairs(&marginals).into_iter().map(Into::into).collect();
        let fit = fit_constraints_full(lambda, &constraints, threshold);
        prop_assert!(fit.converged(threshold), "residual {} after {} sweeps", fit.residual, fit.sweeps);
        prop_assert!(fit.sweeps < MAX_SWEEPS, "hit the sweep cap");
        prop_assert_eq!(fit.z, fit_constraints(lambda, &constraints, threshold));
    }

    /// Adding consistent 1-D marginal constraints keeps the constrained
    /// masses satisfied at the fixed point (pairs *and* marginals).
    #[test]
    fn ipf_satisfies_constraints_at_fixed_point(
        marginals in proptest::collection::vec(0.10f64..0.90, 2..=4),
    ) {
        let lambda = marginals.len().max(2);
        let mut constraints: Vec<Constraint> =
            product_pairs(&marginals).into_iter().map(Into::into).collect();
        for (i, &p) in marginals.iter().enumerate() {
            constraints.push(Constraint { mask: 1 << i, answer: p });
        }
        let fit = fit_constraints_full(lambda, &constraints, 1e-12);
        for c in &constraints {
            let got: f64 = fit
                .z
                .iter()
                .enumerate()
                .filter(|(i, _)| i & c.mask == c.mask)
                .map(|(_, v)| v)
                .sum();
            prop_assert!(
                (got - c.answer).abs() < 1e-4,
                "mask {:#x}: {} vs {}",
                c.mask,
                got,
                c.answer
            );
        }
    }
}

/// A predicate on `attr` from raw draws: none, a range or a set, with
/// values reaching up to three past the domain `d`.
fn drawn_predicate(
    attr: usize,
    d: u32,
    kind: u32,
    ends: (u32, u32),
    set: &[u32],
) -> Option<Predicate> {
    let clip = |v: u32| v % (d + 3);
    let (a, b) = (clip(ends.0), clip(ends.1));
    match kind {
        0 => None,
        1 => Some(Predicate::between(attr, a.min(b), a.max(b))),
        _ => Some(Predicate::in_set(
            attr,
            set.iter().map(|&v| clip(v)).collect(),
        )),
    }
}

/// A grid over `spec` whose cells carry `weights` (repeated as needed,
/// plus 1e-3 so no cell is empty), normalised to sum to 1.
fn weighted_grid(spec: GridSpec, weights: &[f64]) -> EstimatedGrid {
    let cells = spec.num_cells() as usize;
    let mut freqs: Vec<f64> = weights
        .iter()
        .cycle()
        .take(cells)
        .map(|w| w + 1e-3)
        .collect();
    let total: f64 = freqs.iter().sum();
    freqs.iter_mut().for_each(|f| *f /= total);
    EstimatedGrid::new(spec, freqs)
}

proptest! {
    /// Answers read from the prefix-sum table equal the dense sum of the
    /// selected entries, for matrices fitted against a 2-D grid plus 1-D
    /// grids of any cell count, nesting or not, and any mix of range, set
    /// and open predicates; `get`, the marginals and `total` agree with
    /// each other.
    #[test]
    fn response_answers_match_dense_sums(
        (dx, dy) in (2u32..32, 2u32..32),
        (lx, ly, l1x, l1y) in (1u32..9, 1u32..9, 1u32..32, 1u32..32),
        weights in proptest::collection::vec(0.0f64..1.0, 2..64),
        (kind_i, kind_j) in (0u32..3, 0u32..3),
        (ends_i, ends_j) in ((0u32..64, 0u32..64), (0u32..64, 0u32..64)),
        (set_i, set_j) in (
            proptest::collection::vec(0u32..64, 1..8),
            proptest::collection::vec(0u32..64, 1..8),
        ),
    ) {
        let schema = Schema::new(vec![
            Attribute::numerical("x", dx),
            Attribute::numerical("y", dy),
        ]).unwrap();
        let g2 = weighted_grid(
            GridSpec::two_dim(&schema, 0, 1, lx.min(dx), ly.min(dy), FoKind::Olh).unwrap(),
            &weights,
        );
        let gx = weighted_grid(GridSpec::one_dim(&schema, 0, l1x.min(dx), FoKind::Olh).unwrap(), &weights[1..]);
        let gy = weighted_grid(GridSpec::one_dim(&schema, 1, l1y.min(dy), FoKind::Olh).unwrap(), &weights);
        let m = ResponseMatrix::build(0, 1, dx, dy, &[&g2, &gx, &gy], 1e-9).unwrap();

        let pi = drawn_predicate(0, dx, kind_i, ends_i, &set_i);
        let pj = drawn_predicate(1, dy, kind_j, ends_j, &set_j);
        let selects = |p: &Option<Predicate>, v: u32| p.as_ref().is_none_or(|p| p.target.matches(v));
        let mut dense = 0.0;
        for x in (0..dx).filter(|&x| selects(&pi, x)) {
            for y in (0..dy).filter(|&y| selects(&pj, y)) {
                dense += m.get(x, y);
            }
        }
        let got = m.answer(pi.as_ref(), pj.as_ref());
        prop_assert!((got - dense).abs() <= 1e-12, "answer {got} vs dense {dense}");

        let rows = m.row_marginal();
        let cols = m.col_marginal();
        for (x, r) in rows.iter().enumerate() {
            let s: f64 = (0..dy).map(|y| m.get(x as u32, y)).sum();
            prop_assert!((r - s).abs() <= 1e-12, "row {x}: {r} vs {s}");
        }
        for (y, c) in cols.iter().enumerate() {
            let s: f64 = (0..dx).map(|x| m.get(x, y as u32)).sum();
            prop_assert!((c - s).abs() <= 1e-12, "col {y}: {c} vs {s}");
        }
        let total = m.total();
        prop_assert!((rows.iter().sum::<f64>() - total).abs() <= 1e-12);
        prop_assert!((cols.iter().sum::<f64>() - total).abs() <= 1e-12);
        prop_assert!((m.answer(None, None) - total).abs() <= 1e-12);
    }
}
