//! Response matrices via iterative weighted update (Algorithm 3, §5.5).
//!
//! For every attribute pair `(a_i, a_j)` the aggregator materialises a
//! `d_i × d_j` matrix `M` whose entry `[x, y]` estimates the joint frequency
//! of the 2-D value `(x, y)`. `M` is fitted against every *related grid*:
//! the pair's 2-D grid and (in OHG) the finer 1-D grids of its numerical
//! attributes. Each grid cell constrains the total mass of the rectangle of
//! 2-D values it covers; the weighted-update sweep rescales each rectangle
//! to match its cell's estimate, iterating until a sweep moves the matrix
//! by less than a threshold (`< 1/n` per the paper).
//!
//! The sweep is a branch-free kernel (DESIGN.md §8 item 9). Each rectangle is
//! summed over four independent accumulators, as one contiguous slice when
//! it spans every column; narrower strips carry the accumulator index from
//! row to row, so even one-column strips split their add chain. Rescaling
//! is a pure multiply. The kernel differs from a per-entry loop only in the
//! order of additions; a test keeps that loop as its oracle.
//!
//! The stop rule reads the L1 movement `‖M_k − M_{k−1}‖₁` between the
//! matrices at the ends of consecutive sweeps. It needs no copy of the
//! matrix: the row and column edges of all rectangles cut it into atoms
//! whose entries stay bit-identical, so one stored value per atom (1 024 at
//! the paper's scale, against 65 536 entries) measures the movement.
//! FELIP's 1-D and 2-D targets conflict, so the change *within* a sweep
//! never settles; the end-of-sweep matrix does. A num × cat fit whose 1-D
//! bins nest in its 2-D bins is at its fixed point after one sweep and
//! stops at the second.
//!
//! When both attributes are categorical the pair's grid is already at value
//! granularity and *is* the response matrix.
//!
//! Once fitted, the matrix is stored as its inclusive 2-D prefix sums, in
//! the same buffer. A query sums one rectangle per pair of selected value
//! runs with four lookups each, so a range × range answer costs O(1) instead
//! of O(d_i · d_j).

use felip_common::{Error, Predicate, PredicateTarget, Result};

use crate::estimate::EstimatedGrid;
use crate::spec::GridId;

/// Hard cap on weighted-update sweeps. At the paper's scale (§6.2) a
/// num × cat fit stops after 2 sweeps and a num × num fit's movement decays
/// geometrically to 1/n in roughly 100–170; the cap bounds inputs that
/// oscillate. `grid.response.converged` counts the builds that stopped
/// below the threshold.
const MAX_SWEEPS: usize = 200;

/// A dense `d_i × d_j` joint-frequency estimate for one attribute pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseMatrix {
    attr_i: usize,
    attr_j: usize,
    di: u32,
    dj: u32,
    /// Row-major inclusive 2-D prefix sums of the fitted matrix:
    /// `prefix[x * dj + y]` is the mass of rows `≤ x` and columns `≤ y`.
    prefix: Vec<f64>,
}

impl ResponseMatrix {
    /// Builds the response matrix for pair `(attr_i, attr_j)` from its
    /// related grids `Γ` (Algorithm 3).
    ///
    /// `related` must contain the 2-D grid `G(i, j)` and may contain 1-D
    /// grids `G(i)` and/or `G(j)`; every grid must cover only these two
    /// attributes. `threshold` is the convergence bound on the L1 movement
    /// of the matrix over one sweep (use `1/n`).
    ///
    /// Grids carrying non-finite frequencies (NaN/Inf from a degenerate
    /// estimation) are rejected with [`Error::NumericalInstability`]: one
    /// NaN constraint would silently poison the whole fit. So are strictly
    /// negative frequencies: a negative target would flip the sign of its
    /// whole rectangle. Post-processing ends with norm-sub, so estimated
    /// grids never carry one.
    ///
    /// # Panics
    /// Panics when `related` is empty or contains a grid over a foreign
    /// attribute.
    pub fn build(
        attr_i: usize,
        attr_j: usize,
        di: u32,
        dj: u32,
        related: &[&EstimatedGrid],
        threshold: f64,
    ) -> Result<Self> {
        let _span = felip_obs::span!("grid.response.build");
        assert!(
            !related.is_empty(),
            "response matrix needs at least one related grid"
        );
        for g in related {
            for a in g.spec().id().attrs() {
                assert!(
                    a == attr_i || a == attr_j,
                    "related grid {} covers foreign attribute {a}",
                    g.spec().id()
                );
            }
            // `-0.0` passes: it is a zero, not a negative mass.
            if let Some(cell) = g.freqs().iter().position(|f| !f.is_finite() || *f < 0.0) {
                return Err(Error::NumericalInstability(format!(
                    "grid {} cell {cell} frequency is {}",
                    g.spec().id(),
                    g.freqs()[cell]
                )));
            }
        }
        let (din, djn) = (di as usize, dj as usize);
        let mut values = vec![1.0 / (din as f64 * djn as f64); din * djn];
        let constraints = constraints(attr_i, (din, djn), related);
        let (sweeps, converged) = fit(&mut values, djn, &constraints, threshold);
        felip_obs::hist!("grid.response.sweeps", sweeps as u64, "sweeps");
        if converged {
            felip_obs::counter!("grid.response.converged", 1, "builds");
        }

        into_prefix_sums(&mut values, djn);
        Ok(ResponseMatrix {
            attr_i,
            attr_j,
            di,
            dj,
            prefix: values,
        })
    }

    /// Wraps a categorical × categorical grid, which is already at value
    /// granularity (§5.5: "the estimated grid G(i,j) is already the response
    /// matrix").
    pub fn from_cat_cat_grid(grid: &EstimatedGrid) -> Self {
        let spec = grid.spec();
        let GridId::Two(i, j) = spec.id() else {
            panic!("from_cat_cat_grid needs a 2-D grid");
        };
        let (di, dj) = (spec.axes()[0].cells(), spec.axes()[1].cells());
        let mut prefix = grid.freqs().to_vec();
        into_prefix_sums(&mut prefix, dj as usize);
        ResponseMatrix {
            attr_i: i,
            attr_j: j,
            di,
            dj,
            prefix,
        }
    }

    /// The attribute pair `(i, j)` this matrix describes.
    pub fn attrs(&self) -> (usize, usize) {
        (self.attr_i, self.attr_j)
    }

    /// Matrix dimensions `(d_i, d_j)`.
    pub fn dims(&self) -> (u32, u32) {
        (self.di, self.dj)
    }

    /// Estimated joint frequency of value pair `(x, y)`.
    pub fn get(&self, x: u32, y: u32) -> f64 {
        let (x, y) = (x as usize, y as usize);
        self.rect((x, x + 1), (y, y + 1))
    }

    /// Total mass (≈ 1 when fitted against proper distributions).
    pub fn total(&self) -> f64 {
        self.below(self.di as usize, self.dj as usize)
    }

    /// Answers a 2-D query `(pred_i ∧ pred_j)` exactly from the matrix —
    /// no uniformity assumption needed at value granularity. Either
    /// predicate may be `None` (unconstrained axis). Values past an axis's
    /// domain select nothing.
    pub fn answer(&self, pred_i: Option<&Predicate>, pred_j: Option<&Predicate>) -> f64 {
        let rows = runs(pred_i, self.di);
        let cols = runs(pred_j, self.dj);
        let mut total = 0.0;
        for &r in &rows {
            for &c in &cols {
                total += self.rect(r, c);
            }
        }
        total
    }

    /// Marginal over rows (one entry per value of `attr_i`).
    pub fn row_marginal(&self) -> Vec<f64> {
        let dj = self.dj as usize;
        (0..self.di as usize)
            .map(|x| self.rect((x, x + 1), (0, dj)))
            .collect()
    }

    /// Marginal over columns (one entry per value of `attr_j`).
    pub fn col_marginal(&self) -> Vec<f64> {
        let di = self.di as usize;
        (0..self.dj as usize)
            .map(|y| self.rect((0, di), (y, y + 1)))
            .collect()
    }

    /// Mass of rows `< x` and columns `< y`.
    fn below(&self, x: usize, y: usize) -> f64 {
        if x == 0 || y == 0 {
            0.0
        } else {
            self.prefix[(x - 1) * self.dj as usize + (y - 1)]
        }
    }

    /// Mass of the half-open rectangle `rows × cols`.
    fn rect(&self, (r0, r1): (usize, usize), (c0, c1): (usize, usize)) -> f64 {
        self.below(r1, c1) - self.below(r0, c1) - self.below(r1, c0) + self.below(r0, c0)
    }
}

/// One grid cell's constraint on the matrix: the half-open value
/// rectangle `rows × cols` it covers and the mass it should carry (the
/// cell's estimated frequency).
struct Constraint {
    rows: (usize, usize),
    cols: (usize, usize),
    target: f64,
}

impl Constraint {
    /// The rectangle as `(start, width, strips)` in a row-major buffer `dj`
    /// wide: `strips` runs of `width` contiguous entries, the first at
    /// `start` and each next one `dj` further. A rectangle spanning every
    /// column is one run.
    fn strips(&self, dj: usize) -> (usize, usize, usize) {
        let ((r0, r1), (c0, c1)) = (self.rows, self.cols);
        if (c0, c1) == (0, dj) {
            (r0 * dj, (r1 - r0) * dj, 1)
        } else {
            (r0 * dj + c0, c1 - c0, r1 - r0)
        }
    }
}

/// Every cell of every related grid as a constraint on the `(d_i, d_j)`
/// matrix of pair `(attr_i, ·)`, in grid order then cell order.
fn constraints(
    attr_i: usize,
    (di, dj): (usize, usize),
    related: &[&EstimatedGrid],
) -> Vec<Constraint> {
    let mut out = Vec::new();
    for g in related {
        let spec = g.spec();
        let range = |axis: usize, cell: u32| {
            let (lo, hi) = spec.axes()[axis].binning.cell_range(cell);
            (lo as usize, hi as usize)
        };
        for cell in 0..spec.num_cells() {
            let (ci, cj) = spec.cell_coords(cell);
            let (rows, cols) = match spec.id() {
                GridId::One(a) if a == attr_i => (range(0, ci), (0, dj)),
                GridId::One(_) => ((0, di), range(0, ci)),
                GridId::Two(a, _) => {
                    let (rx, ry) = (range(0, ci), range(1, cj.expect("2-D cell")));
                    // Grid axes are ordered (min, max) attr; the matrix is
                    // (attr_i rows, attr_j cols).
                    if a == attr_i {
                        (rx, ry)
                    } else {
                        (ry, rx)
                    }
                }
            };
            out.push(Constraint {
                rows,
                cols,
                target: g.freq(cell),
            });
        }
    }
    out
}

/// Independent accumulators in a rectangle sum.
const LANES: usize = 4;

/// The weighted-update sweeps of Algorithm 3 over the row-major matrix
/// `values` (`dj` wide), until a sweep moves the matrix
/// by less than `threshold` in L1 or [`MAX_SWEEPS`] have run. The first
/// sweep is measured against the start. Returns the sweep count and
/// whether the movement fell below `threshold`.
fn fit(values: &mut [f64], dj: usize, constraints: &[Constraint], threshold: f64) -> (usize, bool) {
    let mut atoms = atoms(values, dj, constraints);
    for n in 1..=MAX_SWEEPS {
        sweep(values, dj, constraints);
        if movement(values, &mut atoms) < threshold {
            return (n, true);
        }
    }
    (MAX_SWEEPS, false)
}

/// One sweep: each constraint in turn rescales its rectangle to its target.
fn sweep(values: &mut [f64], dj: usize, constraints: &[Constraint]) {
    for c in constraints {
        let (start, width, strips) = c.strips(dj);
        let s = rect_sum(values, start, width, strips, dj);
        if s <= 0.0 {
            continue;
        }
        let scale = c.target / s;
        if (scale - 1.0).abs() < 1e-15 {
            continue;
        }
        for k in 0..strips {
            for v in &mut values[start + k * dj..][..width] {
                *v *= scale;
            }
        }
    }
}

/// One cell of the lattice that the row and column edges of every
/// constraint rectangle cut the matrix into. No rectangle cuts an atom, so
/// its entries start equal and take the same multiplications in the same
/// order: they stay bit-identical, and its first entry stands for all.
struct Atom {
    /// Row-major index of the atom's first entry.
    first: usize,
    /// Number of entries.
    area: f64,
    /// The entries' value after the previous sweep.
    prev: f64,
}

/// The atoms of the `dj`-wide matrix `values` under `constraints`, each
/// holding its current value.
fn atoms(values: &[f64], dj: usize, constraints: &[Constraint]) -> Vec<Atom> {
    let rows = cuts(constraints, values.len() / dj.max(1), |c| c.rows);
    let cols = cuts(constraints, dj, |c| c.cols);
    let mut out = Vec::with_capacity(rows.len() * cols.len());
    for r in rows.windows(2) {
        for c in cols.windows(2) {
            let first = r[0] * dj + c[0];
            out.push(Atom {
                first,
                area: ((r[1] - r[0]) * (c[1] - c[0])) as f64,
                prev: values[first],
            });
        }
    }
    out
}

/// The ascending edges that the constraints' `edge` ranges draw on an axis
/// of `d` values, both ends of the axis included.
fn cuts(
    constraints: &[Constraint],
    d: usize,
    edge: impl Fn(&Constraint) -> (usize, usize),
) -> Vec<usize> {
    let mut out = vec![0, d];
    for c in constraints {
        let (lo, hi) = edge(c);
        out.extend([lo, hi]);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// The L1 movement `‖M − M_prev‖₁` of `values` since the atoms last saw
/// it, read off one entry per atom; the atoms then keep `values`.
fn movement(values: &[f64], atoms: &mut [Atom]) -> f64 {
    let mut total = 0.0;
    for a in atoms {
        let v = values[a.first];
        total += a.area * (v - a.prev).abs();
        a.prev = v;
    }
    total
}

/// Sum of `strips` runs of `width` entries of `values`, the first at
/// `start` and each next one `dj` further, over [`LANES`] accumulators.
/// Whole chunks of a run go lane by lane; the tail of a run continues on
/// the lane after the previous tail, so runs narrower than [`LANES`] (the
/// one-column strips of a num × cat grid) still split their add chain.
fn rect_sum(values: &[f64], start: usize, width: usize, strips: usize, dj: usize) -> f64 {
    let mut acc = [0.0; LANES];
    let mut lane = 0;
    for k in 0..strips {
        let mut chunks = values[start + k * dj..][..width].chunks_exact(LANES);
        for chunk in &mut chunks {
            for l in 0..LANES {
                acc[l] += chunk[l];
            }
        }
        for v in chunks.remainder() {
            acc[lane] += v;
            lane = (lane + 1) % LANES;
        }
    }
    acc.iter().sum()
}

/// Overwrites a row-major buffer of rows `cols` wide with its inclusive
/// 2-D prefix sums.
fn into_prefix_sums(values: &mut [f64], cols: usize) {
    for row in values.chunks_exact_mut(cols) {
        let mut run = 0.0;
        for v in row {
            run += *v;
            *v = run;
        }
    }
    for x in cols..values.len() {
        values[x] += values[x - cols];
    }
}

/// The values `pred` selects on an axis of `d` values, as ascending maximal
/// runs `[lo, hi)` of consecutive values. Range ends and set values past the
/// domain are dropped.
fn runs(pred: Option<&Predicate>, d: u32) -> Vec<(usize, usize)> {
    let d = d as usize;
    match pred.map(|p| &p.target) {
        None => vec![(0, d)],
        Some(PredicateTarget::Range { lo, hi }) => {
            let (lo, hi) = (*lo as usize, (*hi as usize + 1).min(d));
            if lo < hi {
                vec![(lo, hi)]
            } else {
                Vec::new()
            }
        }
        Some(PredicateTarget::Set(vals)) => {
            let mut vals: Vec<usize> = vals
                .iter()
                .map(|&v| v as usize)
                .filter(|&v| v < d)
                .collect();
            vals.sort_unstable();
            vals.dedup();
            let mut out: Vec<(usize, usize)> = Vec::new();
            for v in vals {
                match out.last_mut() {
                    Some(run) if run.1 == v => run.1 = v + 1,
                    _ => out.push((v, v + 1)),
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GridSpec;
    use felip_common::{AttrKind, Attribute, Schema};
    use felip_fo::FoKind;
    use proptest::prelude::any;

    /// The per-entry loop the kernel replaced, kept as its oracle: one
    /// serial add chain per rectangle, the same skip rules, and the
    /// movement summed entry by entry against a full copy of the matrix.
    fn fit_scalar(
        values: &mut [f64],
        dj: usize,
        constraints: &[Constraint],
        threshold: f64,
    ) -> (usize, bool) {
        let mut prev = values.to_vec();
        for sweep in 1..=MAX_SWEEPS {
            for c in constraints {
                let mut s = 0.0;
                for x in c.rows.0..c.rows.1 {
                    for v in &values[x * dj..][c.cols.0..c.cols.1] {
                        s += v;
                    }
                }
                if s <= 0.0 {
                    continue;
                }
                let scale = c.target / s;
                if (scale - 1.0).abs() < 1e-15 {
                    continue;
                }
                for x in c.rows.0..c.rows.1 {
                    for v in &mut values[x * dj..][c.cols.0..c.cols.1] {
                        *v *= scale;
                    }
                }
            }
            let movement: f64 = values.iter().zip(&prev).map(|(v, p)| (v - p).abs()).sum();
            if movement < threshold {
                return (sweep, true);
            }
            prev.copy_from_slice(values);
        }
        (MAX_SWEEPS, false)
    }

    /// One drawn fit: the matrix shape `(d_i, d_j)` and its constraints.
    /// Matrices are 1..=40 by 1..=40 values, most not a multiple of `LANES`
    /// wide, fitted against a 2-D grid alone or with 1-D grids on either
    /// axis: num × num, num × cat (one-column strips) and cat × num, with
    /// either attribute as the matrix rows; 1-D grids on the row attribute
    /// and one-cell 2-D axes give full-width rectangles. Targets are one
    /// random joint's rectangle masses (consistent: the fit stops early) or
    /// drawn per grid (conflicting), with or without zero cells.
    fn drawn_fit(
        (dx, dy): (u32, u32),
        (kind, with_1d, swap): (u32, u32, bool),
        (lx, ly, l1x, l1y): (u32, u32, u32, u32),
        (consistent, zeros): (bool, bool),
        mut w: Vec<f64>,
    ) -> ((usize, usize), Vec<Constraint>) {
        // kind 0: num × num, 1: num × cat, 2: cat × num.
        let attr = |name, d, categorical| {
            if categorical {
                Attribute::categorical(name, d)
            } else {
                Attribute::numerical(name, d)
            }
        };
        let s = Schema::new(vec![attr("x", dx, kind == 2), attr("y", dy, kind == 1)]).unwrap();
        let cells = |a: usize, l: u32| {
            let d = s.attr(a).domain;
            if s.attr(a).kind == AttrKind::Categorical {
                d
            } else {
                l.min(d)
            }
        };
        let mut specs =
            vec![GridSpec::two_dim(&s, 0, 1, cells(0, lx), cells(1, ly), FoKind::Olh).unwrap()];
        if with_1d & 1 != 0 {
            specs.push(GridSpec::one_dim(&s, 0, cells(0, l1x), FoKind::Olh).unwrap());
        }
        if with_1d & 2 != 0 {
            specs.push(GridSpec::one_dim(&s, 1, cells(1, l1y), FoKind::Olh).unwrap());
        }
        let (attr_i, di, dj) = if swap { (1, dy, dx) } else { (0, dx, dy) };
        let (di, dj) = (di as usize, dj as usize);
        if zeros {
            w.iter_mut().filter(|v| **v < 0.3).for_each(|v| *v = 0.0);
        }
        // Placeholder frequencies: only the rectangles are read below.
        let grids: Vec<EstimatedGrid> = specs
            .into_iter()
            .map(|spec| {
                let n = spec.num_cells() as usize;
                EstimatedGrid::new(spec, vec![1.0 / n as f64; n])
            })
            .collect();
        let related: Vec<&EstimatedGrid> = grids.iter().collect();
        let mut cs = constraints(attr_i, (di, dj), &related);
        let rect_mass = |c: &Constraint, m: &[f64]| -> f64 {
            (c.rows.0..c.rows.1)
                .flat_map(|x| (c.cols.0..c.cols.1).map(move |y| m[x * dj + y]))
                .sum()
        };
        let mut first = 0;
        for g in &grids {
            let n = g.spec().num_cells() as usize;
            let grid_cs = &mut cs[first..first + n];
            if consistent {
                let joint = &w[..di * dj];
                for c in grid_cs.iter_mut() {
                    c.target = rect_mass(c, joint);
                }
            } else {
                for (k, c) in grid_cs.iter_mut().enumerate() {
                    c.target = w[(first * 7 + k * 13) % w.len()];
                }
            }
            let total: f64 = grid_cs.iter().map(|c| c.target).sum();
            for c in grid_cs.iter_mut() {
                c.target = if total > 0.0 {
                    c.target / total
                } else {
                    1.0 / n as f64
                };
            }
            first += n;
        }
        ((di, dj), cs)
    }

    proptest::proptest! {
        /// The lane-split kernel with its atom-sampled stop agrees with the
        /// scalar oracle entry by entry and on the sweep count, over the
        /// fits of [`drawn_fit`].
        #[test]
        fn kernel_matches_scalar_oracle(
            dims in (1u32..=40, 1u32..=40),
            shape in (0u32..3, 0u32..4, any::<bool>()),
            cells in (1u32..=40, 1u32..=40, 1u32..=40, 1u32..=40),
            targets in (any::<bool>(), any::<bool>()),
            threshold in 0usize..3,
            weights in proptest::collection::vec(0.0f64..1.0, 1600),
        ) {
            let threshold = [1e-6, 1e-9, 1e-12][threshold];
            let ((di, dj), cs) = drawn_fit(dims, shape, cells, targets, weights);
            let start = vec![1.0 / (di * dj) as f64; di * dj];
            let (mut got, mut want) = (start.clone(), start);
            let (got_sweeps, _) = fit(&mut got, dj, &cs, threshold);
            let (want_sweeps, _) = fit_scalar(&mut want, dj, &cs, threshold);
            let diff = got
                .iter()
                .zip(&want)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            proptest::prop_assert!(
                got_sweeps.abs_diff(want_sweeps) <= 1,
                "{got_sweeps} vs {want_sweeps} sweeps"
            );
            // One sweep more or less moves the matrix by that sweep's
            // movement, which is below the threshold.
            let tolerance = if got_sweeps == want_sweeps { 1e-12 } else { threshold };
            proptest::prop_assert!(
                diff <= tolerance,
                "max |Δ| = {diff:e} after {got_sweeps} vs {want_sweeps} sweeps"
            );
        }

        /// After every sweep of a fit, all entries of an atom are
        /// bit-identical, and the movement read off one entry per atom
        /// equals the full-matrix L1 movement within 1e-12 relative.
        #[test]
        fn atoms_stay_bit_identical_and_measure_the_movement(
            dims in (1u32..=40, 1u32..=40),
            shape in (0u32..3, 0u32..4, any::<bool>()),
            cells in (1u32..=40, 1u32..=40, 1u32..=40, 1u32..=40),
            targets in (any::<bool>(), any::<bool>()),
            weights in proptest::collection::vec(0.0f64..1.0, 1600),
        ) {
            let ((di, dj), cs) = drawn_fit(dims, shape, cells, targets, weights);
            let mut values = vec![1.0 / (di * dj) as f64; di * dj];
            let mut prev = values.clone();
            let mut atoms = atoms(&values, dj, &cs);
            let (rows, cols) = (cuts(&cs, di, |c| c.rows), cuts(&cs, dj, |c| c.cols));
            proptest::prop_assert_eq!(atoms.len(), (rows.len() - 1) * (cols.len() - 1));
            for n in 1..=MAX_SWEEPS {
                sweep(&mut values, dj, &cs);
                for r in rows.windows(2) {
                    for c in cols.windows(2) {
                        let v = values[r[0] * dj + c[0]];
                        for x in r[0]..r[1] {
                            for e in &values[x * dj..][c[0]..c[1]] {
                                proptest::prop_assert!(
                                    e.to_bits() == v.to_bits(),
                                    "sweep {n}: atom at ({}, {}) holds {e:e} and {v:e}",
                                    r[0],
                                    c[0]
                                );
                            }
                        }
                    }
                }
                let full: f64 = values.iter().zip(&prev).map(|(v, p)| (v - p).abs()).sum();
                let sampled = movement(&values, &mut atoms);
                proptest::prop_assert!(
                    (sampled - full).abs() <= 1e-12 * full,
                    "sweep {n}: atoms read {sampled:e}, the full matrix {full:e}"
                );
                if full < 1e-12 {
                    break;
                }
                prev.copy_from_slice(&values);
            }
        }
    }

    /// A num × cat fit whose 1-D bins nest in its 2-D row bins, with 1-D
    /// and 2-D targets that disagree on every row band: the end-of-sweep
    /// matrix is a fixed point after one sweep, so the fit stops at the
    /// second, with the matrix a 200-sweep fit ends on.
    #[test]
    fn nested_num_cat_fit_stops_at_its_fixed_point() {
        let s = schema();
        // 2-D rows: bands 0..4 and 4..8 carrying 0.6 and 0.4.
        let g2 = EstimatedGrid::new(
            GridSpec::two_dim(&s, 0, 2, 2, 3, FoKind::Olh).unwrap(),
            vec![0.1, 0.2, 0.3, 0.05, 0.15, 0.2],
        );
        // 1-D bins 0..2, 2..4, 4..6, 6..8: the bands carry 0.3 and 0.7.
        let g1 = EstimatedGrid::new(
            GridSpec::one_dim(&s, 0, 4, FoKind::Olh).unwrap(),
            vec![0.1, 0.2, 0.3, 0.4],
        );
        let cs = constraints(0, (8, 3), &[&g2, &g1]);
        let start = vec![1.0 / 24.0; 24];
        let (mut early, mut capped) = (start.clone(), start);
        assert_eq!(fit(&mut early, 3, &cs, 1e-9), (2, true));
        // No movement is below 0: the fit runs to the cap.
        assert_eq!(fit(&mut capped, 3, &cs, 0.0), (MAX_SWEEPS, false));
        for (a, b) in early.iter().zip(&capped) {
            assert!((a - b).abs() <= 1e-12, "{a} vs {b}");
        }
        // The 1-D grid is fitted last, so its targets hold: the first band
        // carries 0.3, not the 2-D grid's 0.6.
        let band: f64 = early[..4 * 3].iter().sum();
        assert!((band - 0.3).abs() < 1e-12, "band 0..4 carries {band}");
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::numerical("x", 8),
            Attribute::numerical("y", 8),
            Attribute::categorical("c", 3),
        ])
        .unwrap()
    }

    /// With only a 2-D grid as constraint, the matrix spreads each cell's
    /// mass uniformly over its rectangle.
    #[test]
    fn single_grid_uniform_spread() {
        let s = schema();
        let spec = GridSpec::two_dim(&s, 0, 1, 2, 2, FoKind::Olh).unwrap();
        let g = EstimatedGrid::new(spec, vec![0.4, 0.1, 0.2, 0.3]);
        let m = ResponseMatrix::build(0, 1, 8, 8, &[&g], 1e-9).unwrap();
        // Cell (0,0) covers rows 0..4, cols 0..4 → each of 16 values = 0.4/16.
        assert!((m.get(0, 0) - 0.4 / 16.0).abs() < 1e-9);
        assert!((m.get(5, 2) - 0.2 / 16.0).abs() < 1e-9);
        assert!((m.total() - 1.0).abs() < 1e-9);
    }

    /// Adding 1-D grids refines the within-cell distribution (the OHG
    /// mechanism): the row marginal must match the 1-D grid.
    #[test]
    fn one_dim_grids_refine_marginals() {
        let s = schema();
        let g2 = EstimatedGrid::new(
            GridSpec::two_dim(&s, 0, 1, 2, 2, FoKind::Olh).unwrap(),
            vec![0.25, 0.25, 0.25, 0.25],
        );
        // Fine 1-D grid on x: heavily skewed inside the first half.
        let g1 = EstimatedGrid::new(
            GridSpec::one_dim(&s, 0, 8, FoKind::Olh).unwrap(),
            vec![0.4, 0.1, 0.0, 0.0, 0.125, 0.125, 0.125, 0.125],
        );
        let m = ResponseMatrix::build(0, 1, 8, 8, &[&g2, &g1], 1e-12).unwrap();
        let rows = m.row_marginal();
        assert!((rows[0] - 0.4).abs() < 1e-6, "row 0 = {}", rows[0]);
        assert!((rows[2] - 0.0).abs() < 1e-6);
        // And the 2-D constraints still hold.
        let q = m.answer(
            Some(&Predicate::between(0, 0, 3)),
            Some(&Predicate::between(1, 0, 3)),
        );
        assert!((q - 0.25).abs() < 1e-6, "quadrant = {q}");
    }

    #[test]
    fn cat_cat_grid_is_matrix() {
        let s = schema();
        let sc = Schema::new(vec![
            Attribute::categorical("a", 2),
            Attribute::categorical("b", 3),
        ])
        .unwrap();
        let _ = s;
        let g = EstimatedGrid::new(
            GridSpec::two_dim(&sc, 0, 1, 2, 3, FoKind::Grr).unwrap(),
            vec![0.1, 0.2, 0.3, 0.15, 0.05, 0.2],
        );
        let m = ResponseMatrix::from_cat_cat_grid(&g);
        assert_eq!(m.dims(), (2, 3));
        assert!((m.get(1, 2) - 0.2).abs() < 1e-12);
        assert!((m.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn answer_with_set_predicate() {
        let s = schema();
        let g = EstimatedGrid::new(
            GridSpec::two_dim(&s, 0, 2, 4, 3, FoKind::Olh).unwrap(),
            vec![
                0.05,
                0.05,
                0.0, //
                0.1,
                0.0,
                0.1, //
                0.2,
                0.1,
                0.0, //
                0.953 - 0.6,
                0.03,
                0.017,
            ],
        );
        let m = ResponseMatrix::build(0, 2, 8, 3, &[&g], 1e-10).unwrap();
        // Categorical attr 2, set {0, 2}; numerical rows 0..8 full.
        let a = m.answer(None, Some(&Predicate::in_set(2, vec![0, 2])));
        let expect: f64 = 0.05 + 0.0 + 0.1 + 0.1 + 0.2 + 0.0 + (0.953 - 0.6) + 0.017;
        assert!((a - expect).abs() < 1e-6, "{a} vs {expect}");
    }

    /// Predicates reaching past the domain select nothing beyond it: range
    /// ends are clipped and set values ≥ d are dropped, on either axis.
    #[test]
    fn out_of_domain_predicates_are_clipped() {
        let s = schema();
        let g = EstimatedGrid::new(
            GridSpec::two_dim(&s, 0, 2, 4, 3, FoKind::Olh).unwrap(),
            vec![
                0.05, 0.05, 0.1, 0.1, 0.0, 0.1, 0.2, 0.1, 0.0, 0.15, 0.1, 0.05,
            ],
        );
        let m = ResponseMatrix::build(0, 2, 8, 3, &[&g], 1e-10).unwrap();
        let col = |vals: Vec<u32>| m.answer(None, Some(&Predicate::in_set(2, vals)));
        assert_eq!(col(vec![1, 3, 99]), col(vec![1]));
        assert_eq!(col(vec![3, u32::MAX]), 0.0);
        let row = |p: Predicate| m.answer(Some(&p), None);
        assert_eq!(
            row(Predicate::between(0, 6, 40)),
            row(Predicate::between(0, 6, 7))
        );
        assert_eq!(
            row(Predicate::between(0, 5, u32::MAX)),
            row(Predicate::between(0, 5, 7))
        );
        assert_eq!(row(Predicate::between(0, 8, 40)), 0.0);
        assert_eq!(
            row(Predicate::in_set(0, vec![0, 7, 8, 1000])),
            row(Predicate::in_set(0, vec![0, 7]))
        );
    }

    #[test]
    fn unconstrained_answer_is_total() {
        let s = schema();
        let g = EstimatedGrid::new(
            GridSpec::two_dim(&s, 0, 1, 2, 2, FoKind::Olh).unwrap(),
            vec![0.25; 4],
        );
        let m = ResponseMatrix::build(0, 1, 8, 8, &[&g], 1e-9).unwrap();
        assert!((m.answer(None, None) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn marginals_sum_to_total() {
        let s = schema();
        let g = EstimatedGrid::new(
            GridSpec::two_dim(&s, 0, 1, 4, 2, FoKind::Olh).unwrap(),
            vec![0.1, 0.05, 0.2, 0.05, 0.15, 0.1, 0.25, 0.1],
        );
        let m = ResponseMatrix::build(0, 1, 8, 8, &[&g], 1e-10).unwrap();
        let r: f64 = m.row_marginal().iter().sum();
        let c: f64 = m.col_marginal().iter().sum();
        assert!((r - m.total()).abs() < 1e-9);
        assert!((c - m.total()).abs() < 1e-9);
    }

    #[test]
    fn converges_with_conflicting_constraints() {
        // 1-D and 2-D grids that disagree: IPF must still terminate and
        // produce a sensible compromise (total ≈ 1).
        let s = schema();
        let g2 = EstimatedGrid::new(
            GridSpec::two_dim(&s, 0, 1, 2, 2, FoKind::Olh).unwrap(),
            vec![0.5, 0.0, 0.0, 0.5],
        );
        let g1 = EstimatedGrid::new(
            GridSpec::one_dim(&s, 0, 2, FoKind::Olh).unwrap(),
            vec![0.3, 0.7],
        );
        let m = ResponseMatrix::build(0, 1, 8, 8, &[&g2, &g1], 1e-9).unwrap();
        assert!(m.total() > 0.9 && m.total() < 1.1, "total {}", m.total());
    }

    #[test]
    #[should_panic(expected = "foreign attribute")]
    fn rejects_foreign_grid() {
        let s = schema();
        let g = EstimatedGrid::new(
            GridSpec::one_dim(&s, 2, 3, FoKind::Grr).unwrap(),
            vec![0.3, 0.3, 0.4],
        );
        let _ = ResponseMatrix::build(0, 1, 8, 8, &[&g], 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_empty_related_set() {
        ResponseMatrix::build(0, 1, 8, 8, &[], 1e-9).unwrap();
    }

    /// Non-finite and strictly negative frequencies are rejected, in the
    /// pair's 2-D grid and in a related 1-D grid; `-0.0` is a zero and is
    /// fitted.
    #[test]
    fn rejects_nan_and_inf_frequencies() {
        use felip_common::Error;
        let s = schema();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e-12, -0.25] {
            let g = EstimatedGrid::new(
                GridSpec::two_dim(&s, 0, 1, 2, 2, FoKind::Olh).unwrap(),
                vec![0.25, bad, 0.25, 0.25],
            );
            let err = ResponseMatrix::build(0, 1, 8, 8, &[&g], 1e-9).unwrap_err();
            assert!(
                matches!(err, Error::NumericalInstability(_)),
                "{bad}: {err}"
            );
        }
        // A NaN hiding in a *related 1-D* grid is caught too.
        let g2 = EstimatedGrid::new(
            GridSpec::two_dim(&s, 0, 1, 2, 2, FoKind::Olh).unwrap(),
            vec![0.25; 4],
        );
        for bad in [f64::NAN, -0.1] {
            let g1 = EstimatedGrid::new(
                GridSpec::one_dim(&s, 1, 2, FoKind::Olh).unwrap(),
                vec![bad, 1.0 - bad],
            );
            let err = ResponseMatrix::build(0, 1, 8, 8, &[&g2, &g1], 1e-9).unwrap_err();
            assert!(
                matches!(err, Error::NumericalInstability(_)),
                "{bad}: {err}"
            );
        }
        let g = EstimatedGrid::new(
            GridSpec::two_dim(&s, 0, 1, 2, 2, FoKind::Olh).unwrap(),
            vec![0.5, -0.0, 0.25, 0.25],
        );
        let m = ResponseMatrix::build(0, 1, 8, 8, &[&g], 1e-9).unwrap();
        assert_eq!(
            m.answer(
                Some(&Predicate::between(0, 0, 3)),
                Some(&Predicate::between(1, 4, 7))
            ),
            0.0
        );
    }
}
