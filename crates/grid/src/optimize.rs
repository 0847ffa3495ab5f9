//! Per-grid granularity optimisation (§5.2).
//!
//! For each grid, FELIP balances two error sources when answering a query
//! with per-axis selectivity `r`:
//!
//! * **non-uniformity (bias) error** — mass mis-attributed inside cells that
//!   the query rectangle only partially covers, controlled by constants
//!   `α₁` (1-D) and `α₂` (2-D): finer grids → less bias;
//! * **noise + sampling error** — each cell inside the rectangle contributes
//!   one FO estimate with variance `m/n` × the protocol's variance factor:
//!   finer grids → more noisy cells in the sum.
//!
//! The five grid kinds have the closed error expressions of Eqs. (3), (4),
//! (9), (10), (11), (12). Minimisation follows the paper: the 1-D OLH case
//! has the closed form of Eq. (5); all other stationarity conditions are
//! solved numerically (golden-section line search, coordinate descent for
//! the 2-D systems). The continuous optimum is then refined to
//! the best *integer* granularity by direct evaluation — made possible by
//! variable-width binning, which accepts any `l ∈ 1..=d`.

use felip_common::AttrKind;
use felip_fo::variance::olh_variance_factor;
use felip_fo::FoKind;
use felip_numeric::{coordinate_descent2, minimize_unimodal, Descent2Options};

/// One axis of a grid being sized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AxisInput {
    /// Domain size of the attribute.
    pub domain: u32,
    /// Categorical axes are never binned; numerical axes are.
    pub kind: AttrKind,
    /// Expected query selectivity on this axis (ratio of queried interval to
    /// domain), `0 < r ≤ 1`. The aggregator may set this from prior workload
    /// knowledge (§5, step 2); 0.5 is the uninformed default.
    pub selectivity: f64,
}

/// Everything the optimiser needs to size one grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizingInput {
    /// Total user population `n`.
    pub n: usize,
    /// Number of user groups `m` (grids in the plan).
    pub m: usize,
    /// Privacy budget ε.
    pub epsilon: f64,
    /// Non-uniformity constant for 1-D grids (paper default 0.7).
    pub alpha1: f64,
    /// Non-uniformity constant for 2-D grids (paper default 0.03).
    pub alpha2: f64,
    /// First (or only) axis.
    pub x: AxisInput,
    /// Second axis for 2-D grids.
    pub y: Option<AxisInput>,
}

/// The chosen granularity of a grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridSize {
    /// Cells along the first axis.
    pub lx: u32,
    /// Cells along the second axis (2-D grids only).
    pub ly: Option<u32>,
}

impl GridSize {
    /// Total cell count `L`.
    pub fn cells(&self) -> u32 {
        self.lx * self.ly.unwrap_or(1)
    }
}

/// The squared-error model of §5.2, exposed so benches and tests can inspect
/// the objective the optimiser minimises.
#[derive(Debug, Clone, Copy)]
pub struct ErrorModel {
    input: SizingInput,
}

impl ErrorModel {
    /// Builds the model, validating parameters.
    ///
    /// # Panics
    /// Panics on non-positive ε, zero population/groups, or selectivities
    /// outside `(0, 1]` — configuration errors caught at plan time.
    pub fn new(input: SizingInput) -> Self {
        assert!(input.epsilon > 0.0, "epsilon must be positive");
        assert!(input.n > 0, "population must be non-empty");
        assert!(input.m > 0, "group count must be positive");
        let check_r = |r: f64| assert!(r > 0.0 && r <= 1.0, "selectivity {r} outside (0, 1]");
        check_r(input.x.selectivity);
        if let Some(y) = &input.y {
            check_r(y.selectivity);
        }
        ErrorModel { input }
    }

    /// Per-cell noise + sampling variance for a grid of `cells` cells under
    /// protocol `fo`: the §2.2 variance factor scaled by `m/n` (§5.1).
    pub fn noise_unit(&self, fo: FoKind, cells: f64) -> f64 {
        let factor = match fo {
            FoKind::Grr => {
                // Continuous extension of (e^ε + L − 2)/(e^ε − 1)².
                let e = self.input.epsilon.exp();
                (e + cells - 2.0) / ((e - 1.0) * (e - 1.0))
            }
            FoKind::Olh => olh_variance_factor(self.input.epsilon),
        };
        factor * self.input.m as f64 / self.input.n as f64
    }

    /// Squared error of a numerical 1-D grid with `lx` cells (Eqs. 3, 4).
    pub fn error_1d_num(&self, fo: FoKind, lx: f64) -> f64 {
        let rx = self.input.x.selectivity;
        let bias = self.input.alpha1 / lx;
        bias * bias + lx * rx * self.noise_unit(fo, lx)
    }

    /// Squared error of a numerical × numerical 2-D grid (Eqs. 9, 10).
    pub fn error_2d_num_num(&self, fo: FoKind, lx: f64, ly: f64) -> f64 {
        let rx = self.input.x.selectivity;
        let ry = self
            .input
            .y
            .expect("2-D model needs a second axis")
            .selectivity;
        let bias = 2.0 * self.input.alpha2 * (lx * rx + ly * ry) / (lx * ly);
        bias * bias + (lx * rx) * (ly * ry) * self.noise_unit(fo, lx * ly)
    }

    /// Squared error of a numerical × categorical 2-D grid where the
    /// numerical axis has `lx` cells and the categorical axis is fixed at
    /// its domain size (Eqs. 11, 12).
    pub fn error_2d_num_cat(&self, fo: FoKind, lx: f64, ly_cat: f64) -> f64 {
        let rx = self.input.x.selectivity;
        let ry = self
            .input
            .y
            .expect("2-D model needs a second axis")
            .selectivity;
        let bias = 2.0 * self.input.alpha2 * ry / lx;
        bias * bias + (lx * rx) * (ly_cat * ry) * self.noise_unit(fo, lx * ly_cat)
    }
}

/// The closed-form 1-D OLH optimum of Eq. (5):
/// `l = ∛( n α₁² (e^ε − 1)² / (2 m r e^ε) )`.
///
/// Exposed for tests and for TDG/HDG, whose global granularity formula is
/// this expression with `r = 0.5`.
pub fn closed_form_1d_olh(n: usize, m: usize, epsilon: f64, alpha1: f64, r: f64) -> f64 {
    let e = epsilon.exp();
    (n as f64 * alpha1 * alpha1 * (e - 1.0) * (e - 1.0) / (2.0 * m as f64 * r * e)).cbrt()
}

/// Optimises one grid's granularity for protocol `fo`, returning the chosen
/// integer size and the squared error it achieves.
///
/// Grid kinds are dispatched on the axis kinds:
/// * numerical 1-D — scalar minimisation (Eq. 5 / Eq. 6);
/// * categorical 1-D — fixed at the domain size;
/// * num × num — coordinate descent on the 2-variable system;
/// * num × cat / cat × num — categorical axis fixed, scalar solve for the
///   numerical axis;
/// * cat × cat — both axes fixed at their domains.
pub fn optimize_grid(input: SizingInput, fo: FoKind) -> (GridSize, f64) {
    let model = ErrorModel::new(input);
    match (input.x.kind, input.y.map(|y| y.kind)) {
        // --- 1-D ---
        (AttrKind::Categorical, None) => {
            let lx = input.x.domain;
            // Bias is zero (no binning): error is pure noise over the
            // selected categories.
            let err = input.x.selectivity * lx as f64 * model.noise_unit(fo, lx as f64);
            (GridSize { lx, ly: None }, err)
        }
        (AttrKind::Numerical, None) => {
            let d = input.x.domain as f64;
            // Seed with the OLH closed form, solve by golden section (the
            // objective is strictly unimodal on [1, d]).
            let cont = minimize_unimodal(1.0, d, 1e-6, |l| model.error_1d_num(fo, l));
            let lx = best_integer_1d(cont, input.x.domain, |l| model.error_1d_num(fo, l as f64));
            (GridSize { lx, ly: None }, model.error_1d_num(fo, lx as f64))
        }
        // --- 2-D ---
        (xk, Some(yk)) => {
            let y = input.y.expect("2-D input");
            match (xk, yk) {
                (AttrKind::Categorical, AttrKind::Categorical) => {
                    // No binning on either axis → no bias term; the error is
                    // the noise summed over the selected cells.
                    let (lx, ly) = (input.x.domain, y.domain);
                    let cells = (lx as f64) * (ly as f64);
                    let selected = input.x.selectivity * lx as f64 * y.selectivity * ly as f64;
                    let err = selected * model.noise_unit(fo, cells);
                    (GridSize { lx, ly: Some(ly) }, err)
                }
                (AttrKind::Numerical, AttrKind::Numerical) => {
                    let (dx, dy) = (input.x.domain as f64, y.domain as f64);
                    let (cx, cy) = coordinate_descent2(
                        (dx.sqrt(), dy.sqrt()),
                        Descent2Options {
                            x_bounds: (1.0, dx),
                            y_bounds: (1.0, dy),
                            tol: 1e-6,
                            max_sweeps: 64,
                        },
                        |lx, ly| model.error_2d_num_num(fo, lx, ly),
                    );
                    let (lx, ly) = best_integer_2d(cx, cy, input.x.domain, y.domain, |a, b| {
                        model.error_2d_num_num(fo, a as f64, b as f64)
                    });
                    (
                        GridSize { lx, ly: Some(ly) },
                        model.error_2d_num_num(fo, lx as f64, ly as f64),
                    )
                }
                (AttrKind::Numerical, AttrKind::Categorical) => {
                    let ly = y.domain;
                    let dx = input.x.domain as f64;
                    let cont = minimize_unimodal(1.0, dx, 1e-6, |lx| {
                        model.error_2d_num_cat(fo, lx, ly as f64)
                    });
                    let lx = best_integer_1d(cont, input.x.domain, |l| {
                        model.error_2d_num_cat(fo, l as f64, ly as f64)
                    });
                    (
                        GridSize { lx, ly: Some(ly) },
                        model.error_2d_num_cat(fo, lx as f64, ly as f64),
                    )
                }
                (AttrKind::Categorical, AttrKind::Numerical) => {
                    // Mirror of the previous case: swap roles, then swap back.
                    let swapped = SizingInput {
                        x: y,
                        y: Some(input.x),
                        ..input
                    };
                    let (sz, err) = optimize_grid(swapped, fo);
                    (
                        GridSize {
                            lx: sz.ly.expect("2-D"),
                            ly: Some(sz.lx),
                        },
                        err,
                    )
                }
            }
        }
    }
}

/// Picks the best integer granularity near the continuous optimum.
fn best_integer_1d(cont: f64, domain: u32, mut err: impl FnMut(u32) -> f64) -> u32 {
    let lo = (cont.floor().max(1.0) as u32).min(domain);
    let hi = (cont.ceil().max(1.0) as u32).min(domain);
    if lo == hi || err(lo) <= err(hi) {
        lo
    } else {
        hi
    }
}

/// Picks the best integer pair near the continuous 2-D optimum by direct
/// evaluation of the four floor/ceil combinations.
fn best_integer_2d(
    cx: f64,
    cy: f64,
    dx: u32,
    dy: u32,
    mut err: impl FnMut(u32, u32) -> f64,
) -> (u32, u32) {
    let cands_x = [
        (cx.floor().max(1.0) as u32).min(dx),
        (cx.ceil().max(1.0) as u32).min(dx),
    ];
    let cands_y = [
        (cy.floor().max(1.0) as u32).min(dy),
        (cy.ceil().max(1.0) as u32).min(dy),
    ];
    let mut best = (cands_x[0], cands_y[0]);
    let mut best_err = f64::INFINITY;
    for &a in &cands_x {
        for &b in &cands_y {
            let e = err(a, b);
            if e < best_err {
                best_err = e;
                best = (a, b);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(domain: u32, r: f64) -> AxisInput {
        AxisInput {
            domain,
            kind: AttrKind::Numerical,
            selectivity: r,
        }
    }

    fn cat(domain: u32, r: f64) -> AxisInput {
        AxisInput {
            domain,
            kind: AttrKind::Categorical,
            selectivity: r,
        }
    }

    fn base(x: AxisInput, y: Option<AxisInput>) -> SizingInput {
        SizingInput {
            n: 1_000_000,
            m: 15,
            epsilon: 1.0,
            alpha1: 0.7,
            alpha2: 0.03,
            x,
            y,
        }
    }

    #[test]
    fn one_dim_olh_matches_closed_form() {
        let input = base(num(1024, 0.5), None);
        let (size, _) = optimize_grid(input, FoKind::Olh);
        let expect = closed_form_1d_olh(input.n, input.m, input.epsilon, input.alpha1, 0.5);
        assert!(
            (size.lx as f64 - expect).abs() <= 1.0,
            "solver {} vs closed form {}",
            size.lx,
            expect
        );
    }

    #[test]
    fn one_dim_grr_is_coarser_than_olh() {
        // GRR's noise grows with L, so its optimal grid is never finer.
        let input = base(num(1024, 0.5), None);
        let (olh, _) = optimize_grid(input, FoKind::Olh);
        let (grr, _) = optimize_grid(input, FoKind::Grr);
        assert!(grr.lx <= olh.lx, "GRR {} vs OLH {}", grr.lx, olh.lx);
    }

    #[test]
    fn one_dim_clamps_to_domain() {
        // Tiny population → coarse grid; huge population small domain → l = d.
        let coarse = optimize_grid(base(num(1024, 0.5), None), FoKind::Olh).0;
        let mut rich = base(num(8, 0.5), None);
        rich.n = 100_000_000;
        let fine = optimize_grid(rich, FoKind::Olh).0;
        assert!(coarse.lx >= 1 && coarse.lx <= 1024);
        assert_eq!(fine.lx, 8);
    }

    #[test]
    fn categorical_1d_is_identity() {
        let (size, _) = optimize_grid(base(cat(7, 0.5), None), FoKind::Grr);
        assert_eq!(size.lx, 7);
        assert_eq!(size.ly, None);
    }

    #[test]
    fn cat_cat_uses_domains() {
        let (size, _) = optimize_grid(base(cat(5, 0.5), Some(cat(3, 0.5))), FoKind::Olh);
        assert_eq!((size.lx, size.ly), (5, Some(3)));
    }

    #[test]
    fn num_num_symmetric_inputs_give_symmetric_sizes() {
        let (size, _) = optimize_grid(base(num(256, 0.5), Some(num(256, 0.5))), FoKind::Olh);
        let (lx, ly) = (size.lx, size.ly.unwrap());
        assert!((lx as i64 - ly as i64).abs() <= 1, "{lx} vs {ly}");
        assert!(lx > 1 && lx < 256, "degenerate optimum {lx}");
    }

    #[test]
    fn num_cat_fixes_categorical_axis() {
        let (size, _) = optimize_grid(base(num(256, 0.5), Some(cat(4, 0.5))), FoKind::Olh);
        assert_eq!(size.ly, Some(4));
        assert!(size.lx >= 1 && size.lx <= 256);
    }

    #[test]
    fn cat_num_mirrors_num_cat() {
        let a = optimize_grid(base(num(256, 0.5), Some(cat(4, 0.5))), FoKind::Olh).0;
        let b = optimize_grid(base(cat(4, 0.5), Some(num(256, 0.5))), FoKind::Olh).0;
        assert_eq!(b.lx, 4);
        assert_eq!(b.ly, Some(a.lx));
    }

    #[test]
    fn higher_selectivity_coarser_grid() {
        // Broader queries touch more cells → more noise → coarser optimum.
        let fine = optimize_grid(base(num(1024, 0.1), None), FoKind::Olh).0;
        let coarse = optimize_grid(base(num(1024, 0.9), None), FoKind::Olh).0;
        assert!(
            coarse.lx < fine.lx,
            "coarse {} !< fine {}",
            coarse.lx,
            fine.lx
        );
    }

    #[test]
    fn more_users_finer_grid() {
        let mut small = base(num(1024, 0.5), None);
        small.n = 10_000;
        let mut big = small;
        big.n = 10_000_000;
        let ls = optimize_grid(small, FoKind::Olh).0.lx;
        let lb = optimize_grid(big, FoKind::Olh).0.lx;
        assert!(lb > ls, "big {lb} !> small {ls}");
    }

    #[test]
    fn integer_refinement_is_locally_optimal() {
        let input = base(num(1024, 0.5), None);
        let model = ErrorModel::new(input);
        let (size, err) = optimize_grid(input, FoKind::Olh);
        for neighbour in [size.lx.saturating_sub(1).max(1), (size.lx + 1).min(1024)] {
            if neighbour != size.lx {
                assert!(
                    model.error_1d_num(FoKind::Olh, neighbour as f64) >= err - 1e-15,
                    "neighbour {neighbour} beats chosen {}",
                    size.lx
                );
            }
        }
    }

    #[test]
    fn two_dim_stationarity() {
        // The chosen integer pair should (weakly) beat its 8 neighbours.
        let input = base(num(256, 0.5), Some(num(256, 0.5)));
        let model = ErrorModel::new(input);
        let (size, err) = optimize_grid(input, FoKind::Olh);
        let (lx, ly) = (size.lx, size.ly.unwrap());
        for a in [lx.saturating_sub(1).max(1), lx, (lx + 1).min(256)] {
            for b in [ly.saturating_sub(1).max(1), ly, (ly + 1).min(256)] {
                if (a, b) != (lx, ly) {
                    assert!(
                        model.error_2d_num_num(FoKind::Olh, a as f64, b as f64) >= err - 1e-12,
                        "neighbour ({a},{b}) beats ({lx},{ly})"
                    );
                }
            }
        }
    }

    #[test]
    fn grid_size_cells() {
        assert_eq!(GridSize { lx: 5, ly: None }.cells(), 5);
        assert_eq!(GridSize { lx: 5, ly: Some(4) }.cells(), 20);
    }

    #[test]
    #[should_panic(expected = "selectivity")]
    fn rejects_zero_selectivity() {
        ErrorModel::new(base(num(16, 0.0), None));
    }
}
