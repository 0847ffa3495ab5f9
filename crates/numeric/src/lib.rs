#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Numeric minimisers for the grid-size optimiser.
//!
//! FELIP's grid-size optimisation (§5.2 of the paper) minimises per-grid
//! error expressions of the form *non-uniformity² + noise·sampling*. The
//! paper solves their stationarity conditions (cubic for 1-D GRR, small
//! polynomial systems for 2-D grids) "numerically … using the bisection
//! method"; this crate minimises the objectives directly instead:
//!
//! * [`minimize_unimodal`] — golden-section minimisation of a unimodal
//!   scalar objective;
//! * [`coordinate_descent2`] — alternating golden-section minimisation for
//!   the two-variable grid-size systems.
//!
//! The crate is dependency-free and fully deterministic.

pub mod descent;
pub mod golden;

pub use descent::{coordinate_descent2, Descent2Options};
pub use golden::minimize_unimodal;
