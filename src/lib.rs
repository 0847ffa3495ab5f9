#![warn(missing_docs)]

//! # felip-repro
//!
//! A from-scratch Rust reproduction of **FELIP** (Costa Filho & Machado,
//! EDBT 2023): frequency estimation on multidimensional datasets under
//! local differential privacy.
//!
//! This crate is a façade re-exporting the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`common`] | `felip-common` | schema, datasets, queries, metrics, hashing |
//! | [`numeric`] | `felip-numeric` | root finding / small-system solvers |
//! | [`fo`] | `felip-fo` | GRR, OLH, Square Wave frequency oracles + adaptive selection |
//! | [`grid`] | `felip-grid` | binning, grid sizing, post-processing, response matrices |
//! | [`engine`] | `felip` | the FELIP pipeline (plan → collect → estimate → answer) |
//! | [`baselines`] | `felip-baselines` | HIO, TDG, HDG comparators |
//! | [`datasets`] | `felip-datasets` | evaluation dataset generators + workloads |
//!
//! See the `examples/` directory for runnable walkthroughs and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction methodology.

pub use felip as engine;
pub use felip_baselines as baselines;
pub use felip_common as common;
pub use felip_datasets as datasets;
pub use felip_fo as fo;
pub use felip_grid as grid;
pub use felip_numeric as numeric;

// The most common entry points, re-exported flat for convenience.
pub use felip::{
    simulate, Aggregator, CollectionPlan, Estimator, FelipConfig, SelectivityPrior, Strategy,
};
pub use felip_common::{Attribute, Dataset, Predicate, Query, Schema};
