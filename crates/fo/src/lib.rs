#![warn(missing_docs)]

//! Local differential privacy frequency oracles.
//!
//! A *frequency oracle* (FO, §2.2 of the paper) is a pair of algorithms: a
//! client-side randomiser `Ψ` that perturbs one private value from a finite
//! domain, and a server-side estimator `Φ` that recovers unbiased frequency
//! estimates for every domain value from the collected perturbed reports.
//!
//! This crate implements, from scratch:
//!
//! * [`Grr`] — Generalized Randomized Response (§2.2.1);
//! * [`Olh`] — Optimized Local Hashing (§2.2.2, Wang et al. USENIX'17);
//! * [`SquareWave`] — the ordinal-domain mechanism of Li et al. (SIGMOD'20)
//!   with EM reconstruction, an alternative 1-D marginal estimator;
//! * [`afo`] — the Adaptive Frequency Oracle selection rule (§5.3): pick the
//!   protocol with the smaller analytical variance for the domain at hand;
//! * [`variance`] — closed-form variances used by both AFO and the grid-size
//!   optimiser.
//!
//! GRR and OLH implement the [`FrequencyOracle`] trait, report through the
//! common [`Report`] type, and satisfy ε-LDP for the configured budget
//! (verified empirically in this crate's tests by bounding the likelihood
//! ratio of every output).

pub mod afo;
pub mod grr;
pub mod olh;
pub mod report;
pub mod sw;
pub mod traits;
pub mod variance;

pub use afo::{choose_oracle, make_oracle, FoKind};
pub use grr::Grr;
pub use olh::Olh;
pub use report::Report;
pub use sw::SquareWave;
pub use traits::FrequencyOracle;
