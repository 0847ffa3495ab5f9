#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Experiment harness regenerating every figure of the FELIP paper.
//!
//! Each figure has a binary (`fig1` … `fig7`) that sweeps the figure's
//! x-axis, runs every strategy on every dataset, and prints one CSV row per
//! `(dataset, λ, x, strategy)` series point — the same series the paper
//! plots. Ablation binaries (`afo_crossover`, `ablation_partitioning`,
//! `ablation_postprocess`, `ablation_selectivity`, `ablation_marginals`,
//! `ablation_twophase`, `sw_vs_olh`) cover the design choices and
//! extensions DESIGN.md calls out. Two more binaries check the serving
//! stack: `chaos` sweeps the deterministic fault-injection harness, and
//! `olh_kernel` compares the batched OLH kernel with the scalar path and
//! measures the recorder's overhead on it. Throughput and latency at the
//! paper's scale are measured by `perfbench/`, not here.
//!
//! # Profiles
//!
//! The paper's full scale (n = 10⁶ users per point, tens of points per
//! figure) takes hours on a laptop-class machine, so every binary accepts:
//!
//! * `--quick` *(default)* — n = 60 000, |Q| = 10, 1 repeat;
//! * `--full`  — the paper's parameters (n = 10⁶, domains up to 1600).
//!
//! Output goes to stdout and, when `--out DIR` is passed, to
//! `DIR/<figure>.csv`.

pub mod ablations;
pub mod chaos;
pub mod figures;
pub mod profile;
pub mod runner;
pub mod table;

pub use profile::Profile;
pub use runner::{evaluate_mae, StrategyUnderTest};
pub use table::CsvSink;
