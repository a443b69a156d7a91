#![warn(missing_docs)]

//! Experiment harness for the ASBR reproduction.
//!
//! Regenerates every table/figure of the paper's evaluation (Sec. 8):
//!
//! | Paper figure | Module | Content |
//! |---|---|---|
//! | Figure 6 | [`fig6`] | baseline cycles / CPI / accuracy, 4 benchmarks × 3 predictors |
//! | Figures 7, 9, 10 | [`branch_tables`] | per-selected-branch execution counts and predictor accuracies |
//! | Figure 11 | [`fig11`] | ASBR cycles and improvement under not-taken / bi-512 / bi-256 auxiliaries |
//! | Figures 1–5 (motivation) | [`motivation`] | executable versions of the motivating fragments |
//! | (extensions) | [`ablation`] | BIT size, publish threshold, scheduling, auxiliary size, BIT banks |
//!
//! Experiments declare their runs as [`asbr_harness::RunSpec`] values
//! (often a [`asbr_harness::DesignSpace`]) plus a projection of the
//! outcomes onto rows; `asbr_tool tables` runs them as one batch on one
//! cached [`asbr_harness::Executor`] — see `docs/harness.md`. The [`attribution`] module decomposes the headline
//! baseline → ASBR cycle deltas into the named per-cycle buckets of
//! [`asbr_sim::CycleAttribution`] — see `docs/observability.md`.
//!
//! # Examples
//!
//! ```
//! use asbr_harness::{RunSpec, SAMPLES_SMOKE};
//! use asbr_bpred::PredictorKind;
//! use asbr_workloads::Workload;
//!
//! let spec = RunSpec::baseline(Workload::AdpcmEncode, PredictorKind::NotTaken, SAMPLES_SMOKE);
//! assert!(spec.execute()?.summary.stats.cpi() > 1.0);
//! # Ok::<(), asbr_harness::HarnessError>(())
//! ```

pub mod ablation;
pub mod attribution;
pub mod branch_tables;
pub mod costs;
pub mod fig11;
pub mod fig6;
pub mod motivation;
pub mod scope;
pub mod tablefmt;
