//! `asbr-harness`: the batch engine behind every experiment.
//!
//! One run is a [`RunSpec`] — workload, input scale, predictor, BTB,
//! [`MicroTweaks`], optional [`AsbrSpec`] customization — executed into a
//! [`RunOutcome`]. Sweeps enumerate specs from a [`DesignSpace`] (named
//! [`Axis`] values over a base spec) and run them on an [`Executor`]: a
//! worker count and a cache mode in front of one lazily started pool
//! that dedups equal specs and equivalent machines, memoizes the shared
//! prefix per `(workload, hoist, samples)`, returns outcomes in input
//! order, and reads and writes a content-addressed on-disk
//! [`ResultCache`] under `results/cache/` (see [`CacheMode`] for the
//! `--no-cache` / `--refresh` escape hatches). Failures surface as
//! [`HarnessError`]. [`SweepBench`] records per-run wall-clock and
//! simulated cycles into `BENCH_sweep.json`, and [`ThroughputSpec`]
//! measures the simulator hot loop itself — simulated cycles and
//! instructions per host second, best-of-N — into
//! `BENCH_throughput.json` (see `docs/performance.md`). On top of the
//! sweep layer, [`explore`] adds multi-objective design-space
//! exploration — [`Objective`]/[`Constraint`] over a typed
//! [`CostModel`] and Pareto-front extraction over every point of a
//! space, evaluated as one batch — behind `asbr_tool explore` (see
//! `docs/explore.md`).
//!
//! The crate is deliberately dependency-free beyond the workspace: the
//! cache key hash ([`hash::Sha256`]), the cache entry format, and the
//! benchmark JSON are all implemented here.
//!
//! See `docs/harness.md` for a guided tour, the cache key scheme, and
//! how to add a sweep axis.

#![warn(missing_docs)]

pub mod bench;
pub mod cache;
pub mod cost;
pub mod error;
pub mod executor;
pub mod explore;
pub mod hash;
pub mod json;
pub mod host;
mod prefix;
mod report;
mod shared;
pub mod spec;
pub mod throughput;
pub mod wcet;

pub use bench::{BenchEntry, SweepBench, BENCH_SCHEMA};
pub use cache::{ResultCache, CACHE_FORMAT};
pub use cost::{AreaModel, CostBreakdown, CostModel, EnergyModel, AREA_SCHEMA, POWER_SCHEMA};
pub use error::HarnessError;
pub use explore::{
    dominates, pareto_indices, ArmSpec, Axis, AxisValues, Constraint, DesignSpace, Exploration,
    ExplorePoint, ExploreReport, Metric, Objective, SearchStrategy, Sense, PARETO_SCHEMA,
};
pub use executor::{CacheMode, Executor, ExecutorStats};
pub use host::HostInfo;
pub use prefix::Prefix;
pub use spec::{
    AsbrSpec, MicroTweaks, RunOutcome, RunSpec, AUX_BTB, BASELINE_BTB,
    PROFILE_PREDICTOR, SAMPLES_FULL, SAMPLES_SMOKE,
};
pub use throughput::{
    ThroughputBench, ThroughputEntry, ThroughputSpec, THROUGHPUT_REPS, THROUGHPUT_SAMPLES,
    THROUGHPUT_SCHEMA,
};
pub use wcet::{attach_bound, cross_check, machine_params, WcetRecord};
