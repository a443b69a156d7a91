//! Multi-objective design-space exploration with Pareto fronts.
//!
//! The paper's core trade-off — how much auxiliary predictor, BTB, and
//! cache hardware ASBR lets you remove at equal performance — is a
//! multi-objective question: cycles vs. area vs. energy. This module
//! turns it into a declarative API:
//!
//! * [`DesignSpace`] — named [`Axis`] values (predictor family/size, BTB
//!   entries, BIT capacity, publish threshold, cache geometry,
//!   [`MicroTweaks`], whole [`ArmSpec`] bundles) over a base [`RunSpec`].
//!   A point is one index per axis; [`DesignSpace::spec_at`] maps it to
//!   the [`RunSpec`] it denotes, and [`DesignSpace::specs`] enumerates
//!   every point (the fan-out behind the Figure 6/11 sweeps).
//! * [`Objective`] / [`Constraint`] — typed functions over the finished
//!   [`RunOutcome`] and the promoted [`CostModel`](crate::cost::CostModel)
//!   (see [`Metric`] for the built-ins).
//! * [`Exploration::run`] — evaluates every point of the space as one
//!   batch on the existing [`Executor`] (so exploration saturates host
//!   cores, the content-addressed cache makes revisited points free, and
//!   points that build the same machine simulate once), extracts the
//!   Pareto front with dominance checks, and emits an [`ExploreReport`]
//!   (`results/PARETO_*.json`, schema [`PARETO_SCHEMA`]).
//!
//! The executor returns outcomes in input order at any thread count, so
//! a report is deterministic.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use asbr_bpred::PredictorKind;
use asbr_sim::PublishPoint;
use asbr_workloads::Workload;

use crate::cost::CostModel;
use crate::error::HarnessError;
use crate::executor::Executor;
use crate::host::HostInfo;
use crate::json::{ToJson, Value};
use crate::spec::{AsbrSpec, MicroTweaks, RunOutcome, RunSpec, AUX_BTB, BASELINE_BTB};

/// Schema tag of the `PARETO_*.json` artifact.
pub const PARETO_SCHEMA: &str = "asbr-pareto v1";

/// One *arm* of a design space: a predictor configuration bundled with
/// its BTB capacity and (optionally) ASBR customization: a baseline or
/// ASBR arm of a figure sweep, applied through [`Axis::arms`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArmSpec {
    /// Direction predictor of the arm.
    pub predictor: PredictorKind,
    /// Branch-target-buffer entries.
    pub btb_entries: usize,
    /// ASBR knobs; `None` is an uncustomized baseline arm.
    pub asbr: Option<AsbrSpec>,
}

impl ArmSpec {
    /// A baseline arm with the full-size BTB.
    #[must_use]
    pub fn baseline(predictor: PredictorKind) -> ArmSpec {
        ArmSpec { predictor, btb_entries: BASELINE_BTB, asbr: None }
    }

    /// An ASBR arm with default knobs and the quarter-size BTB.
    #[must_use]
    pub fn asbr(aux: PredictorKind) -> ArmSpec {
        ArmSpec { predictor: aux, btb_entries: AUX_BTB, asbr: Some(AsbrSpec::default()) }
    }

    /// Applies the arm to a spec.
    fn apply(self, mut spec: RunSpec) -> RunSpec {
        spec.predictor = self.predictor;
        spec.btb_entries = self.btb_entries;
        spec.asbr = self.asbr;
        spec
    }
}

/// The values along one axis. Every variant is a plain list; the axis
/// index selects one element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AxisValues {
    /// Benchmark programs.
    Workloads(Vec<Workload>),
    /// Input sample counts.
    Samples(Vec<usize>),
    /// Direction predictors (family × table size in one axis).
    Predictors(Vec<PredictorKind>),
    /// Branch-target-buffer capacities.
    BtbEntries(Vec<usize>),
    /// BIT capacities. Applying this to a baseline spec turns it into an
    /// ASBR spec with otherwise-default knobs.
    BitEntries(Vec<usize>),
    /// Publish points (the Sec. 5.2 threshold knob). Applying this to a
    /// baseline spec turns it into an ASBR spec.
    Publish(Vec<PublishPoint>),
    /// I/D cache capacities in bytes (0 = the 8 KB paper default).
    CacheBytes(Vec<u32>),
    /// Whole microarchitectural tweak bundles.
    Tweaks(Vec<MicroTweaks>),
    /// Whole arm bundles (predictor + BTB + optional ASBR knobs).
    Arms(Vec<ArmSpec>),
}

impl AxisValues {
    fn len(&self) -> usize {
        match self {
            AxisValues::Workloads(v) => v.len(),
            AxisValues::Samples(v) => v.len(),
            AxisValues::Predictors(v) => v.len(),
            AxisValues::BtbEntries(v) => v.len(),
            AxisValues::BitEntries(v) => v.len(),
            AxisValues::Publish(v) => v.len(),
            AxisValues::CacheBytes(v) => v.len(),
            AxisValues::Tweaks(v) => v.len(),
            AxisValues::Arms(v) => v.len(),
        }
    }
}

/// One named axis of a [`DesignSpace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axis {
    name: String,
    values: AxisValues,
}

impl Axis {
    /// A workload axis (default name `workload`).
    #[must_use]
    pub fn workloads(values: impl IntoIterator<Item = Workload>) -> Axis {
        Axis { name: "workload".to_owned(), values: AxisValues::Workloads(collect(values)) }
    }

    /// A sample-count axis (default name `samples`).
    #[must_use]
    pub fn samples(values: impl IntoIterator<Item = usize>) -> Axis {
        Axis { name: "samples".to_owned(), values: AxisValues::Samples(collect(values)) }
    }

    /// A predictor axis (default name `predictor`).
    #[must_use]
    pub fn predictors(values: impl IntoIterator<Item = PredictorKind>) -> Axis {
        Axis { name: "predictor".to_owned(), values: AxisValues::Predictors(collect(values)) }
    }

    /// A BTB-capacity axis (default name `btb`).
    #[must_use]
    pub fn btb_entries(values: impl IntoIterator<Item = usize>) -> Axis {
        Axis { name: "btb".to_owned(), values: AxisValues::BtbEntries(collect(values)) }
    }

    /// A BIT-capacity axis (default name `bit`).
    #[must_use]
    pub fn bit_entries(values: impl IntoIterator<Item = usize>) -> Axis {
        Axis { name: "bit".to_owned(), values: AxisValues::BitEntries(collect(values)) }
    }

    /// A publish-point axis (default name `publish`).
    #[must_use]
    pub fn publish(values: impl IntoIterator<Item = PublishPoint>) -> Axis {
        Axis { name: "publish".to_owned(), values: AxisValues::Publish(collect(values)) }
    }

    /// A cache-geometry axis (default name `cache`).
    #[must_use]
    pub fn cache_bytes(values: impl IntoIterator<Item = u32>) -> Axis {
        Axis { name: "cache".to_owned(), values: AxisValues::CacheBytes(collect(values)) }
    }

    /// A tweak-bundle axis (default name `tweaks`).
    #[must_use]
    pub fn tweaks(values: impl IntoIterator<Item = MicroTweaks>) -> Axis {
        Axis { name: "tweaks".to_owned(), values: AxisValues::Tweaks(collect(values)) }
    }

    /// An arm-bundle axis (default name `arm`).
    #[must_use]
    pub fn arms(values: impl IntoIterator<Item = ArmSpec>) -> Axis {
        Axis { name: "arm".to_owned(), values: AxisValues::Arms(collect(values)) }
    }

    /// Renames the axis.
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Axis {
        self.name = name.into();
        self
    }

    /// The axis name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of values along this axis.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the axis has no values (it then collapses the whole space
    /// to zero points).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.len() == 0
    }

    /// Applies value `i` of this axis to `spec`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range — point ids are produced by
    /// [`DesignSpace`], which never hands out an invalid index.
    fn apply(&self, i: usize, spec: RunSpec) -> RunSpec {
        let mut spec = spec;
        match &self.values {
            AxisValues::Workloads(v) => spec.workload = v[i],
            AxisValues::Samples(v) => spec.samples = v[i],
            AxisValues::Predictors(v) => spec.predictor = v[i],
            AxisValues::BtbEntries(v) => spec.btb_entries = v[i],
            AxisValues::BitEntries(v) => {
                let mut knobs = spec.asbr.unwrap_or_default();
                knobs.bit_entries = v[i];
                spec.asbr = Some(knobs);
            }
            AxisValues::Publish(v) => {
                let mut knobs = spec.asbr.unwrap_or_default();
                knobs.publish = v[i];
                spec.asbr = Some(knobs);
            }
            AxisValues::CacheBytes(v) => spec.tweaks.cache_bytes = v[i],
            AxisValues::Tweaks(v) => spec.tweaks = v[i],
            AxisValues::Arms(v) => return v[i].apply(spec),
        }
        spec
    }

    /// A short human label for value `i` (used in point labels).
    fn value_label(&self, i: usize) -> String {
        match &self.values {
            AxisValues::Workloads(v) => v[i].slug().to_owned(),
            AxisValues::Samples(v) => v[i].to_string(),
            AxisValues::Predictors(v) => v[i].label(),
            AxisValues::BtbEntries(v) => v[i].to_string(),
            AxisValues::BitEntries(v) => v[i].to_string(),
            AxisValues::Publish(v) => match v[i] {
                PublishPoint::Execute => "execute".to_owned(),
                PublishPoint::Mem => "mem".to_owned(),
                PublishPoint::Commit => "commit".to_owned(),
            },
            AxisValues::CacheBytes(v) => format!("{}B", v[i]),
            AxisValues::Tweaks(v) => format!(
                "mul{}div{}", v[i].mul_latency, v[i].div_latency
            ),
            AxisValues::Arms(v) => {
                let a = &v[i];
                match a.asbr {
                    Some(_) => format!("asbr/{}/btb{}", a.predictor.label(), a.btb_entries),
                    None => format!("base/{}/btb{}", a.predictor.label(), a.btb_entries),
                }
            }
        }
    }
}

fn collect<T>(values: impl IntoIterator<Item = T>) -> Vec<T> {
    values.into_iter().collect()
}

/// A declarative, enumerable design space: a base [`RunSpec`] plus named
/// axes. A *point* is one index per axis (in axis order); the point's
/// spec is the base with every axis value applied, first axis first.
///
/// Enumeration order fixes the **last axis as the fastest-varying**
/// (row-major over the axis list): a space with an arms axis followed by
/// a workloads axis enumerates `arm { workload }`, one predictor block
/// over every benchmark at a time, the way the paper's figures read.
///
/// # Examples
///
/// ```
/// use asbr_bpred::PredictorKind;
/// use asbr_harness::explore::{Axis, DesignSpace};
/// use asbr_harness::RunSpec;
/// use asbr_workloads::Workload;
///
/// let space = DesignSpace::new(RunSpec::asbr(
///     Workload::AdpcmEncode,
///     PredictorKind::Bimodal { entries: 512 },
///     400,
/// ))
/// .axis(Axis::predictors([
///     PredictorKind::NotTaken,
///     PredictorKind::Bimodal { entries: 256 },
/// ]))
/// .axis(Axis::btb_entries([256, 512]));
/// assert_eq!(space.len(), 4);
/// let spec = space.spec_at(&[1, 0]);
/// assert_eq!(spec.btb_entries, 256);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignSpace {
    base: RunSpec,
    axes: Vec<Axis>,
}

impl DesignSpace {
    /// A space of exactly one point: the base spec. Add [`Axis`] values
    /// to fan out.
    #[must_use]
    pub fn new(base: RunSpec) -> DesignSpace {
        DesignSpace { base, axes: Vec::new() }
    }

    /// Adds an axis (applied after every axis already present; later
    /// axes win where they touch the same knob).
    #[must_use]
    pub fn axis(mut self, axis: Axis) -> DesignSpace {
        self.axes.push(axis);
        self
    }

    /// The axes, in application order.
    #[must_use]
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// The base spec axes are applied over.
    #[must_use]
    pub fn base(&self) -> &RunSpec {
        &self.base
    }

    /// Axis lengths, in axis order.
    #[must_use]
    pub fn dims(&self) -> Vec<usize> {
        self.axes.iter().map(Axis::len).collect()
    }

    /// Number of points in the space (product of axis lengths; `1` for a
    /// space with no axes, `0` if any axis is empty).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.axes.iter().map(|a| a.len() as u64).product()
    }

    /// Whether the space contains no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The point id of ordinal `n` in enumeration order (mixed-radix
    /// digits, last axis fastest).
    ///
    /// # Panics
    ///
    /// Panics when `n >= self.len()`.
    #[must_use]
    pub fn id_of(&self, n: u64) -> Vec<usize> {
        assert!(n < self.len(), "ordinal {n} out of range for a {}-point space", self.len());
        let dims = self.dims();
        let mut id = vec![0; dims.len()];
        let mut rest = n;
        for (slot, &len) in id.iter_mut().zip(&dims).rev() {
            *slot = (rest % len as u64) as usize;
            rest /= len as u64;
        }
        id
    }

    /// The spec a point id denotes.
    ///
    /// # Panics
    ///
    /// Panics when the id has the wrong arity or an index out of range.
    #[must_use]
    pub fn spec_at(&self, id: &[usize]) -> RunSpec {
        assert_eq!(id.len(), self.axes.len(), "point id arity mismatch");
        let mut spec = self.base;
        for (axis, &i) in self.axes.iter().zip(id) {
            spec = axis.apply(i, spec);
        }
        spec
    }

    /// A short `axis=value` label for a point.
    #[must_use]
    pub fn label_of(&self, id: &[usize]) -> String {
        if self.axes.is_empty() {
            return "base".to_owned();
        }
        self.axes
            .iter()
            .zip(id)
            .map(|(a, &i)| format!("{}={}", a.name, a.value_label(i)))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Every spec of the space, in enumeration order.
    #[must_use]
    pub fn specs(&self) -> Vec<RunSpec> {
        (0..self.len()).map(|n| self.spec_at(&self.id_of(n))).collect()
    }
}

/// The measurement a [`Metric`] applies to a finished run.
type MetricFn = Arc<dyn Fn(&RunSpec, &RunOutcome) -> f64 + Send + Sync>;

/// A named, thread-safe measurement over a finished run. Metrics are the
/// shared currency of objectives and constraints.
#[derive(Clone)]
pub struct Metric {
    name: String,
    f: MetricFn,
}

impl fmt::Debug for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Metric").field("name", &self.name).finish_non_exhaustive()
    }
}

impl Metric {
    /// A metric from an arbitrary function.
    pub fn custom(
        name: impl Into<String>,
        f: impl Fn(&RunSpec, &RunOutcome) -> f64 + Send + Sync + 'static,
    ) -> Metric {
        Metric { name: name.into(), f: Arc::new(f) }
    }

    /// Simulated machine cycles.
    #[must_use]
    pub fn cycles() -> Metric {
        Metric::custom("cycles", |_, out| out.cycles() as f64)
    }

    /// Area-weighted front-end cost under a [`CostModel`] (storage bits
    /// under the default model).
    #[must_use]
    pub fn area(model: CostModel) -> Metric {
        Metric::custom("area", move |spec, _| model.cost_of(spec).total_area())
    }

    /// Total dynamic energy of the run under a [`CostModel`].
    #[must_use]
    pub fn energy(model: CostModel) -> Metric {
        Metric::custom("energy", move |spec, out| model.energy_of(spec, out))
    }

    /// Branches folded by the ASBR unit (0 for baselines).
    #[must_use]
    pub fn folds() -> Metric {
        Metric::custom("folds", |_, out| out.folds() as f64)
    }

    /// The metric name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Evaluates the metric.
    #[must_use]
    pub fn value(&self, spec: &RunSpec, out: &RunOutcome) -> f64 {
        (self.f)(spec, out)
    }
}

/// Whether an objective prefers smaller or larger metric values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Smaller is better (cycles, area, energy).
    Minimize,
    /// Larger is better (folds, accuracy).
    Maximize,
}

/// An optimization objective: a [`Metric`] plus a [`Sense`].
#[derive(Debug, Clone)]
pub struct Objective {
    metric: Metric,
    sense: Sense,
}

impl Objective {
    /// Minimize the metric.
    #[must_use]
    pub fn minimize(metric: Metric) -> Objective {
        Objective { metric, sense: Sense::Minimize }
    }

    /// Maximize the metric.
    #[must_use]
    pub fn maximize(metric: Metric) -> Objective {
        Objective { metric, sense: Sense::Maximize }
    }

    /// The objective's display name (`cycles`, `area`, …).
    #[must_use]
    pub fn name(&self) -> &str {
        self.metric.name()
    }

    /// The raw metric value for a run.
    #[must_use]
    pub fn value(&self, spec: &RunSpec, out: &RunOutcome) -> f64 {
        self.metric.value(spec, out)
    }

    /// The value mapped so that *smaller is always better* — the
    /// canonical form dominance checks compare.
    #[must_use]
    pub fn canonical(&self, value: f64) -> f64 {
        match self.sense {
            Sense::Minimize => value,
            Sense::Maximize => -value,
        }
    }
}

/// A feasibility constraint: a [`Metric`] bounded above or below.
/// Violating points still cost an evaluation but are excluded from the
/// front.
#[derive(Debug, Clone)]
pub struct Constraint {
    metric: Metric,
    bound: f64,
    upper: bool,
}

impl Constraint {
    /// Requires `metric <= bound`.
    #[must_use]
    pub fn at_most(metric: Metric, bound: f64) -> Constraint {
        Constraint { metric, bound, upper: true }
    }

    /// Requires `metric >= bound`.
    #[must_use]
    pub fn at_least(metric: Metric, bound: f64) -> Constraint {
        Constraint { metric, bound, upper: false }
    }

    /// Human/JSON description (`"area <= 140000"`).
    #[must_use]
    pub fn describe(&self) -> String {
        let op = if self.upper { "<=" } else { ">=" };
        format!("{} {op} {}", self.metric.name(), self.bound)
    }

    /// Whether a run satisfies the constraint.
    #[must_use]
    pub fn satisfied(&self, spec: &RunSpec, out: &RunOutcome) -> bool {
        let v = self.metric.value(spec, out);
        if self.upper {
            v <= self.bound
        } else {
            v >= self.bound
        }
    }
}

/// Whether `a` Pareto-dominates `b` under *canonical* (minimized)
/// objective vectors: no worse everywhere and strictly better somewhere.
///
/// # Panics
///
/// Panics when the vectors disagree in length.
#[must_use]
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "objective arity mismatch");
    let mut strictly = false;
    for (&x, &y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

/// Indices of the non-dominated entries among canonical objective
/// vectors (ties — equal vectors — all survive).
#[must_use]
pub fn pareto_indices(points: &[Vec<f64>]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| !points.iter().enumerate().any(|(j, p)| j != i && dominates(p, &points[i])))
        .collect()
}

/// How [`Exploration::run`] walks the space: it always evaluates every
/// point, so this selects nothing. It stays only while the benchmark
/// package names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Evaluate every point.
    Exhaustive,
}

impl SearchStrategy {
    fn label(self) -> &'static str {
        match self {
            SearchStrategy::Exhaustive => "exhaustive",
        }
    }
}

/// One evaluated point of an exploration.
#[derive(Debug, Clone)]
pub struct ExplorePoint {
    /// Enumeration ordinal within the space.
    pub ordinal: u64,
    /// Per-axis indices.
    pub id: Vec<usize>,
    /// `axis=value` label.
    pub label: String,
    /// The spec the point denotes.
    pub spec: RunSpec,
    /// Raw objective values, in objective order.
    pub objectives: Vec<f64>,
    /// Whether every constraint held.
    pub feasible: bool,
    /// Whether the outcome came from the result cache (or batch dedup).
    pub cached: bool,
}

/// The result of an [`Exploration::run`]: the Pareto front plus the
/// bookkeeping the `PARETO_*.json` schema records.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Objective names, in evaluation order.
    pub objectives: Vec<String>,
    /// Constraint descriptions.
    pub constraints: Vec<String>,
    /// Search strategy label (always `exhaustive`).
    pub strategy: String,
    /// Total points in the space.
    pub space_size: u64,
    /// Every point of the space, in ordinal order.
    pub evaluated: Vec<ExplorePoint>,
    /// Indices into `evaluated` forming the Pareto front, sorted by the
    /// first objective (ties by ordinal).
    pub front: Vec<usize>,
    /// Feasible evaluated points dominated by some other point.
    pub dominated: usize,
    /// Evaluated points that violated a constraint.
    pub infeasible: usize,
    /// Evaluations served without a simulation of their own: from the
    /// result cache, by in-batch dedup, or from an equivalent machine
    /// (a spec of the same alias class with the same selected branches,
    /// baseline or ASBR, whose BIT, bimodal, BTB or cache size provably
    /// does not change the run; see `ExecutorStats::machine_hits`).
    pub cache_hits: usize,
    /// Host metadata.
    pub host: HostInfo,
    /// Wall-clock seconds for the whole exploration.
    pub wall_secs: f64,
}

impl ExploreReport {
    /// Number of points evaluated.
    #[must_use]
    pub fn evaluations(&self) -> usize {
        self.evaluated.len()
    }

    /// Fraction of evaluations served without simulating.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        if self.evaluated.is_empty() {
            0.0
        } else {
            self.cache_hits as f64 / self.evaluated.len() as f64
        }
    }

    /// The front points themselves.
    #[must_use]
    pub fn front_points(&self) -> Vec<&ExplorePoint> {
        self.front.iter().map(|&i| &self.evaluated[i]).collect()
    }

    /// Renders the front as an aligned text table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let label_w = self
            .front_points()
            .iter()
            .map(|p| p.label.len())
            .chain(["point".len()])
            .max()
            .unwrap_or(5);
        out.push_str(&format!("{:<label_w$}", "point"));
        for name in &self.objectives {
            out.push_str(&format!(" {name:>14}"));
        }
        out.push('\n');
        for p in self.front_points() {
            out.push_str(&format!("{:<label_w$}", p.label));
            for &v in &p.objectives {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    out.push_str(&format!(" {:>14}", v as i64));
                } else {
                    out.push_str(&format!(" {v:>14.2}"));
                }
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "{} front point(s) from {} evaluation(s) over a {}-point space \
             ({} dominated, {} infeasible, {:.0}% cache hits)\n",
            self.front.len(),
            self.evaluations(),
            self.space_size,
            self.dominated,
            self.infeasible,
            self.cache_hit_rate() * 100.0,
        ));
        out
    }
}

/// The `PARETO_*.json` document (schema [`PARETO_SCHEMA`]); a
/// non-finite objective value is `null`.
impl ToJson for ExploreReport {
    fn to_json(&self) -> Value {
        let front = self.front_points().into_iter().map(|p| {
            Value::obj([
                ("ordinal", p.ordinal.to_json()),
                ("id", p.id.to_json()),
                ("label", p.label.to_json()),
                ("objectives", p.objectives.to_json()),
                ("feasible", p.feasible.to_json()),
                ("spec", p.spec.to_json()),
            ])
        });
        Value::obj([
            ("schema", PARETO_SCHEMA.to_json()),
            ("strategy", self.strategy.to_json()),
            ("objectives", self.objectives.to_json()),
            ("constraints", self.constraints.to_json()),
            ("space_size", self.space_size.to_json()),
            ("evaluations", self.evaluations().to_json()),
            ("front_size", self.front.len().to_json()),
            ("dominated", self.dominated.to_json()),
            ("infeasible", self.infeasible.to_json()),
            ("cache_hits", self.cache_hits.to_json()),
            ("cache_hit_rate", self.cache_hit_rate().to_json()),
            ("wall_secs", self.wall_secs.to_json()),
            ("host", self.host.to_json()),
            ("front", Value::Arr(front.collect())),
        ])
    }
}

/// A complete exploration: space, objectives, constraints.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// The space to walk.
    pub space: DesignSpace,
    /// What to optimize (at least one required).
    pub objectives: Vec<Objective>,
    /// Feasibility bounds (may be empty).
    pub constraints: Vec<Constraint>,
    /// Always [`SearchStrategy::Exhaustive`].
    pub strategy: SearchStrategy,
}

impl Exploration {
    /// Runs the exploration on `executor` and extracts the Pareto front.
    ///
    /// Deterministic by construction: every point is evaluated in ordinal
    /// order as one batch, the executor returns outcomes in input order
    /// at any thread count, and dominance ties break by ordinal.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Spec`] for an empty space or no objectives, plus
    /// any error of the underlying runs.
    pub fn run(&self, executor: &Executor) -> Result<ExploreReport, HarnessError> {
        let started = Instant::now();
        if self.objectives.is_empty() {
            return Err(HarnessError::Spec("an exploration needs at least one objective".into()));
        }
        if self.space.is_empty() {
            return Err(HarnessError::Spec("the design space has no points".into()));
        }

        let ids: Vec<Vec<usize>> = (0..self.space.len()).map(|n| self.space.id_of(n)).collect();
        let specs: Vec<RunSpec> = ids.iter().map(|id| self.space.spec_at(id)).collect();
        let outcomes = executor.run(&specs)?;
        let evaluated: Vec<ExplorePoint> = (0..)
            .zip(ids)
            .zip(specs)
            .zip(outcomes)
            .map(|(((ordinal, id), spec), out)| ExplorePoint {
                ordinal,
                label: self.space.label_of(&id),
                objectives: self.objectives.iter().map(|o| o.value(&spec, &out)).collect(),
                feasible: self.constraints.iter().all(|c| c.satisfied(&spec, &out)),
                id,
                spec,
                cached: out.cached,
            })
            .collect();

        let front = self.front_of(&evaluated);
        let infeasible = evaluated.iter().filter(|p| !p.feasible).count();
        let cache_hits = evaluated.iter().filter(|p| p.cached).count();
        let dominated = evaluated.len() - infeasible - front.len();
        Ok(ExploreReport {
            objectives: self.objectives.iter().map(|o| o.name().to_owned()).collect(),
            constraints: self.constraints.iter().map(Constraint::describe).collect(),
            strategy: self.strategy.label().to_owned(),
            space_size: self.space.len(),
            evaluated,
            front,
            dominated,
            infeasible,
            cache_hits,
            host: HostInfo::gather(0, 1),
            wall_secs: started.elapsed().as_secs_f64(),
        })
    }

    /// Indices (into `evaluated`) of the feasible non-dominated points,
    /// sorted by first objective, ties by ordinal.
    fn front_of(&self, evaluated: &[ExplorePoint]) -> Vec<usize> {
        let feasible: Vec<usize> =
            (0..evaluated.len()).filter(|&i| evaluated[i].feasible).collect();
        let canon: Vec<Vec<f64>> = feasible
            .iter()
            .map(|&i| {
                self.objectives
                    .iter()
                    .zip(&evaluated[i].objectives)
                    .map(|(o, &v)| o.canonical(v))
                    .collect()
            })
            .collect();
        let mut front: Vec<usize> =
            pareto_indices(&canon).into_iter().map(|k| feasible[k]).collect();
        front.sort_by(|&a, &b| {
            let (pa, pb) = (&evaluated[a], &evaluated[b]);
            pa.objectives
                .first()
                .copied()
                .unwrap_or(0.0)
                .total_cmp(&pb.objectives.first().copied().unwrap_or(0.0))
                .then(pa.ordinal.cmp(&pb.ordinal))
        });
        // Distinct ids can denote equal specs (an ASBR-only axis applied
        // to a baseline template); keep one representative per spec so
        // the front never lists the same configuration twice.
        let mut seen: Vec<RunSpec> = Vec::new();
        front.retain(|&i| {
            if seen.contains(&evaluated[i].spec) {
                false
            } else {
                seen.push(evaluated[i].spec);
                true
            }
        });
        front
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_radix_round_trips() {
        let space = DesignSpace::new(RunSpec::baseline(
            Workload::AdpcmEncode,
            PredictorKind::NotTaken,
            10,
        ))
        .axis(Axis::btb_entries([64, 512, 2048]))
        .axis(Axis::cache_bytes([4096, 8192]));
        assert_eq!(space.len(), 6);
        // Last axis varies fastest.
        assert_eq!(space.id_of(0), vec![0, 0]);
        assert_eq!(space.id_of(1), vec![0, 1]);
        assert_eq!(space.id_of(2), vec![1, 0]);
    }

    #[test]
    fn axes_apply_in_order_and_asbr_axes_force_the_arm() {
        let base =
            RunSpec::baseline(Workload::AdpcmEncode, PredictorKind::NotTaken, 10);
        let space = DesignSpace::new(base).axis(Axis::bit_entries([4, 32]));
        let spec = space.spec_at(&[1]);
        let knobs = spec.asbr.expect("BIT axis turns the spec into an ASBR run");
        assert_eq!(knobs.bit_entries, 32);
    }

    #[test]
    fn dominance_is_strict() {
        assert!(dominates(&[1.0, 2.0], &[2.0, 2.0]));
        assert!(!dominates(&[2.0, 2.0], &[1.0, 2.0]));
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0]), "equal vectors never dominate");
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0]), "trade-offs are incomparable");
    }

    #[test]
    fn pareto_front_keeps_ties_and_drops_dominated() {
        let pts = vec![
            vec![1.0, 4.0], // front
            vec![2.0, 3.0], // front
            vec![2.0, 4.0], // dominated by both
            vec![1.0, 4.0], // tie with 0: kept
            vec![4.0, 1.0], // front
        ];
        assert_eq!(pareto_indices(&pts), vec![0, 1, 3, 4]);
    }
}
