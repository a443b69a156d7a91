//! The `RunSpec` experiment API: one value fully describing one run.
//!
//! Every experiment in the reproduction — the Figure 6/11 tables, the
//! ablations, the cost studies — is some configuration of the same
//! underlying machine: a workload, an input scale, a branch predictor,
//! optional ASBR customization, and shared microarchitectural tweaks.
//! [`RunSpec`] captures exactly that tuple; [`RunOutcome`] is the single
//! typed result every consumer reads. Sweeps build many specs with a
//! [`crate::DesignSpace`] and execute them with [`crate::Executor`];
//! a spec's [`ToJson`] form is what each `PARETO_*.json` front point
//! records.

use std::num::NonZeroU32;
use std::sync::Arc;
use std::time::Instant;

use asbr_asm::Program;
use asbr_bpred::{alias_class, PredictorKind};
use asbr_core::{AsbrConfig, AsbrStats, AsbrUnit};
use asbr_flow::schedule::hoist_predicates;
use asbr_isa::Instr;
use asbr_profile::{select_branches, ProfileReport, SelectionConfig};
use asbr_sim::{Pipeline, PipelineConfig, PipelineSummary, PublishPoint, SimHooks};
use asbr_workloads::Workload;

use crate::error::HarnessError;
use crate::json::{ToJson, Value};
use crate::prefix::Prefix;

/// Baseline branch-target-buffer entries (paper Sec. 8).
pub const BASELINE_BTB: usize = 2048;
/// Auxiliary-predictor BTB: "reduced to a quarter of its size" (Sec. 8).
pub const AUX_BTB: usize = 512;
/// Input size for smoke tests (CI-fast).
pub const SAMPLES_SMOKE: usize = 400;
/// Input size for the full table regeneration.
pub const SAMPLES_FULL: usize = 24_000;

/// The predictor the paper profiles candidates against (Sec. 8: ranked
/// against the baseline bimodal).
pub const PROFILE_PREDICTOR: PredictorKind = PredictorKind::Bimodal { entries: 2048 };

/// Microarchitectural tweaks applied identically to baseline and ASBR
/// runs (ablations F/G/J).
///
/// The multiply/divide latencies are [`NonZeroU32`]: a latency of 1 *is*
/// the single-cycle configuration, and zero — which older revisions
/// silently clamped to 1, aliasing two sweep settings to one behaviour —
/// is unrepresentable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MicroTweaks {
    /// EX occupancy of a multiply in cycles (1 → fully pipelined
    /// single-cycle multiplier, the paper's configuration).
    pub mul_latency: NonZeroU32,
    /// EX occupancy of a divide/remainder in cycles.
    pub div_latency: NonZeroU32,
    /// Return-address-stack entries (0 → none, the paper's baseline).
    pub ras_entries: usize,
    /// Cache capacity in bytes for both I and D caches (0 → the paper's
    /// 8 KB default).
    pub cache_bytes: u32,
}

impl Default for MicroTweaks {
    fn default() -> MicroTweaks {
        MicroTweaks {
            mul_latency: NonZeroU32::MIN,
            div_latency: NonZeroU32::MIN,
            ras_entries: 0,
            cache_bytes: 0,
        }
    }
}

impl MicroTweaks {
    /// Tweaks with the given multiply/divide EX occupancies and all other
    /// knobs at their defaults.
    ///
    /// # Panics
    ///
    /// Panics if either latency is zero — there is no "faster than
    /// single-cycle" configuration to mean.
    #[must_use]
    pub const fn muldiv(mul: u32, div: u32) -> MicroTweaks {
        let (Some(mul_latency), Some(div_latency)) =
            (NonZeroU32::new(mul), NonZeroU32::new(div))
        else {
            panic!("mul/div latency must be >= 1 cycle");
        };
        MicroTweaks { mul_latency, div_latency, ras_entries: 0, cache_bytes: 0 }
    }

    /// Applies the tweaks to a pipeline configuration.
    #[must_use]
    pub fn apply(&self, mut cfg: PipelineConfig) -> PipelineConfig {
        cfg.mul_latency = self.mul_latency.get();
        cfg.div_latency = self.div_latency.get();
        cfg.ras_entries = self.ras_entries;
        if self.cache_bytes > 0 {
            cfg.mem.icache.size_bytes = self.cache_bytes;
            cfg.mem.dcache.size_bytes = self.cache_bytes;
        }
        cfg
    }
}

/// ASBR customization knobs of a [`RunSpec`]. `None` in the spec means a
/// plain baseline pipeline with no fetch customization at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AsbrSpec {
    /// Publish point (threshold) of the early condition evaluation.
    pub publish: PublishPoint,
    /// Branch Identification Table capacity.
    pub bit_entries: usize,
    /// Apply the Sec. 5.1 predicate-hoisting scheduler before profiling
    /// and running. Off by default: the guest sources are already
    /// hand-scheduled exactly as the paper's Sec. 8 describes ("A manual
    /// scheduling in the application code is performed"), and re-running
    /// the automatic pass on top adds nothing (see ablation C).
    pub hoist: bool,
}

impl Default for AsbrSpec {
    fn default() -> AsbrSpec {
        AsbrSpec { publish: PublishPoint::Mem, bit_entries: 16, hoist: false }
    }
}

/// A complete, self-contained description of one simulated run.
///
/// Two specs that compare equal produce byte-identical [`RunOutcome`]s
/// (up to wall-clock timing); the content-addressed cache key is derived
/// from the spec plus the program and input bytes it resolves to.
///
/// # Examples
///
/// ```
/// use asbr_bpred::PredictorKind;
/// use asbr_harness::RunSpec;
/// use asbr_workloads::Workload;
///
/// let spec = RunSpec::baseline(Workload::AdpcmEncode, PredictorKind::NotTaken, 60);
/// let out = spec.execute()?;
/// assert!(out.summary.halted);
/// assert!(out.asbr.is_none());
/// # Ok::<(), asbr_harness::HarnessError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunSpec {
    /// The benchmark program.
    pub workload: Workload,
    /// Input samples fed to the guest.
    pub samples: usize,
    /// Direction predictor: the baseline predictor, or the auxiliary
    /// predictor backing up the ASBR unit when `asbr` is set.
    pub predictor: PredictorKind,
    /// Branch-target-buffer entries.
    pub btb_entries: usize,
    /// Microarchitectural tweaks shared by baseline and ASBR runs.
    pub tweaks: MicroTweaks,
    /// ASBR customization; `None` runs the uncustomized baseline.
    pub asbr: Option<AsbrSpec>,
}

impl RunSpec {
    /// A baseline run: full-size BTB, no fetch customization.
    #[must_use]
    pub fn baseline(workload: Workload, predictor: PredictorKind, samples: usize) -> RunSpec {
        RunSpec {
            workload,
            samples,
            predictor,
            btb_entries: BASELINE_BTB,
            tweaks: MicroTweaks::default(),
            asbr: None,
        }
    }

    /// An ASBR-customized run with auxiliary predictor `aux` and the
    /// paper's quarter-size BTB.
    #[must_use]
    pub fn asbr(workload: Workload, aux: PredictorKind, samples: usize) -> RunSpec {
        RunSpec {
            workload,
            samples,
            predictor: aux,
            btb_entries: AUX_BTB,
            tweaks: MicroTweaks::default(),
            asbr: Some(AsbrSpec::default()),
        }
    }

    /// Replaces the microarchitectural tweaks.
    #[must_use]
    pub fn with_tweaks(mut self, tweaks: MicroTweaks) -> RunSpec {
        self.tweaks = tweaks;
        self
    }

    /// Replaces the BTB capacity.
    #[must_use]
    pub fn with_btb(mut self, btb_entries: usize) -> RunSpec {
        self.btb_entries = btb_entries;
        self
    }

    /// Replaces the ASBR knobs (keeps the spec an ASBR run).
    #[must_use]
    pub fn with_asbr(mut self, asbr: AsbrSpec) -> RunSpec {
        self.asbr = Some(asbr);
        self
    }

    /// Whether the Sec. 5.1 hoisting scheduler runs before this spec.
    #[must_use]
    pub fn hoist(&self) -> bool {
        self.asbr.is_some_and(|a| a.hoist)
    }

    /// The program this spec executes (hoisted when the spec says so).
    #[must_use]
    pub fn program(&self) -> Program {
        let base = self.workload.program();
        if self.hoist() {
            hoist_predicates(&base).0
        } else {
            base
        }
    }

    /// A short human label (`"ADPCM Encode/bi-512/asbr"`), used in
    /// `BENCH_sweep.json` and progress output.
    #[must_use]
    pub fn label(&self) -> String {
        let mode = if self.asbr.is_some() { "asbr" } else { "baseline" };
        format!("{}/{}/{}", self.workload.name(), self.predictor.label(), mode)
    }

    /// Executes the spec directly: assemble, (profile + select for ASBR
    /// specs), run, time. This is the single-run path; sweeps should
    /// prefer [`crate::Executor`], which memoizes the shared prefix
    /// across specs and consults the on-disk cache. The outcome carries
    /// the prefix it built ([`RunOutcome::prefix`]).
    ///
    /// # Errors
    ///
    /// Returns a [`HarnessError`]: any simulator error from profiling or
    /// the timed run, or a failed ASBR unit construction.
    pub fn execute(&self) -> Result<RunOutcome, HarnessError> {
        let prefix = Arc::new(Prefix::of(self));
        let (mut outcome, _) = prefix.resolve(self)?.run(&prefix.program, &prefix.input)?;
        outcome.prefix = Some(prefix);
        Ok(outcome)
    }

    /// The alias class of the spec on a program whose static conditional
    /// branches sit at `branch_pcs`: the spec with BIT capacity and cache
    /// size cleared and the bimodal and BTB sizes mapped to the smallest
    /// ones that slot those branches identically ([`alias_class`]); the
    /// BTB is dropped when the predictor never reads it. Specs of one
    /// class, with the same selected branches, produce the same outcome
    /// whenever [`Machine::served_by`] holds. Other predictors are kept as
    /// they are.
    pub(crate) fn class(&self, branch_pcs: &[u32]) -> RunSpec {
        let mut spec = *self;
        if let Some(knobs) = &mut spec.asbr {
            knobs.bit_entries = 0;
        }
        spec.tweaks.cache_bytes = 0;
        if let PredictorKind::Bimodal { entries } = &mut spec.predictor {
            *entries = alias_class(*entries, branch_pcs);
        }
        spec.btb_entries = if spec.predictor.reads_btb() {
            alias_class(spec.btb_entries, branch_pcs)
        } else {
            0
        };
        spec
    }

    /// Resolves the spec to the machine it builds: for ASBR specs, runs
    /// branch selection against `report` (which must come from profiling
    /// `program` with [`PROFILE_PREDICTOR`]; `None` for baselines).
    /// `branch_pcs` are the program's static conditional-branch PCs
    /// ([`branch_pcs`]), which fix the machine's class.
    ///
    /// # Panics
    ///
    /// Panics if an ASBR spec is given no profile report.
    pub(crate) fn resolve(
        &self,
        program: &Program,
        report: Option<&ProfileReport>,
        branch_pcs: &[u32],
    ) -> Machine {
        let selected = match self.asbr {
            None => Vec::new(),
            Some(knobs) => select_branches(
                report.expect("ASBR specs need the profiled prefix"),
                program,
                &SelectionConfig {
                    bit_entries: knobs.bit_entries,
                    threshold: knobs.publish.threshold(),
                    ..SelectionConfig::default()
                },
            ),
        };
        let mut spec = *self;
        if let Some(knobs) = &mut spec.asbr {
            knobs.bit_entries = 0;
        }
        Machine { class: self.class(branch_pcs), spec, selected }
    }
}

/// The static conditional-branch PCs of `program`'s text: the only PCs at
/// which a run whose branches all come from the loaded text reads or
/// writes the direction predictor and the BTB.
pub(crate) fn branch_pcs(program: &Program) -> Vec<u32> {
    let base = program.text_base();
    (0u32..)
        .zip(program.text())
        .filter(|&(_, &word)| Instr::decode(word).is_ok_and(|i| i.branch().is_some()))
        .map(|(i, _)| base.wrapping_add(4 * i))
        .collect()
}

/// A spec resolved to the machine it actually builds: the spec with the
/// BIT capacity cleared, plus the branch PCs selection installs, and the
/// alias class those belong to.
///
/// BIT capacity enters a simulation only through the capacity check of
/// the BIT install, and the selection already satisfies it. Bimodal
/// counters and BTB entries are read and written only at conditional
/// branches, so sizes that slot the program's branches identically run
/// identically while every branch comes from the loaded text. A run whose
/// caches never evicted missed only on the first touch of each line, and
/// so does a run of any cache geometry that holds those lines. Machines
/// with the same class and selection therefore produce the same
/// [`RunOutcome`] whenever [`Machine::served_by`] holds, and the executor
/// simulates each class once.
#[derive(Debug, Clone)]
pub(crate) struct Machine {
    /// The spec with `bit_entries` cleared (the spec itself for
    /// baselines): what [`Machine::run`] simulates.
    pub(crate) spec: RunSpec,
    /// The alias class of the spec ([`RunSpec::class`]).
    pub(crate) class: RunSpec,
    /// Branch PCs installed in the BIT, best first (empty for baselines).
    pub(crate) selected: Vec<u32>,
}

/// What a finished run shows about the other machines of its class.
#[derive(Debug, Clone, Default)]
pub(crate) struct Witness {
    /// Every branch came from the loaded text
    /// ([`Pipeline::branches_only_from_loaded_text`]).
    pub(crate) text_branches: bool,
    /// The I- and D-cache lines the run touched, if neither cache ever
    /// evicted ([`asbr_mem::Cache::footprint`]).
    pub(crate) footprints: Option<[Vec<u32>; 2]>,
}

impl Witness {
    fn of<H: SimHooks>(pipe: &Pipeline<H>) -> Witness {
        let mem = pipe.mem();
        Witness {
            text_branches: pipe.branches_only_from_loaded_text(),
            footprints: mem.icache().footprint().zip(mem.dcache().footprint()).map(Into::into),
        }
    }
}

impl Machine {
    /// The keys the executor shares runs under, coarsest first: the
    /// class, the class at this machine's own cache size, and the
    /// machine's own spec. A finished run under a key serves this machine
    /// if [`Machine::served_by`] holds; otherwise the machine tries the
    /// next key. Under the last key it always does.
    pub(crate) fn keys(&self) -> [RunSpec; 3] {
        let mut sized = self.class;
        sized.tweaks.cache_bytes = self.spec.tweaks.cache_bytes;
        [self.class, sized, self.spec]
    }

    /// Whether a run of `ran`, the spec of a machine with this machine's
    /// class and selection, gives this machine's exact outcome. Its caches
    /// must have this machine's geometry, or have never evicted and have
    /// touched lines this machine's caches hold. Its predictor and BTB
    /// must match this machine's, or every branch of the run must have
    /// come from the loaded text.
    pub(crate) fn served_by(&self, ran: &RunSpec, witness: &Witness) -> bool {
        let geometry = |spec: &RunSpec| {
            let mem = spec.tweaks.apply(PipelineConfig::default()).mem;
            [mem.icache, mem.dcache]
        };
        let mine = geometry(&self.spec);
        // `cache_bytes` sets only the capacity: line size, associativity
        // and miss penalty are the same in both runs.
        let caches = mine == geometry(ran)
            || witness.footprints.as_ref().is_some_and(|lines| {
                mine.iter().zip(lines).all(|(cache, lines)| cache.holds(lines))
            });
        let mut resized = *ran;
        resized.tweaks.cache_bytes = self.spec.tweaks.cache_bytes;
        caches && (witness.text_branches || self.spec == resized)
    }

    /// Simulates the machine on `program` and `input`, returning the
    /// outcome and its [`Witness`].
    ///
    /// # Errors
    ///
    /// Any simulator error from the run, or [`HarnessError::Unit`] when
    /// the selected branches cannot build BIT entries.
    pub(crate) fn run(
        &self,
        program: &Program,
        input: &[i32],
    ) -> Result<(RunOutcome, Witness), HarnessError> {
        let started = Instant::now();
        let spec = &self.spec;
        let cfg = spec
            .tweaks
            .apply(PipelineConfig { btb_entries: spec.btb_entries, ..PipelineConfig::default() });
        let (summary, asbr, witness) = match self.unit(program)? {
            None => {
                let mut pipe = Pipeline::new(cfg, spec.predictor.build());
                let summary = pipe.execute(program, input.iter().copied())?;
                (summary, None, Witness::of(&pipe))
            }
            Some(unit) => {
                let mut pipe = Pipeline::with_hooks(cfg, spec.predictor.build(), unit);
                let summary = pipe.execute(program, input.iter().copied())?;
                let witness = Witness::of(&pipe);
                (summary, Some(pipe.into_hooks().stats()), witness)
            }
        };
        let outcome = RunOutcome {
            summary,
            asbr,
            selected: self.selected.clone(),
            static_bound: None,
            wall_nanos: nanos_since(started),
            cached: false,
            prefix: None,
        };
        Ok((outcome, witness))
    }

    /// A fresh ASBR unit with the selected branches installed (`None`
    /// for baselines). The BIT is sized to the selection, the smallest
    /// capacity its install check accepts.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Unit`] when a selected branch cannot build a BIT
    /// entry.
    pub(crate) fn unit(&self, program: &Program) -> Result<Option<AsbrUnit>, HarnessError> {
        let Some(knobs) = self.spec.asbr else {
            return Ok(None);
        };
        AsbrUnit::for_branches(
            AsbrConfig {
                bit_entries: self.selected.len(),
                publish: knobs.publish,
                ..AsbrConfig::default()
            },
            program,
            &self.selected,
        )
        .map(Some)
        .map_err(HarnessError::Unit)
    }
}

fn nanos_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The single typed result of any run, baseline or ASBR.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Pipeline counters and guest output.
    pub summary: PipelineSummary,
    /// Fold statistics from the ASBR unit (`None` for baseline runs).
    pub asbr: Option<AsbrStats>,
    /// Branch PCs installed in the BIT, best first (empty for baselines).
    pub selected: Vec<u32>,
    /// Static worst-case cycle bound from the `asbr-check` WCET analyzer
    /// (see [`crate::wcet`]), attached after the run by the cross-check
    /// and persisted through the result cache. `None` until computed.
    pub static_bound: Option<u64>,
    /// Wall-clock nanoseconds of the simulation that produced this
    /// outcome. 0 for an outcome loaded from the on-disk cache, an
    /// in-batch duplicate and an outcome served by an equivalent
    /// machine's run, which take no simulation of their own.
    pub wall_nanos: u64,
    /// Whether the outcome was served from the result cache (or deduped
    /// against an identical spec in the same sweep).
    pub cached: bool,
    /// The shared prefix the spec runs on: its program, input and lazily
    /// built profile report. [`RunSpec::execute`] and every
    /// [`crate::Executor`] outcome (simulated, shared, duplicated or
    /// loaded from disk) carry one, so [`crate::wcet::cross_check`] needs
    /// no functional pass of its own. It is provenance, not a result:
    /// equality, [`RunOutcome::same_result`] and the cache entry ignore
    /// it.
    pub prefix: Option<Arc<Prefix>>,
}

impl PartialEq for RunOutcome {
    /// Equality of every field but [`RunOutcome::prefix`].
    fn eq(&self, other: &RunOutcome) -> bool {
        let RunOutcome { summary, asbr, selected, static_bound, wall_nanos, cached, prefix: _ } =
            self;
        *summary == other.summary
            && *asbr == other.asbr
            && *selected == other.selected
            && *static_bound == other.static_bound
            && *wall_nanos == other.wall_nanos
            && *cached == other.cached
    }
}

impl RunOutcome {
    /// Simulated machine cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.summary.stats.cycles
    }

    /// Total branches folded (0 for baseline runs).
    #[must_use]
    pub fn folds(&self) -> u64 {
        self.asbr.map_or(0, |a| a.folds())
    }

    /// Fractional cycle improvement of `self` over `baseline`.
    #[must_use]
    pub fn improvement_over(&self, baseline: &RunOutcome) -> f64 {
        1.0 - self.cycles() as f64 / baseline.cycles() as f64
    }

    /// Equality on everything the simulation determines — summary, fold
    /// stats, selected PCs — ignoring wall-clock, cache provenance, and
    /// the static cycle bound (analysis metadata attached after the run,
    /// not a property of the simulation itself).
    #[must_use]
    pub fn same_result(&self, other: &RunOutcome) -> bool {
        self.summary.stats == other.summary.stats
            && self.summary.output == other.summary.output
            && self.summary.halted == other.summary.halted
            && self.asbr == other.asbr
            && self.selected == other.selected
    }
}

/// A spec as each point of a `PARETO_*.json` front records it: workload
/// slug, samples, predictor, BTB, tweaks, and the ASBR knobs (`false` for
/// a baseline).
impl ToJson for RunSpec {
    fn to_json(&self) -> Value {
        let RunSpec { workload, samples, predictor, btb_entries, tweaks, asbr } = self;
        Value::obj([
            ("workload", workload.slug().to_json()),
            ("samples", samples.to_json()),
            ("predictor", predictor.to_json()),
            ("btb_entries", btb_entries.to_json()),
            ("tweaks", tweaks.to_json()),
            ("asbr", asbr.map_or(Value::Bool(false), |a| a.to_json())),
        ])
    }
}

/// The predictor's `kind` and its sizes.
impl ToJson for PredictorKind {
    fn to_json(&self) -> Value {
        let kind = |name: &str| ("kind", name.to_json());
        match *self {
            PredictorKind::NotTaken => Value::obj([kind("not-taken")]),
            PredictorKind::Taken => Value::obj([kind("taken")]),
            PredictorKind::Bimodal { entries } => {
                Value::obj([kind("bimodal"), ("entries", entries.to_json())])
            }
            PredictorKind::Gshare { hist_bits, entries } => Value::obj([
                kind("gshare"),
                ("hist_bits", hist_bits.to_json()),
                ("entries", entries.to_json()),
            ]),
            PredictorKind::Tournament { hist_bits, entries } => Value::obj([
                kind("tournament"),
                ("hist_bits", hist_bits.to_json()),
                ("entries", entries.to_json()),
            ]),
            PredictorKind::Local { hist_bits, bht_entries, pht_entries } => Value::obj([
                kind("local"),
                ("hist_bits", hist_bits.to_json()),
                ("bht_entries", bht_entries.to_json()),
                ("pht_entries", pht_entries.to_json()),
            ]),
        }
    }
}

crate::impl_to_json!(MicroTweaks { mul_latency, div_latency, ras_entries, cache_bytes });

crate::impl_to_json!(AsbrSpec { publish, bit_entries, hoist });

impl ToJson for PublishPoint {
    fn to_json(&self) -> Value {
        let name = match self {
            PublishPoint::Execute => "execute",
            PublishPoint::Mem => "mem",
            PublishPoint::Commit => "commit",
        };
        name.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_spec_runs() {
        let out = RunSpec::baseline(Workload::AdpcmEncode, PredictorKind::NotTaken, 60)
            .execute()
            .unwrap();
        assert!(out.summary.halted);
        assert!(out.summary.stats.retired > 1000);
        assert!(out.asbr.is_none());
        assert!(out.selected.is_empty());
    }

    #[test]
    fn asbr_spec_folds_and_matches_reference() {
        let w = Workload::AdpcmEncode;
        let out = RunSpec::asbr(w, PredictorKind::NotTaken, 60).execute().unwrap();
        assert!(!out.selected.is_empty());
        assert!(out.folds() > 0, "{:?}", out.asbr);
        assert_eq!(out.summary.output, w.reference_output(&w.input(60)));
    }

    /// The predictor a spec's JSON predictor object names.
    fn predictor_of(v: &crate::json::Value) -> PredictorKind {
        let field = |key: &str| v.get(key).and_then(crate::json::Value::as_u64).unwrap();
        let (entries, hist_bits) = (|| field("entries") as usize, || field("hist_bits") as u32);
        match v.get("kind").and_then(crate::json::Value::as_str).unwrap() {
            "not-taken" => PredictorKind::NotTaken,
            "taken" => PredictorKind::Taken,
            "bimodal" => PredictorKind::Bimodal { entries: entries() },
            "gshare" => PredictorKind::Gshare { hist_bits: hist_bits(), entries: entries() },
            "tournament" => {
                PredictorKind::Tournament { hist_bits: hist_bits(), entries: entries() }
            }
            "local" => PredictorKind::Local {
                hist_bits: hist_bits(),
                bht_entries: field("bht_entries") as usize,
                pht_entries: field("pht_entries") as usize,
            },
            other => panic!("unknown predictor kind {other}"),
        }
    }

    #[test]
    fn spec_json_records_every_field() {
        let tweaks =
            MicroTweaks { ras_entries: 4, cache_bytes: 4096, ..MicroTweaks::muldiv(3, 17) };
        let baselines = [
            PredictorKind::NotTaken,
            PredictorKind::Taken,
            PredictorKind::Bimodal { entries: 512 },
            PredictorKind::Gshare { hist_bits: 8, entries: 256 },
            PredictorKind::Tournament { hist_bits: 11, entries: 2048 },
            PredictorKind::Local { hist_bits: 10, bht_entries: 1024, pht_entries: 4096 },
        ]
        .map(|kind| RunSpec::baseline(Workload::G721Decode, kind, 123).with_btb(64));
        let knobs = [
            (PublishPoint::Execute, 4, false),
            (PublishPoint::Mem, 8, true),
            (PublishPoint::Commit, 16, false),
        ];
        let asbr = knobs.map(|(publish, bit_entries, hoist)| {
            RunSpec::asbr(Workload::AdpcmEncode, PredictorKind::Bimodal { entries: 256 }, 400)
                .with_asbr(AsbrSpec { publish, bit_entries, hoist })
                .with_tweaks(tweaks)
        });
        for spec in baselines.iter().chain(&asbr) {
            let text = spec.to_json().pretty();
            let v = crate::json::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let num = |obj: &crate::json::Value, key: &str| {
                obj.get(key).and_then(crate::json::Value::as_u64).unwrap()
            };
            assert_eq!(v.get("workload").and_then(|w| w.as_str()), Some(spec.workload.slug()));
            assert_eq!(num(&v, "samples"), spec.samples as u64);
            assert_eq!(predictor_of(v.get("predictor").unwrap()), spec.predictor, "{text}");
            assert_eq!(num(&v, "btb_entries"), spec.btb_entries as u64);
            let t = v.get("tweaks").unwrap();
            assert_eq!(num(t, "mul_latency"), u64::from(spec.tweaks.mul_latency.get()));
            assert_eq!(num(t, "div_latency"), u64::from(spec.tweaks.div_latency.get()));
            assert_eq!(num(t, "ras_entries"), spec.tweaks.ras_entries as u64);
            assert_eq!(num(t, "cache_bytes"), u64::from(spec.tweaks.cache_bytes));
            let a = v.get("asbr").unwrap();
            match spec.asbr {
                None => assert_eq!(a.as_bool(), Some(false), "{text}"),
                Some(knobs) => {
                    let publish = match knobs.publish {
                        PublishPoint::Execute => "execute",
                        PublishPoint::Mem => "mem",
                        PublishPoint::Commit => "commit",
                    };
                    assert_eq!(a.get("publish").and_then(|p| p.as_str()), Some(publish));
                    assert_eq!(num(a, "bit_entries"), knobs.bit_entries as u64);
                    assert_eq!(a.get("hoist").and_then(|h| h.as_bool()), Some(knobs.hoist));
                }
            }
        }
    }

    /// Resolves and runs `spec` as the executor does.
    fn run_machine(spec: &RunSpec) -> (Machine, RunOutcome, Witness) {
        let prefix = Prefix::of(spec);
        let machine = prefix.resolve(spec).unwrap();
        let (outcome, witness) = machine.run(&prefix.program, &prefix.input).unwrap();
        (machine, outcome, witness)
    }

    #[test]
    fn every_codec_branches_only_in_its_loaded_text() {
        for w in Workload::ALL {
            for spec in [
                RunSpec::baseline(w, PredictorKind::Bimodal { entries: 2048 }, 60),
                RunSpec::asbr(w, PredictorKind::Bimodal { entries: 512 }, 60),
            ] {
                let (machine, outcome, witness) = run_machine(&spec);
                assert!(witness.text_branches, "{}", spec.label());
                assert_eq!(outcome.summary.output, w.reference_output(&w.input(60)));
                assert_eq!(machine.selected.is_empty(), spec.asbr.is_none());
            }
        }
    }

    #[test]
    fn class_maps_only_bimodal_and_btb_sizes() {
        let w = Workload::AdpcmEncode;
        let pcs = branch_pcs(&w.program());
        let class = |spec: RunSpec| spec.class(&pcs);
        let bi = |entries| RunSpec::asbr(w, PredictorKind::Bimodal { entries }, 60);
        assert_eq!(class(bi(64)), class(bi(2048).with_btb(64)));
        assert_eq!(class(bi(64)).asbr.unwrap().bit_entries, 0);
        let gshare =
            |entries| RunSpec::baseline(w, PredictorKind::Gshare { hist_bits: 8, entries }, 60);
        assert_ne!(class(gshare(256)), class(gshare(2048)));
        assert_eq!(class(gshare(256)), class(gshare(256).with_btb(64)));
        let not_taken = RunSpec::baseline(w, PredictorKind::NotTaken, 60);
        assert_eq!(class(not_taken).btb_entries, 0);
        assert_eq!(class(not_taken.with_btb(0)), class(not_taken));
    }

    #[test]
    fn an_equivalent_run_serves_only_if_its_branches_came_from_text_or_it_ran_the_same_spec() {
        let w = Workload::AdpcmEncode;
        let program = w.program();
        let pcs = branch_pcs(&program);
        let machine = |entries| {
            RunSpec::baseline(w, PredictorKind::Bimodal { entries }, 60)
                .resolve(&program, None, &pcs)
        };
        let (small, big) = (machine(64), machine(2048));
        assert_eq!((&small.class, &small.selected), (&big.class, &big.selected));
        let text = Witness { text_branches: true, footprints: None };
        let outside = Witness::default();
        assert!(big.served_by(&small.spec, &text));
        assert!(
            !big.served_by(&small.spec, &outside),
            "a branch from outside the text: simulate own spec"
        );
        assert!(big.served_by(&big.spec, &outside), "the same spec is always served");
    }

    #[test]
    fn a_cache_size_is_served_only_by_a_run_whose_footprint_it_holds() {
        let w = Workload::AdpcmEncode;
        let program = w.program();
        let pcs = branch_pcs(&program);
        let sized = |cache_bytes| {
            RunSpec::baseline(w, PredictorKind::NotTaken, 60)
                .with_tweaks(MicroTweaks { cache_bytes, ..MicroTweaks::default() })
                .resolve(&program, None, &pcs)
        };
        let (small, default, big) = (sized(128), sized(0), sized(8192));
        assert_eq!(small.class, big.class, "the class drops the cache size");
        assert_ne!(small.keys()[1], big.keys()[1]);
        let evicted = Witness { text_branches: true, footprints: None };
        // 0 is the 8 KB default: equal geometries always match.
        assert!(default.served_by(&big.spec, &evicted));
        assert!(!small.served_by(&big.spec, &evicted));
        // Lines 0..=3 of 32 bytes fill a 128-byte, 2-set 2-way cache;
        // lines 0, 2 and 4 overflow its set 0.
        let fits = Witness { text_branches: true, footprints: Some([vec![0, 1], vec![2, 3]]) };
        let overflows = Witness { text_branches: true, footprints: Some([vec![0, 2, 4], vec![]]) };
        assert!(small.served_by(&big.spec, &fits));
        assert!(!small.served_by(&big.spec, &overflows));
        assert!(big.served_by(&small.spec, &overflows), "8 KB holds lines 0, 2 and 4");
        // The footprint covers the caches; the predictor still needs the
        // text witness.
        let fits_outside = Witness { text_branches: false, ..fits.clone() };
        assert!(small.served_by(&big.spec, &fits_outside), "same predictor and BTB");
        let bimodal = RunSpec::baseline(w, PredictorKind::Bimodal { entries: 64 }, 60);
        let other = bimodal.with_btb(64).resolve(&program, None, &pcs);
        let mine = bimodal
            .with_tweaks(MicroTweaks { cache_bytes: 128, ..MicroTweaks::default() })
            .resolve(&program, None, &pcs);
        assert!(mine.served_by(&other.spec, &fits));
        assert!(!mine.served_by(&other.spec, &fits_outside));
    }

    #[test]
    fn muldiv_zero_is_unrepresentable() {
        // The old API clamped 0 to 1, aliasing two sweep settings; the
        // constructor now rejects it and the type cannot hold it.
        assert_eq!(MicroTweaks::muldiv(1, 1), MicroTweaks::default());
        let t = MicroTweaks::muldiv(4, 16);
        let cfg = t.apply(PipelineConfig::default());
        assert_eq!((cfg.mul_latency, cfg.div_latency), (4, 16));
    }

    #[test]
    #[should_panic(expected = "latency")]
    fn muldiv_rejects_zero() {
        let _ = MicroTweaks::muldiv(0, 1);
    }
}
