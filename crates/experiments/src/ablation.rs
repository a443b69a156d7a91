//! Ablations over the design choices the paper calls out, plus
//! microarchitectural extensions (see DESIGN.md's experiment index):
//!
//! * **A — BIT size** (Sec. 7: "a small number of BIT entries would
//!   suffice")
//! * **B — publish point / threshold** (Sec. 5.2's forwarding variants)
//! * **C — compiler scheduling** (Sec. 5.1)
//! * **D — auxiliary predictor size** (Sec. 6: folding hard branches lets
//!   a much smaller predictor match the big baseline)
//! * **E — BIT banks** (Sec. 7's virtually-enlarged BIT via switching)
//! * **F — multiply/divide EX latency**
//! * **G — return-address stack**
//! * **H — static (profile-free) vs profiled BIT selection**
//! * **I — the general-purpose predictor family study**
//! * **J — cache-size sensitivity**
//!
//! A spec-backed ablation is a declaration: a `*_space` over the given
//! workloads, workload-major, and a `*_rows` projection of its specs'
//! outcomes that runs nothing. The caller runs the specs, so
//! `asbr_tool tables` batches them with every other table's. No
//! [`RunSpec`] describes three runs, which stay driven by hand:
//! [`bank_switching`], [`static_selection`] and [`static_profile`].

use asbr_asm::assemble;
use asbr_bpred::{PredictorKind, StaticPerBranch};
use asbr_core::{AsbrConfig, AsbrUnit, BitEntry};
use asbr_flow::select_static;
use asbr_harness::{
    impl_to_json, ArmSpec, AsbrSpec, Axis, DesignSpace, HarnessError, MicroTweaks, RunOutcome,
    RunSpec, AUX_BTB, BASELINE_BTB,
};
use asbr_profile::profile;
use asbr_sim::{Pipeline, PipelineConfig, PublishPoint};
use asbr_workloads::Workload;

/// A generic ablation data point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Benchmark name.
    pub workload: String,
    /// The swept setting, rendered.
    pub setting: String,
    /// Cycles at that setting.
    pub cycles: u64,
    /// Folds at that setting.
    pub folds: u64,
    /// Fold attempts blocked by validity counters.
    pub blocked: u64,
}

impl_to_json!(Point { workload, setting, cycles, folds, blocked });

/// The auxiliary the ablations pair with ASBR (the paper's bi-512).
const ABLATION_AUX: PredictorKind = PredictorKind::Bimodal { entries: 512 };

/// One [`Point`] per ASBR run, its setting rendered from the run's knobs.
fn points(
    specs: &[RunSpec],
    outcomes: &[RunOutcome],
    setting: impl Fn(AsbrSpec) -> String,
) -> Vec<Point> {
    specs
        .iter()
        .zip(outcomes)
        .map(|(spec, out)| Point {
            workload: spec.workload.name().to_owned(),
            setting: setting(spec.asbr.expect("a knob ablation runs ASBR")),
            cycles: out.cycles(),
            folds: out.folds(),
            blocked: out.asbr.map_or(0, |a| a.blocked_invalid),
        })
        .collect()
}

/// The ablations' base run, ASBR + bi-512, over `workloads`,
/// workload-major; each ablation adds the axes it varies.
fn asbr_over(workloads: &[Workload], samples: usize) -> DesignSpace {
    let base = RunSpec::asbr(Workload::AdpcmEncode, ABLATION_AUX, samples);
    DesignSpace::new(base).axis(Axis::workloads(workloads.iter().copied()))
}

/// Ablation A: one run per BIT capacity.
#[must_use]
pub fn bit_size_space(workloads: &[Workload], samples: usize, sizes: &[usize]) -> DesignSpace {
    asbr_over(workloads, samples).axis(Axis::bit_entries(sizes.iter().copied()))
}

/// Ablation A's points, one per spec of [`bit_size_space`].
#[must_use]
pub fn bit_size_rows(specs: &[RunSpec], outcomes: &[RunOutcome]) -> Vec<Point> {
    points(specs, outcomes, |k| format!("BIT={}", k.bit_entries))
}

/// Ablation B: one run per publish point (threshold).
#[must_use]
pub fn publish_point_space(workloads: &[Workload], samples: usize) -> DesignSpace {
    let points = [PublishPoint::Execute, PublishPoint::Mem, PublishPoint::Commit];
    asbr_over(workloads, samples).axis(Axis::publish(points))
}

/// Ablation B's points, one per spec of [`publish_point_space`].
#[must_use]
pub fn publish_point_rows(specs: &[RunSpec], outcomes: &[RunOutcome]) -> Vec<Point> {
    points(specs, outcomes, |k| format!("{:?} (threshold {})", k.publish, k.publish.threshold()))
}

/// Ablation C: without and with the Sec. 5.1 hoisting scheduler.
#[must_use]
pub fn scheduling_space(workloads: &[Workload], samples: usize) -> DesignSpace {
    let arms = [false, true].map(|hoist| ArmSpec {
        asbr: Some(AsbrSpec { hoist, ..AsbrSpec::default() }),
        ..ArmSpec::asbr(ABLATION_AUX)
    });
    asbr_over(workloads, samples).axis(Axis::arms(arms))
}

/// Ablation C's points, one per spec of [`scheduling_space`].
#[must_use]
pub fn scheduling_rows(specs: &[RunSpec], outcomes: &[RunOutcome]) -> Vec<Point> {
    points(specs, outcomes, |k| if k.hoist { "scheduled" } else { "unscheduled" }.to_owned())
}

/// Walks a batch of spec pairs: each pair's first spec and both
/// outcomes.
fn pairs<'a>(
    specs: &'a [RunSpec],
    outcomes: &'a [RunOutcome],
) -> impl Iterator<Item = (&'a RunSpec, &'a RunOutcome, &'a RunOutcome)> {
    let pairs = specs.iter().step_by(2).zip(outcomes.chunks_exact(2));
    pairs.map(|(spec, pair)| (spec, &pair[0], &pair[1]))
}

/// A `[baseline bimodal-2048, ASBR + bi-512]` pair over `workloads` per
/// value of `axis`.
fn paired(workloads: &[Workload], samples: usize, axis: Axis) -> DesignSpace {
    let baseline = ArmSpec::baseline(PredictorKind::Bimodal { entries: 2048 });
    let arms = Axis::arms([baseline, ArmSpec::asbr(ABLATION_AUX)]);
    asbr_over(workloads, samples).axis(axis).axis(arms)
}

/// Ablation D: auxiliary predictor size sweep, with the matching baseline
/// (same predictor size, full BTB, no ASBR) beside each point.
#[derive(Debug, Clone)]
pub struct AuxPoint {
    /// Benchmark name.
    pub workload: String,
    /// Predictor entries.
    pub entries: usize,
    /// Cycles with ASBR + this auxiliary.
    pub asbr_cycles: u64,
    /// Cycles without ASBR, same-size predictor, full BTB.
    pub baseline_cycles: u64,
}

impl_to_json!(AuxPoint { workload, entries, asbr_cycles, baseline_cycles });

/// Ablation D: per bimodal size, ASBR with that auxiliary then the
/// same-size baseline.
#[must_use]
pub fn aux_size_space(workloads: &[Workload], samples: usize, sizes: &[usize]) -> DesignSpace {
    let arms = sizes.iter().flat_map(|&entries| {
        let kind = PredictorKind::Bimodal { entries };
        [ArmSpec::asbr(kind), ArmSpec::baseline(kind)]
    });
    asbr_over(workloads, samples).axis(Axis::arms(arms))
}

/// Ablation D's points, one per pair of [`aux_size_space`].
///
/// # Panics
///
/// Panics if a pair's auxiliary is not bimodal.
#[must_use]
pub fn aux_size_rows(specs: &[RunSpec], outcomes: &[RunOutcome]) -> Vec<AuxPoint> {
    pairs(specs, outcomes)
        .map(|(spec, asbr, base)| {
            let PredictorKind::Bimodal { entries } = spec.predictor else {
                panic!("ablation D sweeps bimodal sizes, not {:?}", spec.predictor)
            };
            AuxPoint {
                workload: spec.workload.name().to_owned(),
                entries,
                asbr_cycles: asbr.cycles(),
                baseline_cycles: base.cycles(),
            }
        })
        .collect()
}

/// Ablation E: BIT bank switching on a two-phase workload whose loops
/// cannot share one single-entry BIT.
///
/// Returns `(banked_folds, single_folds)` — the banked unit covers both
/// phases, the single-bank unit only the first.
///
/// # Errors
///
/// Propagates any [`SimError`].
pub fn bank_switching(iterations: u32) -> Result<(u64, u64), HarnessError> {
    let src = format!(
        "
        main:   li   r4, {iterations}
                li   r2, 0
        l1:     addi r4, r4, -1
                addi r2, r2, 1
                nop
                nop
        b1:     bnez r4, l1
                li   r9, 1
                ctrlw 0, r9
                li   r4, {iterations}
        l2:     addi r4, r4, -1
                addi r2, r2, 2
                nop
                nop
        b2:     bnez r4, l2
                halt
        "
    );
    let prog = assemble(&src).expect("bank ablation program assembles");
    let b1 = prog.symbol("b1").expect("b1");
    let b2 = prog.symbol("b2").expect("b2");

    let run = |banks: usize| -> Result<u64, HarnessError> {
        let mut unit = AsbrUnit::new(AsbrConfig { bit_entries: 1, banks, ..AsbrConfig::default() });
        unit.install(0, vec![BitEntry::from_program(&prog, b1).expect("entry b1")])
            .expect("fits");
        if banks > 1 {
            unit.install(1, vec![BitEntry::from_program(&prog, b2).expect("entry b2")])
                .expect("fits");
        }
        let mut pipe = Pipeline::with_hooks(
            PipelineConfig { btb_entries: AUX_BTB, ..PipelineConfig::default() },
            PredictorKind::NotTaken.build(),
            unit,
        );
        pipe.execute(&prog, [])?;
        Ok(pipe.into_hooks().stats().folds())
    };
    Ok((run(2)?, run(1)?))
}

/// Ablation F: functional-unit latency. Slower multipliers/dividers grow
/// every run; ASBR's *relative* advantage shrinks per Amdahl (more of the
/// time goes to EX stalls folding cannot touch).
#[derive(Debug, Clone)]
pub struct LatencyPoint {
    /// Benchmark name.
    pub workload: String,
    /// `(mul, div)` EX occupancy in cycles.
    pub latency: (u32, u32),
    /// Baseline (bimodal-2048) cycles.
    pub baseline_cycles: u64,
    /// ASBR + bi-512 cycles.
    pub asbr_cycles: u64,
}

impl_to_json!(LatencyPoint { workload, latency, baseline_cycles, asbr_cycles });

/// Ablation F: a baseline/ASBR pair per `(mul, div)` latency. Latencies
/// are cycles of EX occupancy and must be nonzero
/// ([`MicroTweaks::muldiv`] rejects zero — there is no "faster than
/// single-cycle" setting, and the old clamp silently aliased 0 to 1).
///
/// # Panics
///
/// Panics if any latency is zero.
#[must_use]
pub fn muldiv_latency_space(
    workloads: &[Workload],
    samples: usize,
    latencies: &[(u32, u32)],
) -> DesignSpace {
    let tweaks = latencies.iter().map(|&(mul, div)| MicroTweaks::muldiv(mul, div));
    paired(workloads, samples, Axis::tweaks(tweaks))
}

/// Ablation F's points, one per pair of [`muldiv_latency_space`].
#[must_use]
pub fn muldiv_latency_rows(specs: &[RunSpec], outcomes: &[RunOutcome]) -> Vec<LatencyPoint> {
    pairs(specs, outcomes)
        .map(|(spec, base, asbr)| LatencyPoint {
            workload: spec.workload.name().to_owned(),
            latency: (spec.tweaks.mul_latency.get(), spec.tweaks.div_latency.get()),
            baseline_cycles: base.cycles(),
            asbr_cycles: asbr.cycles(),
        })
        .collect()
}

/// Ablation G: return-address stack on/off, baseline and ASBR.
/// Separates call/return overhead (not ASBR's target) from
/// conditional-branch overhead (ASBR's target) on the call-heavy G.721.
#[derive(Debug, Clone)]
pub struct RasPoint {
    /// Benchmark name.
    pub workload: String,
    /// RAS entries (0 = none).
    pub ras_entries: usize,
    /// Baseline cycles.
    pub baseline_cycles: u64,
    /// ASBR cycles.
    pub asbr_cycles: u64,
    /// Baseline indirect-jump flushes.
    pub baseline_indirect_flushes: u64,
}

impl_to_json!(RasPoint { workload, ras_entries, baseline_cycles, asbr_cycles, baseline_indirect_flushes });

/// Ablation G: a baseline/ASBR pair without and with an 8-entry RAS.
#[must_use]
pub fn ras_space(workloads: &[Workload], samples: usize) -> DesignSpace {
    let tweaks = [0, 8].map(|ras_entries| MicroTweaks { ras_entries, ..MicroTweaks::default() });
    paired(workloads, samples, Axis::tweaks(tweaks))
}

/// Ablation G's points, one per pair of [`ras_space`].
#[must_use]
pub fn ras_rows(specs: &[RunSpec], outcomes: &[RunOutcome]) -> Vec<RasPoint> {
    pairs(specs, outcomes)
        .map(|(spec, base, asbr)| RasPoint {
            workload: spec.workload.name().to_owned(),
            ras_entries: spec.tweaks.ras_entries,
            baseline_cycles: base.cycles(),
            asbr_cycles: asbr.cycles(),
            baseline_indirect_flushes: base.summary.stats.indirect_flushes,
        })
        .collect()
}

/// Ablation J: cache-size sensitivity — does ASBR's advantage survive
/// the small caches of cheap SOC co-designs?
#[derive(Debug, Clone)]
pub struct CachePoint {
    /// Benchmark name.
    pub workload: String,
    /// I/D cache capacity in bytes.
    pub cache_bytes: u32,
    /// Baseline (bimodal-2048) cycles.
    pub baseline_cycles: u64,
    /// ASBR + bi-512 cycles.
    pub asbr_cycles: u64,
}

impl_to_json!(CachePoint { workload, cache_bytes, baseline_cycles, asbr_cycles });

/// Ablation J: a baseline/ASBR pair per I/D cache capacity.
#[must_use]
pub fn cache_size_space(workloads: &[Workload], samples: usize, sizes: &[u32]) -> DesignSpace {
    paired(workloads, samples, Axis::cache_bytes(sizes.iter().copied()))
}

/// Ablation J's points, one per pair of [`cache_size_space`].
#[must_use]
pub fn cache_size_rows(specs: &[RunSpec], outcomes: &[RunOutcome]) -> Vec<CachePoint> {
    pairs(specs, outcomes)
        .map(|(spec, base, asbr)| CachePoint {
            workload: spec.workload.name().to_owned(),
            cache_bytes: spec.tweaks.cache_bytes,
            baseline_cycles: base.cycles(),
            asbr_cycles: asbr.cycles(),
        })
        .collect()
}

/// Ablation I: the predictor-family study — how the full zoo of
/// general-purpose predictors (including the related-work families the
/// paper cites: static profile-guided prediction (ref. 2), McFarling's
/// combining predictor (ref. 3), and a two-level local predictor) compares on
/// a benchmark, without ASBR.
#[derive(Debug, Clone)]
pub struct FamilyRow {
    /// Benchmark name.
    pub workload: String,
    /// Predictor label.
    pub predictor: String,
    /// Cycles.
    pub cycles: u64,
    /// Direction accuracy.
    pub accuracy: f64,
    /// Direction-predictor storage bits (0 for the static schemes).
    pub storage_bits: u64,
}

impl_to_json!(FamilyRow { workload, predictor, cycles, accuracy, storage_bits });

/// The predictors of ablation I's spec-backed arms, in row order.
pub const FAMILY: [PredictorKind; 5] = [
    PredictorKind::NotTaken,
    PredictorKind::Bimodal { entries: 2048 },
    PredictorKind::Gshare { hist_bits: 11, entries: 2048 },
    PredictorKind::Local { hist_bits: 10, bht_entries: 1024, pht_entries: 1024 },
    PredictorKind::Tournament { hist_bits: 11, entries: 1024 },
];

/// Ablation I: one baseline run per [`FAMILY`] predictor.
#[must_use]
pub fn predictor_family_space(workloads: &[Workload], samples: usize) -> DesignSpace {
    asbr_over(workloads, samples).axis(Axis::arms(FAMILY.map(ArmSpec::baseline)))
}

/// Ablation I's rows, one per spec of [`predictor_family_space`].
#[must_use]
pub fn predictor_family_rows(specs: &[RunSpec], outcomes: &[RunOutcome]) -> Vec<FamilyRow> {
    specs
        .iter()
        .zip(outcomes)
        .map(|(spec, out)| FamilyRow {
            workload: spec.workload.name().to_owned(),
            predictor: spec.predictor.label(),
            cycles: out.cycles(),
            accuracy: out.summary.stats.accuracy(),
            storage_bits: spec.predictor.storage_bits(),
        })
        .collect()
}

/// Ablation I's profile-guided static arm (reference [2] in its
/// per-branch majority form): profile once, hint every branch, re-run.
/// The hinted predictor is not a `PredictorKind`, so no [`RunSpec`]
/// describes this run and it is driven by hand.
///
/// # Errors
///
/// Propagates any [`SimError`].
pub fn static_profile(w: Workload, samples: usize) -> Result<FamilyRow, HarnessError> {
    let program = w.program();
    let input = w.input(samples);
    let report = profile(&program, &input, &[])?;
    let hints: Vec<(u32, bool)> =
        report.branches().iter().map(|b| (b.pc, b.taken_rate() > 0.5)).collect();
    let stat = StaticPerBranch::new(hints, false);
    let mut pipe = Pipeline::new(
        PipelineConfig { btb_entries: BASELINE_BTB, ..PipelineConfig::default() },
        Box::new(stat),
    );
    let s = pipe.execute(&program, input.iter().copied())?;
    Ok(FamilyRow {
        workload: w.name().to_owned(),
        predictor: "static-profile".to_owned(),
        cycles: s.stats.cycles,
        accuracy: s.stats.accuracy(),
        storage_bits: 0,
    })
}

/// Ablation H: profile-free (static) BIT selection vs the profiled one.
#[derive(Debug, Clone)]
pub struct SelectionPoint {
    /// Benchmark name.
    pub workload: String,
    /// `"static"` or `"profiled"`.
    pub method: String,
    /// Cycles with ASBR + bi-512.
    pub cycles: u64,
    /// Folds.
    pub folds: u64,
    /// BIT entries used.
    pub selected: usize,
}

impl_to_json!(SelectionPoint { workload, method, cycles, folds, selected });

/// Ablation H's spec-backed arm: the profiled selection (the harness
/// default), one run per workload.
#[must_use]
pub fn selection_space(workloads: &[Workload], samples: usize) -> DesignSpace {
    asbr_over(workloads, samples)
}

/// Ablation H's `"profiled"` points, one per spec of [`selection_space`].
#[must_use]
pub fn selection_rows(specs: &[RunSpec], outcomes: &[RunOutcome]) -> Vec<SelectionPoint> {
    specs
        .iter()
        .zip(outcomes)
        .map(|(spec, out)| SelectionPoint {
            workload: spec.workload.name().to_owned(),
            method: "profiled".to_owned(),
            cycles: out.cycles(),
            folds: out.folds(),
            selected: out.selected.len(),
        })
        .collect()
}

/// Ablation H's `"static"` point: loop-depth-ranked selection, no
/// profiling run at all. The selection bypasses the profiler, so no
/// [`RunSpec`] describes this run and it is driven by hand.
///
/// # Errors
///
/// Propagates any [`SimError`].
pub fn static_selection(w: Workload, samples: usize) -> Result<SelectionPoint, HarnessError> {
    let program = w.program();
    let picks: Vec<u32> = select_static(&program, PublishPoint::Mem.threshold(), 16)
        .into_iter()
        .map(|p| p.candidate.pc)
        .collect();
    let unit = AsbrUnit::for_branches(AsbrConfig::default(), &program, &picks)
        .expect("static picks build entries");
    let mut pipe = Pipeline::with_hooks(
        PipelineConfig { btb_entries: AUX_BTB, ..PipelineConfig::default() },
        ABLATION_AUX.build(),
        unit,
    );
    let s = pipe.execute(&program, w.input(samples))?;
    Ok(SelectionPoint {
        workload: w.name().to_owned(),
        method: "static".to_owned(),
        cycles: s.stats.cycles,
        folds: pipe.into_hooks().stats().folds(),
        selected: picks.len(),
    })
}

#[cfg(test)]
mod tests {
    use asbr_harness::Executor;

    use super::*;

    /// Runs a declaration's specs on an executor of their own and projects
    /// the outcomes.
    fn run<T>(space: DesignSpace, rows: fn(&[RunSpec], &[RunOutcome]) -> Vec<T>) -> Vec<T> {
        let specs = space.specs();
        rows(&specs, &Executor::new().run(&specs).unwrap())
    }

    #[test]
    fn asbr_survives_tiny_caches() {
        let space = cache_size_space(&[Workload::AdpcmEncode], 150, &[1024, 8192]);
        let pts = run(space, cache_size_rows);
        // Smaller caches cost cycles everywhere.
        assert!(pts[0].baseline_cycles >= pts[1].baseline_cycles);
        // ASBR still wins at 1 KB.
        assert!(pts[0].asbr_cycles < pts[0].baseline_cycles, "{pts:?}");
    }

    #[test]
    fn predictor_family_has_expected_orderings() {
        let w = Workload::AdpcmEncode;
        let mut rows = run(predictor_family_space(&[w], 200), predictor_family_rows);
        rows.push(static_profile(w, 200).unwrap());
        assert_eq!(rows.len(), 6);
        let get = |name: &str| rows.iter().find(|r| r.predictor == name).unwrap();
        // Every dynamic predictor beats not-taken.
        for name in ["bimodal", "gshare", "local", "tournament"] {
            assert!(get(name).accuracy > get("not taken").accuracy, "{name}");
        }
        // Profile-guided static beats not-taken (it at least gets every
        // biased branch right) but cannot adapt within a run.
        assert!(get("static-profile").accuracy > get("not taken").accuracy);
        assert!(get("static-profile").accuracy <= get("tournament").accuracy + 0.05);
        assert_eq!(get("static-profile").storage_bits, 0);
    }

    #[test]
    fn static_selection_folds_without_profiling() {
        let w = Workload::AdpcmEncode;
        let mut rows = run(selection_space(&[w], 150), selection_rows);
        rows.push(static_selection(w, 150).unwrap());
        let stat = rows.iter().find(|r| r.method == "static").unwrap();
        let prof = rows.iter().find(|r| r.method == "profiled").unwrap();
        assert!(stat.selected > 0);
        assert!(stat.folds > 0, "{rows:?}");
        // Static selection is a usable approximation: within 2x of the
        // profiled fold count on this loop-dominated code.
        assert!(stat.folds * 2 >= prof.folds, "{rows:?}");
    }

    #[test]
    fn slower_muldiv_grows_cycles_but_never_changes_results() {
        let space = muldiv_latency_space(&[Workload::G721Encode], 60, &[(1, 1), (4, 16)]);
        let pts = run(space, muldiv_latency_rows);
        assert!(pts[1].baseline_cycles > pts[0].baseline_cycles);
        assert!(pts[1].asbr_cycles > pts[0].asbr_cycles);
        // ASBR still wins under slow functional units.
        assert!(pts[1].asbr_cycles < pts[1].baseline_cycles);
    }

    #[test]
    fn ras_cuts_return_flushes_on_g721() {
        let pts = run(ras_space(&[Workload::G721Encode], 60), ras_rows);
        assert_eq!(pts[0].ras_entries, 0);
        assert!(pts[1].baseline_cycles < pts[0].baseline_cycles, "{pts:?}");
        assert!(pts[0].baseline_indirect_flushes > pts[1].baseline_indirect_flushes);
        // ASBR's benefit survives the addition of a RAS.
        assert!(pts[1].asbr_cycles < pts[1].baseline_cycles);
    }

    #[test]
    fn bigger_bit_never_hurts_folds() {
        let pts = run(bit_size_space(&[Workload::AdpcmEncode], 150, &[1, 4, 16]), bit_size_rows);
        assert_eq!(pts.len(), 3);
        assert!(pts[0].folds <= pts[2].folds, "{pts:?}");
    }

    #[test]
    fn banked_bit_folds_both_phases() {
        let (banked, single) = bank_switching(200).unwrap();
        assert!(banked > single, "banked {banked} vs single {single}");
        assert!(banked >= 2 * single - 10, "both loops fold when banked");
    }

    #[test]
    fn threshold_orders_blocked_counts() {
        let pts = run(publish_point_space(&[Workload::AdpcmEncode], 150), publish_point_rows);
        // Later publish (bigger threshold) can only block more or fold
        // less.
        assert!(pts[0].folds >= pts[1].folds);
        assert!(pts[1].folds >= pts[2].folds);
    }
}
