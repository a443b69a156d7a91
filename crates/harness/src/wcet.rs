//! Differential WCET cross-check: the `asbr-check` static cycle-bound
//! analyzer against the cycle-accurate pipeline.
//!
//! For any [`RunSpec`] the analyzer must produce a *guaranteed* upper
//! bound on the cycles the pipelined simulator reports for the same
//! program, input, and machine configuration. This module plumbs the
//! spec's knobs into [`MachineParams`], decides which selected branches
//! may soundly be credited with zero flush cycles (their fold is proven
//! to fire on every dynamic instance), and packages the comparison as a
//! [`WcetRecord`] with a tightness ratio. The `asbr_tool wcet`
//! subcommand and `tests/wcet.rs` drive this over the whole config
//! matrix; `results/WCET_*.json` reports the outcome per workload.
//!
//! The bound's only dynamic input is the per-pc retire counts of one
//! functional run of the program on the spec's input. That run is the
//! profiling pass of the outcome's shared prefix ([`RunOutcome::prefix`]),
//! which the executor makes once per `(workload, hoist, samples)` and
//! every spec on that key shares. So a cross-check interprets nothing
//! when an ASBR spec on its key has run, profiles the prefix once when
//! none has, and makes a run of its own only for an outcome that carries
//! no prefix, or one for another key.

use asbr_asm::Program;
use asbr_check::{cycle_bound, prove_entry, CycleBound, ExecutionProfile, MachineParams};
use asbr_core::BitEntry;
use asbr_flow::Cfg;
use asbr_sim::{PipelineConfig, SimError};

use crate::spec::{RunOutcome, RunSpec};

/// The minimum publish threshold at which a distance proof guarantees
/// the predicate is published before the branch is fetched even when the
/// producer is a load (loads publish after MEM, distance 3).
pub const CREDIT_THRESHOLD: u32 = 3;

/// Derives the analyzer's machine parameters from the same knobs
/// [`RunSpec::execute`] feeds the pipeline: [`crate::MicroTweaks`]
/// applied over [`PipelineConfig::default`], so mul/div latencies and
/// any swept cache capacity flow into the bound.
#[must_use]
pub fn machine_params(spec: &RunSpec) -> MachineParams {
    let cfg = spec
        .tweaks
        .apply(PipelineConfig { btb_entries: spec.btb_entries, ..PipelineConfig::default() });
    MachineParams {
        mul_latency: cfg.mul_latency,
        div_latency: cfg.div_latency,
        icache_bytes: cfg.mem.icache.size_bytes,
        icache_line: cfg.mem.icache.line_bytes,
        icache_assoc: cfg.mem.icache.assoc,
        icache_penalty: cfg.mem.icache.miss_penalty,
        dcache_penalty: cfg.mem.dcache.miss_penalty,
    }
}

/// Filters `selected` (BIT-installed branch PCs) down to those whose
/// fold is statically guaranteed on *every* dynamic instance, so the
/// bound may drop their flush term entirely.
///
/// Credit requires a **distance** proof at
/// `max(threshold, CREDIT_THRESHOLD)`: the def→branch distance alone
/// must clear the publish point on all static paths. A range-constant
/// proof is deliberately *not* sufficient — it makes an entry
/// installable (the latched direction is always correct), but a close
/// producer can still mark the BDT row invalid at fetch, block the fold,
/// and leave the branch to the ordinary predictor, which may flush.
#[must_use]
pub fn credited_branches(program: &Program, selected: &[u32], threshold: u32) -> Vec<u32> {
    let cfg = Cfg::build(program);
    let need = threshold.max(CREDIT_THRESHOLD);
    selected
        .iter()
        .copied()
        .filter(|&pc| {
            BitEntry::from_program(program, pc).is_ok_and(|e| {
                prove_entry(program, &cfg, &e, need)
                    .is_ok_and(|proof| proof.min_distance >= need)
            })
        })
        .collect()
}

// The bound's JSON form: one key per attribution bucket.
crate::impl_to_json!(CycleBound {
    useful,
    fill_drain,
    branch_flush,
    jump_redirect,
    indirect_flush,
    load_use,
    ex_occupancy,
    dcache_stall,
    icache_stall,
});

/// One spec's bound-versus-simulation comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct WcetRecord {
    /// Human label of the spec ([`RunSpec::label`]).
    pub label: String,
    /// The per-bucket static bound.
    pub bound: CycleBound,
    /// Cycles the pipelined simulator actually took.
    pub cycles: u64,
    /// Dynamic instructions the profile retired.
    pub instructions: u64,
    /// Branch PCs credited with guaranteed folds (subset of the spec's
    /// selection).
    pub credited: Vec<u32>,
}

impl WcetRecord {
    /// `true` iff the bound actually dominates the simulation — the
    /// soundness condition every record must satisfy.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.bound.total() >= self.cycles
    }

    /// Bound ÷ simulated cycles; ≥ 1.0 when sound, closer to 1.0 is
    /// tighter.
    #[must_use]
    pub fn tightness(&self) -> f64 {
        self.bound.total() as f64 / self.cycles as f64
    }
}

/// Runs the static analyzer for `spec` and compares against `outcome`
/// (which must come from executing the same spec).
///
/// The retire counts come from the profile of `outcome`'s prefix when
/// that prefix is `spec`'s: no interpretation when the prefix has been
/// profiled, one memoized profiling run when it has not. An outcome with
/// no prefix, or with another spec's (a different workload, hoist or
/// sample count), gets a counting run of its own
/// ([`ExecutionProfile::collect`]).
///
/// # Errors
///
/// Propagates any [`SimError`] from the interpreter run, if one is made.
pub fn cross_check(spec: &RunSpec, outcome: &RunOutcome) -> Result<WcetRecord, SimError> {
    let threshold = spec.asbr.map_or(CREDIT_THRESHOLD, |k| k.publish.threshold());
    let record = |program: &Program, profile: &ExecutionProfile| {
        let credited = credited_branches(program, &outcome.selected, threshold);
        let bound = cycle_bound(&Cfg::build(program), &machine_params(spec), profile, &credited);
        WcetRecord {
            label: spec.label(),
            bound,
            cycles: outcome.cycles(),
            instructions: profile.instructions,
            credited,
        }
    };
    match outcome.prefix.as_deref().filter(|prefix| prefix.serves(spec)) {
        Some(prefix) => Ok(record(&prefix.program, prefix.report()?.retires())),
        None => {
            let program = spec.program();
            let input = spec.workload.input(spec.samples);
            Ok(record(&program, &ExecutionProfile::collect(&program, &input)?))
        }
    }
}

/// [`cross_check`] that also stamps the bound onto the outcome, so it
/// travels with the cache entry (`static_bound` line, format v3). It
/// interprets exactly when [`cross_check`] does.
///
/// # Errors
///
/// Propagates any [`SimError`] from the interpreter run, if one is made.
pub fn attach_bound(spec: &RunSpec, outcome: &mut RunOutcome) -> Result<WcetRecord, SimError> {
    let record = cross_check(spec, outcome)?;
    outcome.static_bound = Some(record.bound.total());
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asbr_bpred::PredictorKind;
    use asbr_workloads::Workload;
    use std::sync::Arc;

    #[test]
    fn params_follow_the_tweaks() {
        let spec = RunSpec::baseline(Workload::AdpcmEncode, PredictorKind::NotTaken, 40)
            .with_tweaks(crate::MicroTweaks::muldiv(4, 16));
        let p = machine_params(&spec);
        assert_eq!((p.mul_latency, p.div_latency), (4, 16));
        assert_eq!(p.icache_bytes, 8192);
    }

    #[test]
    fn bound_dominates_a_baseline_run() {
        let spec = RunSpec::baseline(Workload::AdpcmEncode, PredictorKind::NotTaken, 40);
        let mut out = spec.execute().unwrap();
        let record = attach_bound(&spec, &mut out).unwrap();
        assert!(record.holds(), "bound {} < cycles {}", record.bound.total(), record.cycles);
        assert_eq!(out.static_bound, Some(record.bound.total()));
        assert!(record.credited.is_empty(), "baselines select nothing");
    }

    /// The record of the standalone path: `outcome` with no prefix, so
    /// the cross-check makes a counting run of its own.
    fn standalone(spec: &RunSpec, outcome: &RunOutcome) -> WcetRecord {
        cross_check(spec, &RunOutcome { prefix: None, ..outcome.clone() }).unwrap()
    }

    #[test]
    fn records_read_from_the_prefix_match_a_counting_run_however_the_outcome_was_made() {
        let w = Workload::AdpcmEncode;
        let bi = |entries| PredictorKind::Bimodal { entries };
        let asbr = |bit_entries| {
            RunSpec::asbr(w, bi(512), 200)
                .with_asbr(crate::AsbrSpec { bit_entries, ..crate::AsbrSpec::default() })
        };
        let specs = [
            RunSpec::baseline(w, bi(2048), 200),
            asbr(16),
            // Selects what BIT 16 selects: shares its run.
            asbr(8),
            RunSpec::baseline(w, bi(2048), 200),
            RunSpec::asbr(w, bi(512), 200)
                .with_asbr(crate::AsbrSpec { hoist: true, ..crate::AsbrSpec::default() }),
        ];
        let dir = std::env::temp_dir().join(format!("asbr-wcet-prefix-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = crate::CacheMode::Enabled(dir.clone());
        let cold_ex = crate::Executor::new().threads(2).cache(cache.clone());
        let cold = cold_ex.run(&specs).unwrap();
        let stats = cold_ex.stats();
        assert_eq!((stats.computed, stats.machine_hits, stats.dedup_hits), (3, 1, 1));
        let warm_ex = crate::Executor::new().threads(2).cache(cache);
        let warm = warm_ex.run(&specs).unwrap();
        assert_eq!(warm_ex.stats().cache_hits, 4);
        let _ = std::fs::remove_dir_all(&dir);

        for outcomes in [&cold, &warm] {
            for (spec, out) in specs.iter().zip(outcomes) {
                let prefix = out.prefix.as_ref().expect("executor outcomes carry their prefix");
                assert!(prefix.serves(spec), "{spec:?}");
                assert_eq!(cross_check(spec, out).unwrap(), standalone(spec, out), "{spec:?}");
            }
            // One prefix, so one profiling pass, per program.
            let [base, sel16, sel8, dup, hoisted] = outcomes.as_slice() else { unreachable!() };
            let same = |a: &RunOutcome, b: &RunOutcome| {
                Arc::ptr_eq(a.prefix.as_ref().unwrap(), b.prefix.as_ref().unwrap())
            };
            assert!(same(base, sel16) && same(base, sel8) && same(base, dup));
            assert!(!same(base, hoisted), "a hoisted program is another program");
        }
    }

    #[test]
    fn a_prefix_of_another_spec_is_ignored() {
        // perfbench builds outcomes from a 1-sample template's fields.
        let template =
            RunSpec::baseline(Workload::AdpcmEncode, PredictorKind::NotTaken, 1).execute().unwrap();
        for spec in [
            RunSpec::baseline(Workload::AdpcmEncode, PredictorKind::Bimodal { entries: 2048 }, 400),
            RunSpec::asbr(Workload::AdpcmDecode, PredictorKind::Bimodal { entries: 512 }, 1),
        ] {
            let out = spec.execute().unwrap();
            let foreign = RunOutcome { prefix: template.prefix.clone(), ..out.clone() };
            assert!(!foreign.prefix.as_ref().unwrap().serves(&spec));
            let record = cross_check(&spec, &foreign).unwrap();
            assert_eq!(record, standalone(&spec, &out));
            assert_eq!(record, cross_check(&spec, &out).unwrap());
        }
    }

    #[test]
    fn asbr_credit_never_exceeds_selection() {
        let spec = RunSpec::asbr(Workload::AdpcmEncode, PredictorKind::NotTaken, 40);
        let out = spec.execute().unwrap();
        let record = cross_check(&spec, &out).unwrap();
        assert!(record.holds(), "bound {} < cycles {}", record.bound.total(), record.cycles);
        for pc in &record.credited {
            assert!(out.selected.contains(pc), "credited pc {pc} was never installed");
        }
    }
}
