//! Power and area accounting — the paper's two non-cycle claims.
//!
//! *Power* (Sec. 1): "the total number of instructions passing through the
//! pipeline is reduced … no mispredicted instructions are executed.
//! Consequently, power consumption is decreased." *Area* (Sec. 6):
//! "drastically reduce area and still keep the original branch prediction
//! rates by using a much more lightweight branch predictor".
//!
//! The models behind both claims live in
//! [`asbr_harness::cost::CostModel`] (per-event energy entries,
//! per-structure area weights, loadable from `results/area.json` /
//! `results/power.json`), where design-space exploration optimizes over
//! them too. This module is a thin consumer: [`power_specs`] lists the
//! power comparison's runs, [`power_rows`] charges their outcomes
//! through the model, and the area comparison is static.

use std::path::Path;

use asbr_bpred::PredictorKind;
use asbr_harness::{impl_to_json, CostModel, HarnessError, RunOutcome, RunSpec};
use asbr_workloads::Workload;

/// Loads the cost model the experiments charge against: the shipped
/// `results/{area,power}.json` when present (and valid), the built-in
/// defaults otherwise.
///
/// # Errors
///
/// Propagates [`HarnessError`] for present-but-invalid model files —
/// a malformed table must fail loudly, not silently fall back.
pub fn model() -> Result<CostModel, HarnessError> {
    CostModel::load(Path::new("results"))
}

/// One row of the power comparison.
#[derive(Debug, Clone)]
pub struct PowerRow {
    /// Benchmark name.
    pub workload: String,
    /// Total baseline energy (bimodal-2048 + 2048-entry BTB).
    pub baseline_energy: f64,
    /// Total ASBR energy (16-entry BIT + BDT + bi-256 + 512-entry BTB).
    pub asbr_energy: f64,
    /// Wrong-path slots fetched, baseline.
    pub baseline_squashed: u64,
    /// Wrong-path slots fetched, ASBR.
    pub asbr_squashed: u64,
    /// Fractional energy reduction.
    pub reduction: f64,
}

impl_to_json!(PowerRow { workload, baseline_energy, asbr_energy, baseline_squashed, asbr_squashed, reduction });

/// The power comparison's specs: per workload, the baseline
/// (bimodal-2048, full BTB) then ASBR (BIT-16 + bi-256 + quarter BTB).
#[must_use]
pub fn power_specs(samples: usize) -> Vec<RunSpec> {
    let baseline_kind = PredictorKind::Bimodal { entries: 2048 };
    let aux_kind = PredictorKind::Bimodal { entries: 256 };
    Workload::ALL
        .into_iter()
        .flat_map(|w| {
            [RunSpec::baseline(w, baseline_kind, samples), RunSpec::asbr(w, aux_kind, samples)]
        })
        .collect()
}

/// Charges the outcomes of [`power_specs`] through `model`: one row per
/// workload.
#[must_use]
pub fn power_rows(model: &CostModel, specs: &[RunSpec], outcomes: &[RunOutcome]) -> Vec<PowerRow> {
    specs
        .chunks_exact(2)
        .zip(outcomes.chunks_exact(2))
        .map(|(pair_specs, pair)| {
            let (base, asbr) = (&pair[0], &pair[1]);
            let baseline_energy = model.energy_of(&pair_specs[0], base);
            let asbr_energy = model.energy_of(&pair_specs[1], asbr);
            PowerRow {
                workload: pair_specs[0].workload.name().to_owned(),
                baseline_energy,
                asbr_energy,
                baseline_squashed: base.summary.stats.activity.squashed,
                asbr_squashed: asbr.summary.stats.activity.squashed,
                reduction: 1.0 - asbr_energy / baseline_energy,
            }
        })
        .collect()
}

/// One row of the area comparison.
#[derive(Debug, Clone)]
pub struct AreaRow {
    /// Configuration label.
    pub config: String,
    /// Direction-predictor bits.
    pub predictor_bits: u64,
    /// BTB bits.
    pub btb_bits: u64,
    /// ASBR bits (BIT + BDT), zero for baselines.
    pub asbr_bits: u64,
}

impl_to_json!(AreaRow { config, predictor_bits, btb_bits, asbr_bits });

impl AreaRow {
    /// Total front-end storage.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.predictor_bits + self.btb_bits + self.asbr_bits
    }
}

/// The front-end storage comparison: the paper's baseline predictors vs
/// the ASBR configurations of Figure 11, each expressed as a [`RunSpec`]
/// and costed through [`CostModel::cost_of`].
///
/// # Errors
///
/// Propagates [`HarnessError`] from the model load.
pub fn area_table() -> Result<Vec<AreaRow>, HarnessError> {
    let model = model()?;
    // Workload and samples don't enter the (static) area cost; any
    // placeholder works.
    let template = |p| RunSpec::baseline(Workload::AdpcmEncode, p, 0);
    let asbr_template = |p| RunSpec::asbr(Workload::AdpcmEncode, p, 0);
    let configs = [
        (
            "baseline bimodal-2048 + BTB-2048",
            template(PredictorKind::Bimodal { entries: 2048 }),
        ),
        (
            "baseline gshare-11/2048 + BTB-2048",
            template(PredictorKind::Gshare { hist_bits: 11, entries: 2048 }),
        ),
        ("ASBR-16 + bi-512 + BTB-512", asbr_template(PredictorKind::Bimodal { entries: 512 })),
        ("ASBR-16 + bi-256 + BTB-512", asbr_template(PredictorKind::Bimodal { entries: 256 })),
        ("ASBR-16 + no predictor", asbr_template(PredictorKind::NotTaken).with_btb(0)),
    ];
    Ok(configs
        .into_iter()
        .map(|(config, spec)| {
            let c = model.cost_of(&spec);
            AreaRow {
                config: config.to_owned(),
                predictor_bits: c.predictor_bits,
                btb_bits: c.btb_bits,
                asbr_bits: c.asbr_bits,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asbr_configs_are_far_smaller() {
        let rows = area_table().unwrap();
        let baseline = rows[0].total();
        for r in rows.iter().skip(2) {
            assert!(
                r.total() * 2 < baseline,
                "{} ({} bits) should be under half the baseline ({baseline} bits)",
                r.config,
                r.total()
            );
        }
        // The BIT itself is tiny: 16 entries ~ 2.1 kbit vs the baseline's
        // ~137 kbit front end.
        assert!(rows[4].total() < baseline / 40);
    }

    #[test]
    fn energy_model_is_monotone_in_table_size() {
        let m = asbr_harness::EnergyModel::default();
        assert!(m.table_access(100) < m.table_access(10_000));
        assert!(m.table_access(0) >= m.per_table_access);
    }

    #[test]
    fn asbr_reduces_energy_on_adpcm() {
        let specs = power_specs(200);
        let outcomes = asbr_harness::Executor::new().run(&specs).unwrap();
        let rows = power_rows(&model().unwrap(), &specs, &outcomes);
        assert_eq!(rows.len(), 4);
        for r in rows.iter().filter(|r| r.workload.starts_with("ADPCM")) {
            assert!(
                r.reduction > 0.0,
                "{}: baseline {:.0} vs asbr {:.0}",
                r.workload,
                r.baseline_energy,
                r.asbr_energy
            );
            assert!(r.asbr_squashed <= r.baseline_squashed, "{}", r.workload);
        }
    }
}
