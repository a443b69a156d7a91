//! Figure 11: application-specific branch resolution results.
//!
//! For each benchmark, the ASBR-customized pipeline runs with three
//! auxiliary predictors — *not taken* (i.e. essentially no predictor),
//! *bi-512* and *bi-256*, the latter two with the BTB cut to a quarter —
//! and the improvement is reported against the same-class baseline:
//! not-taken vs the baseline not-taken row of Figure 6, bi-512/bi-256 vs
//! the baseline 2048-entry bimodal ("The percentage ... corresponds to an
//! absolute decrease in execution cycles compared to the general-purpose
//! bimodal predictor").

use asbr_bpred::PredictorKind;
use asbr_harness::{impl_to_json, ArmSpec, Axis, DesignSpace, RunOutcome, RunSpec};
use asbr_workloads::Workload;

use crate::tablefmt::{thousands, Table};

/// The auxiliary predictors of Figure 11, paired with the baseline each is
/// compared against.
pub const AUXILIARIES: [(PredictorKind, PredictorKind); 3] = [
    (PredictorKind::NotTaken, PredictorKind::NotTaken),
    (PredictorKind::Bimodal { entries: 512 }, PredictorKind::Bimodal { entries: 2048 }),
    (PredictorKind::Bimodal { entries: 256 }, PredictorKind::Bimodal { entries: 2048 }),
];

/// One cell group of Figure 11.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub workload: String,
    /// Auxiliary predictor label.
    pub aux: String,
    /// ASBR cycles.
    pub cycles: u64,
    /// Same-class baseline cycles.
    pub baseline_cycles: u64,
    /// Fractional improvement over the same-class baseline.
    pub improvement: f64,
    /// Branches folded during the run.
    pub folds: u64,
    /// BIT hits blocked by in-flight predicate writers.
    pub blocked: u64,
    /// Number of BIT entries used.
    pub selected: usize,
}

impl_to_json!(Row { workload, aux, cycles, baseline_cycles, improvement, folds, blocked, selected });

/// The design space behind Figure 11: the same-class baseline arm of
/// each auxiliary, then the ASBR arm of each, over every benchmark. The
/// duplicate bimodal-2048 baseline arms collapse in the executor's dedup
/// layer.
#[must_use]
pub fn space(samples: usize) -> DesignSpace {
    let baselines = AUXILIARIES.map(|(_, baseline)| ArmSpec::baseline(baseline));
    let asbr = AUXILIARIES.map(|(aux, _)| ArmSpec::asbr(aux));
    DesignSpace::new(RunSpec::baseline(Workload::AdpcmEncode, PredictorKind::NotTaken, samples))
        .axis(Axis::arms(baselines.into_iter().chain(asbr)))
        .axis(Axis::workloads(Workload::ALL))
}

/// Projects the outcomes of [`space`]'s specs onto its rows: one per
/// benchmark and auxiliary, benchmark-major.
#[must_use]
pub fn rows(specs: &[RunSpec], outcomes: &[RunOutcome]) -> Vec<Row> {
    let workloads = Workload::ALL.len();
    let arms = AUXILIARIES.len();
    let mut rows = Vec::with_capacity(workloads * arms);
    // Space order is arm-major, workload-minor: baselines occupy the
    // first `arms` blocks, ASBR arms the next.
    for wi in 0..workloads {
        for ai in 0..arms {
            let at = (arms + ai) * workloads + wi;
            let (spec, run, base) = (&specs[at], &outcomes[at], &outcomes[ai * workloads + wi]);
            rows.push(Row {
                workload: spec.workload.name().to_owned(),
                aux: spec.predictor.label(),
                cycles: run.cycles(),
                baseline_cycles: base.cycles(),
                improvement: run.improvement_over(base),
                folds: run.folds(),
                blocked: run.asbr.expect("ASBR arm has fold stats").blocked_invalid,
                selected: run.selected.len(),
            });
        }
    }
    rows
}

/// Renders in the paper's layout.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut header = vec![String::new()];
    for w in Workload::ALL {
        header.push(format!("{} Cycles", w.name()));
        header.push("Impr.".to_owned());
    }
    let mut t = Table::new(header);
    for (aux, _) in AUXILIARIES {
        let label = aux.label();
        let mut cells = vec![label.clone()];
        for w in Workload::ALL {
            let row = rows
                .iter()
                .find(|r| r.workload == w.name() && r.aux == label)
                .expect("complete table");
            cells.push(thousands(row.cycles));
            cells.push(format!("{:.0}%", row.improvement * 100.0));
        }
        t.row(cells);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use asbr_harness::Executor;

    use super::*;

    #[test]
    fn asbr_improves_over_each_baseline_class() {
        let specs = space(250).specs();
        let rows = rows(&specs, &Executor::new().run(&specs).unwrap());
        assert_eq!(rows.len(), 12);
        for r in &rows {
            assert!(r.folds > 0, "{} {} never folded", r.workload, r.aux);
            assert!(
                r.improvement > -0.02,
                "{} {} regressed: {:.3}",
                r.workload,
                r.aux,
                r.improvement
            );
        }
        // The headline claim at least for the control-heavy ADPCM rows:
        // strictly positive improvement.
        for r in rows.iter().filter(|r| r.workload.starts_with("ADPCM")) {
            assert!(r.improvement > 0.0, "{} {} : {:.3}", r.workload, r.aux, r.improvement);
        }
        let s = render(&rows);
        assert!(s.contains("bi-512"));
        assert!(s.contains("Impr."));
    }
}
