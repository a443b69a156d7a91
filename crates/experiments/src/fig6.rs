//! Figure 6: baseline branch predictability of the benchmarks.
//!
//! "figure 6 reports execution results for all four benchmarks obtained by
//! using well-known general-purpose branch predictors; total number of
//! cycles, CPI, and accuracy measurements are given for each predictor."

use asbr_bpred::PredictorKind;
use asbr_harness::{impl_to_json, Axis, DesignSpace, RunOutcome, RunSpec};
use asbr_workloads::Workload;

use crate::tablefmt::{thousands, Table};

/// One cell group of Figure 6.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub workload: String,
    /// Predictor label (`not taken` / `bimodal` / `gshare`).
    pub predictor: String,
    /// Total processor cycles.
    pub cycles: u64,
    /// Cycles per committed instruction.
    pub cpi: f64,
    /// Overall direction-prediction accuracy.
    pub accuracy: f64,
}

impl_to_json!(Row { workload, predictor, cycles, cpi, accuracy });

/// The design space behind Figure 6: every benchmark under each of
/// `kinds` on the full-size baseline BTB, predictor-major.
#[must_use]
pub fn space(samples: usize, kinds: &[PredictorKind]) -> DesignSpace {
    DesignSpace::new(RunSpec::baseline(Workload::AdpcmEncode, PredictorKind::NotTaken, samples))
        .axis(Axis::predictors(kinds.iter().copied()))
        .axis(Axis::workloads(Workload::ALL))
}

/// Projects the outcomes of a [`space`]'s specs onto its rows, one per
/// spec.
#[must_use]
pub fn rows(specs: &[RunSpec], outcomes: &[RunOutcome]) -> Vec<Row> {
    specs
        .iter()
        .zip(outcomes)
        .map(|(spec, out)| Row {
            workload: spec.workload.name().to_owned(),
            predictor: spec.predictor.label(),
            cycles: out.cycles(),
            cpi: out.summary.stats.cpi(),
            accuracy: out.summary.stats.accuracy(),
        })
        .collect()
}

/// Renders the rows in the paper's layout (predictors as rows, benchmarks
/// as column groups).
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut header = vec![String::new()];
    for w in Workload::ALL {
        header.push(format!("{} Cycles", w.name()));
        header.push("CPI".to_owned());
        header.push("Acc".to_owned());
    }
    let mut t = Table::new(header);
    for kind in PredictorKind::BASELINES {
        let label = kind.label();
        let mut cells = vec![label.clone()];
        for w in Workload::ALL {
            let row = rows
                .iter()
                .find(|r| r.workload == w.name() && r.predictor == label)
                .expect("complete table");
            cells.push(thousands(row.cycles));
            // `cpi` is NaN when a run retired nothing.
            cells.push(if row.cpi.is_finite() {
                format!("{:.2}", row.cpi)
            } else {
                "n/a".to_owned()
            });
            cells.push(format!("{:.0}%", row.accuracy * 100.0));
        }
        t.row(cells);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use asbr_harness::json::{ToJson, Value};
    use asbr_harness::Executor;

    use super::*;

    /// `results/fig6.json` keeps the key order of its rows.
    #[test]
    fn json_keys_follow_the_row_fields() {
        let row = Row {
            workload: "ADPCM Encode".to_owned(),
            predictor: "bimodal".to_owned(),
            cycles: 21_659,
            cpi: 1.25,
            accuracy: 0.875,
        };
        let Value::Obj(fields) = row.to_json() else { panic!("a row is an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["workload", "predictor", "cycles", "cpi", "accuracy"]);
    }

    #[test]
    fn shape_and_orderings() {
        let specs = space(150, &PredictorKind::BASELINES).specs();
        let rows = rows(&specs, &Executor::new().run(&specs).unwrap());
        assert_eq!(rows.len(), 12);
        // Accuracy ordering the paper shows: dynamic predictors beat
        // static not-taken on every benchmark.
        for w in Workload::ALL {
            let get = |p: &str| {
                rows.iter()
                    .find(|r| r.workload == w.name() && r.predictor == p)
                    .unwrap()
            };
            let nt = get("not taken");
            let bi = get("bimodal");
            assert!(
                bi.accuracy > nt.accuracy,
                "{}: bimodal {} <= not-taken {}",
                w.name(),
                bi.accuracy,
                nt.accuracy
            );
            assert!(bi.cycles < nt.cycles, "{}", w.name());
            assert!(nt.cpi > 1.0);
        }
        let rendered = render(&rows);
        assert!(rendered.contains("ADPCM Encode"));
        assert!(rendered.contains("gshare"));
    }
}
