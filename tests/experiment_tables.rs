//! Table-harness integration: every figure regenerates at smoke scale
//! with the qualitative shape the paper reports.

use asbr_bpred::PredictorKind;
use asbr_experiments::{branch_tables, fig11, fig6};
use asbr_harness::{Executor, SAMPLES_SMOKE};
use asbr_workloads::Workload;

#[test]
fn fig6_regenerates_with_paper_orderings() {
    let specs = fig6::space(SAMPLES_SMOKE, &PredictorKind::BASELINES).specs();
    let rows = fig6::rows(&specs, &Executor::new().run(&specs).unwrap());
    assert_eq!(rows.len(), 12);
    for w in Workload::ALL {
        let acc = |p: &str| {
            rows.iter()
                .find(|r| r.workload == w.name() && r.predictor == p)
                .unwrap()
                .accuracy
        };
        // Dynamic predictors dominate the static default (the paper's
        // margin is huge on ADPCM and smaller on G.721, whose branch
        // layout in our hand-port is more fall-through-biased than the
        // gcc binary's).
        assert!(acc("bimodal") > acc("not taken"), "{}", w.name());
        assert!(acc("gshare") > acc("not taken"), "{}", w.name());
    }
    // G.721 is more predictable than ADPCM for the dynamic predictors
    // (91% vs ~70% in the paper).
    let bi = |w: Workload| {
        rows.iter()
            .find(|r| r.workload == w.name() && r.predictor == "bimodal")
            .unwrap()
            .accuracy
    };
    assert!(bi(Workload::G721Encode) > bi(Workload::AdpcmEncode));
}

#[test]
fn branch_tables_select_hot_hard_branches() {
    for (w, max) in [
        (Workload::AdpcmEncode, 16),
        (Workload::AdpcmDecode, 16),
        (Workload::G721Encode, 16),
    ] {
        let t = branch_tables::table(w, SAMPLES_SMOKE, max).unwrap();
        assert!(!t.rows.is_empty(), "{}", w.name());
        assert!(t.rows.len() <= max);
        // Selected branches are hot — the selection's frequency floor
        // must have filtered one-shot branches out.
        for r in &t.rows {
            assert!(r.exec >= SAMPLES_SMOKE as u64 / 4, "{}: br@{:#x} {}", w.name(), r.pc, r.exec);
        }
    }
}

#[test]
fn fig11_regenerates_and_renders() {
    let specs = fig11::space(SAMPLES_SMOKE).specs();
    let rows = fig11::rows(&specs, &Executor::new().run(&specs).unwrap());
    assert_eq!(rows.len(), 12);
    let rendered = fig11::render(&rows);
    for w in Workload::ALL {
        assert!(rendered.contains(w.name()));
    }
    for r in &rows {
        assert!(r.selected > 0, "{} {}", r.workload, r.aux);
        assert!(r.cycles > 0);
    }
}
