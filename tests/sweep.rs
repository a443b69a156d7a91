//! Sweep-engine integration: the parallel executor must be bit-identical
//! to a single-threaded run, and the content-addressed result cache must
//! round-trip outcomes across executors (cold → warm) and honour the
//! refresh escape hatch.

use std::path::PathBuf;

use asbr_bpred::PredictorKind;
use asbr_experiments::{fig11, fig6};
use asbr_harness::{
    ArmSpec, Axis, CacheMode, DesignSpace, Executor, RunSpec, SweepBench, AUX_BTB, SAMPLES_SMOKE,
};
use asbr_workloads::Workload;

fn smoke_space() -> DesignSpace {
    let base = RunSpec::baseline(Workload::AdpcmEncode, PredictorKind::NotTaken, SAMPLES_SMOKE);
    DesignSpace::new(base)
        .axis(Axis::arms([
            ArmSpec::baseline(PredictorKind::Bimodal { entries: 2048 }),
            ArmSpec::baseline(PredictorKind::NotTaken),
            ArmSpec::asbr(PredictorKind::Bimodal { entries: 256 }),
        ]))
        .axis(Axis::workloads(Workload::ALL))
}

/// A unique per-test cache root under the target directory (kept out of
/// `results/` so test caches never leak into committed artifacts).
fn scratch_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asbr-sweep-test-{tag}-{}", std::process::id()));
    // Stale leftovers from a crashed run would turn cold runs warm.
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The 12 Figure 6 specs and the 24 Figure 11 specs `tables sweep` runs,
/// written out in the order it runs them: each figure arm-major, with the
/// workload varying fastest.
fn tables_sweep_specs(samples: usize) -> Vec<RunSpec> {
    let bi = |entries| PredictorKind::Bimodal { entries };
    let mut specs = Vec::new();
    let gshare = PredictorKind::Gshare { hist_bits: 11, entries: 2048 };
    for kind in [PredictorKind::NotTaken, bi(2048), gshare] {
        specs.extend(Workload::ALL.map(|w| RunSpec::baseline(w, kind, samples)));
    }
    for kind in [PredictorKind::NotTaken, bi(2048), bi(2048)] {
        specs.extend(Workload::ALL.map(|w| RunSpec::baseline(w, kind, samples)));
    }
    for aux in [PredictorKind::NotTaken, bi(512), bi(256)] {
        specs.extend(Workload::ALL.map(|w| RunSpec::asbr(w, aux, samples)));
    }
    specs
}

#[test]
fn tables_sweep_order_is_pinned() {
    let mut specs = fig6::space(400, &PredictorKind::BASELINES).specs();
    specs.extend(fig11::space(400).specs());
    assert_eq!(specs.len(), 12 + 24);
    assert_eq!(specs, tables_sweep_specs(400));
}

#[test]
fn parallel_sweep_is_byte_identical_to_single_thread() {
    let specs = smoke_space().specs();
    let serial = Executor::new().threads(1).run(&specs).unwrap();
    let parallel = Executor::new().threads(4).run(&specs).unwrap();
    assert_eq!(serial.len(), parallel.len());
    for ((spec, s), p) in specs.iter().zip(&serial).zip(&parallel) {
        assert!(s.same_result(p), "{} diverged across thread counts", spec.label());
        assert_eq!(s.summary.output, p.summary.output, "{}", spec.label());
        assert_eq!(s.selected, p.selected, "{}", spec.label());
    }
}

#[test]
fn cache_round_trip_cold_then_warm() {
    let root = scratch_cache("roundtrip");
    let specs = [
        RunSpec::baseline(Workload::AdpcmEncode, PredictorKind::NotTaken, 120),
        RunSpec::asbr(Workload::AdpcmEncode, PredictorKind::Bimodal { entries: 256 }, 120),
    ];

    let cold = Executor::new()
        .cache(CacheMode::Enabled(root.clone()))
        .run(&specs)
        .unwrap();
    assert!(cold.iter().all(|o| !o.cached), "cold run must miss the cache");

    let warm = Executor::new()
        .cache(CacheMode::Enabled(root.clone()))
        .run(&specs)
        .unwrap();
    assert!(warm.iter().all(|o| o.cached), "warm run must hit the cache");
    for (c, w) in cold.iter().zip(&warm) {
        assert!(c.same_result(w), "cached outcome must round-trip exactly");
    }

    // The bench report distinguishes hits from misses.
    let bench = SweepBench::from_runs(&specs, &warm, 1, std::time::Duration::from_millis(1));
    assert_eq!(bench.cache_hits(), specs.len());
    assert_eq!(bench.cache_misses(), 0);

    // --refresh evicts before running: outcomes recompute...
    let refreshed = Executor::new()
        .cache(CacheMode::Refresh(root.clone()))
        .run(&specs)
        .unwrap();
    assert!(refreshed.iter().all(|o| !o.cached), "refresh must invalidate");
    // ...and repopulate the store for the next warm run.
    let rewarm = Executor::new().cache(CacheMode::Enabled(root.clone())).run(&specs).unwrap();
    assert!(rewarm.iter().all(|o| o.cached));

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn cache_disabled_never_touches_disk() {
    let root = scratch_cache("disabled");
    let spec = RunSpec::baseline(Workload::AdpcmDecode, PredictorKind::NotTaken, 80);
    let out = Executor::new().cache(CacheMode::Disabled).run(&[spec]).unwrap();
    assert!(!out[0].cached);
    assert!(!root.exists(), "no cache directory may appear");
}

#[test]
fn cache_key_separates_configurations() {
    // Two specs differing only in a knob the summary may not expose must
    // still get distinct cache entries: a warm run of spec B after a cold
    // run of spec A must miss.
    let root = scratch_cache("keys");
    let a = RunSpec::baseline(Workload::G721Encode, PredictorKind::NotTaken, 90);
    let b = a.with_btb(AUX_BTB);
    let _ = Executor::new().cache(CacheMode::Enabled(root.clone())).run(&[a]).unwrap();
    let out = Executor::new().cache(CacheMode::Enabled(root.clone())).run(&[b]).unwrap();
    assert!(!out[0].cached, "different BTB size must be a different cache key");

    let _ = std::fs::remove_dir_all(&root);
}
