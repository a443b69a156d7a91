//! Integration tests for the design-space exploration API: dominance
//! semantics, seeded-search determinism across thread counts, guided vs.
//! exhaustive agreement on an enumerable space, and cold→warm cache
//! behavior of repeated explorations.

use std::path::PathBuf;

use asbr_bpred::PredictorKind;
use asbr_harness::json::{self, ToJson, Value};
use asbr_harness::{
    dominates, pareto_indices, Axis, CacheMode, Constraint, CostModel, DesignSpace, Executor,
    Exploration, ExploreReport, Metric, Objective, RunSpec, SearchStrategy, PARETO_SCHEMA,
};
use asbr_workloads::Workload;

const SAMPLES: usize = 120;

/// A scratch on-disk cache under the system temp dir, removed on drop.
struct ScratchCache(PathBuf);

impl ScratchCache {
    fn new(tag: &str) -> ScratchCache {
        let dir = std::env::temp_dir()
            .join(format!("asbr-explore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchCache(dir)
    }

    fn mode(&self) -> CacheMode {
        CacheMode::Enabled(self.0.clone())
    }
}

impl Drop for ScratchCache {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The 12-point ASBR space the CLI calls `small`, with cycles + area
/// objectives and the baseline-front-end area budget as a constraint.
fn small_exploration(strategy: SearchStrategy) -> Exploration {
    let model = CostModel::default();
    let base = RunSpec::asbr(
        Workload::AdpcmEncode,
        PredictorKind::Bimodal { entries: 512 },
        SAMPLES,
    );
    let baseline_area = model
        .cost_of(&RunSpec::baseline(
            Workload::AdpcmEncode,
            PredictorKind::Bimodal { entries: 2048 },
            SAMPLES,
        ))
        .total_area();
    Exploration {
        space: DesignSpace::new(base)
            .axis(Axis::predictors([
                PredictorKind::NotTaken,
                PredictorKind::Bimodal { entries: 256 },
                PredictorKind::Bimodal { entries: 512 },
            ]))
            .axis(Axis::btb_entries([256, 512]))
            .axis(Axis::bit_entries([8, 16])),
        objectives: vec![
            Objective::minimize(Metric::cycles()),
            Objective::minimize(Metric::area(model)),
        ],
        constraints: vec![Constraint::at_most(Metric::area(model), baseline_area)],
        strategy,
    }
}

/// The specs on a report's front, in front order.
fn front_specs(report: &ExploreReport) -> Vec<RunSpec> {
    report.front_points().iter().map(|p| p.spec).collect()
}

#[test]
fn dominance_and_front_semantics() {
    // Strict dominance: no worse everywhere, better somewhere.
    assert!(dominates(&[1.0, 2.0, 3.0], &[1.0, 2.0, 4.0]));
    assert!(!dominates(&[1.0, 2.0, 4.0], &[1.0, 2.0, 3.0]));
    // Equal vectors never dominate each other, so ties coexist.
    assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0]));
    // Trade-offs are incomparable in both directions.
    assert!(!dominates(&[1.0, 9.0], &[9.0, 1.0]));
    assert!(!dominates(&[9.0, 1.0], &[1.0, 9.0]));

    let pts = vec![
        vec![3.0, 1.0], // front
        vec![1.0, 3.0], // front
        vec![3.0, 3.0], // dominated by both
        vec![2.0, 2.0], // front (incomparable with the extremes)
        vec![3.0, 1.0], // tie with 0: survives
    ];
    assert_eq!(pareto_indices(&pts), vec![0, 1, 3, 4]);

    // Every front point of a real exploration is mutually non-dominated
    // and feasible.
    let report =
        small_exploration(SearchStrategy::Exhaustive).run(&Executor::new()).unwrap();
    let front = report.front_points();
    assert!(!front.is_empty(), "the exhaustive front cannot be empty");
    for p in &front {
        assert!(p.feasible, "{}: infeasible point on the front", p.label);
    }
    for a in &front {
        for b in &front {
            assert!(
                !dominates(&a.objectives, &b.objectives),
                "{} dominates {} on the front",
                a.label,
                b.label
            );
        }
    }
}

#[test]
fn guided_search_is_thread_count_invariant() {
    let strategy = SearchStrategy::Guided { budget: 6, rounds: 3, seed: 7 };
    let want = small_exploration(strategy).run(&Executor::new().threads(1)).unwrap();
    for threads in [2usize, 8] {
        let got =
            small_exploration(strategy).run(&Executor::new().threads(threads)).unwrap();
        assert_eq!(
            got.evaluated.iter().map(|p| p.ordinal).collect::<Vec<_>>(),
            want.evaluated.iter().map(|p| p.ordinal).collect::<Vec<_>>(),
            "{threads} threads changed the evaluation order"
        );
        assert_eq!(
            front_specs(&got),
            front_specs(&want),
            "{threads} threads changed the front"
        );
        assert_eq!(got.front, want.front, "{threads} threads changed the front indices");
    }
}

#[test]
fn guided_finds_the_exhaustive_front_on_the_small_space() {
    let exhaustive =
        small_exploration(SearchStrategy::Exhaustive).run(&Executor::new()).unwrap();
    assert_eq!(exhaustive.evaluations() as u64, exhaustive.space_size);

    let guided = small_exploration(SearchStrategy::Guided {
        budget: 6,
        rounds: 3,
        seed: 1,
    })
    .run(&Executor::new())
    .unwrap();
    // Fewer evaluations, exact same front.
    assert!(
        guided.evaluations() < exhaustive.evaluations(),
        "guided ({}) should evaluate fewer points than exhaustive ({})",
        guided.evaluations(),
        exhaustive.evaluations()
    );
    assert_eq!(
        front_specs(&guided),
        front_specs(&exhaustive),
        "guided search missed part of the exact front"
    );
}

#[test]
fn re_exploration_hits_the_warm_cache() {
    let scratch = ScratchCache::new("warm");
    let strategy = SearchStrategy::Guided { budget: 6, rounds: 2, seed: 3 };

    let cold = small_exploration(strategy)
        .run(&Executor::new().cache(scratch.mode()))
        .unwrap();
    // Points whose BIT size builds the same machine as an earlier point
    // are served without simulating and count as hits, with or without a
    // disk cache; a fresh cache directory must add no hits to those.
    let uncached = small_exploration(strategy).run(&Executor::new()).unwrap();
    assert_eq!(cold.cache_hits, uncached.cache_hits, "a fresh cache directory cannot hit");

    let warm = small_exploration(strategy)
        .run(&Executor::new().cache(scratch.mode()))
        .unwrap();
    assert!(
        warm.cache_hits > 0,
        "re-exploring an identical space must reuse cached outcomes"
    );
    assert!(warm.cache_hit_rate() > 0.0);
    assert_eq!(front_specs(&warm), front_specs(&cold), "the cache changed the result");
    assert_eq!(
        warm.evaluated.iter().map(|p| p.ordinal).collect::<Vec<_>>(),
        cold.evaluated.iter().map(|p| p.ordinal).collect::<Vec<_>>(),
    );
}

#[test]
fn report_json_carries_the_schema_and_front() {
    let report = small_exploration(SearchStrategy::Exhaustive)
        .run(&Executor::new())
        .unwrap();
    let json = report.to_json().pretty();
    assert!(json.contains(&format!("\"schema\": \"{PARETO_SCHEMA}\"")), "{json}");
    assert!(json.contains("\"front\""));
    assert!(json.contains("\"cache_hit_rate\""));
    for p in report.front_points() {
        assert!(json.contains(&p.label), "front label {} missing from JSON", p.label);
    }
    // The document round-trips through the strict parser.
    let parsed = json::parse(&json).expect("PARETO JSON parses");
    assert_eq!(parsed.get("schema").and_then(|v| v.as_str()), Some(PARETO_SCHEMA));
    assert!(parsed.get("front").is_some());
}

/// An objective with no finite value is written as `null`: the document
/// stays JSON the codec's own parser accepts.
#[test]
fn report_json_writes_non_finite_objectives_as_null() {
    let mut exploration = small_exploration(SearchStrategy::Exhaustive);
    exploration.objectives.push(Objective::maximize(Metric::custom("headroom", |spec, _| {
        if spec.btb_entries == 512 { f64::INFINITY } else { 1.0 }
    })));
    let report = exploration.run(&Executor::new()).unwrap();
    let infinite: Vec<&str> = report
        .front_points()
        .iter()
        .filter(|p| p.objectives[2].is_infinite())
        .map(|p| p.label.as_str())
        .collect();
    assert!(!infinite.is_empty(), "no front point has an infinite objective");

    let doc = json::parse(&report.to_json().pretty()).expect("PARETO JSON parses");
    let front = doc.get("front").and_then(Value::as_arr).unwrap();
    assert_eq!(front.len(), report.front.len());
    for p in front {
        let label = p.get("label").and_then(Value::as_str).unwrap();
        let headroom = &p.get("objectives").and_then(Value::as_arr).unwrap()[2];
        if infinite.contains(&label) {
            assert_eq!(headroom, &Value::Null, "{label}");
        } else {
            assert_eq!(headroom.as_f64(), Some(1.0), "{label}");
        }
    }
}
