//! Sweep benchmarking: per-run wall-clock and simulated cycles, emitted
//! as `BENCH_sweep.json` through [`crate::json::write`]:
//!
//! ```json
//! {
//!   "schema": "asbr-sweep-bench-v2",
//!   "threads": 8,
//!   "wall_nanos_total": 123456789,
//!   "cache_hits": 12,
//!   "cache_misses": 12,
//!   "runs": [
//!     {
//!       "label": "ADPCM Encode/bimodal/baseline",
//!       "workload": "ADPCM Encode",
//!       "predictor": "bimodal",
//!       "asbr": false,
//!       "samples": 400,
//!       "cycles": 100,
//!       "folds": 0,
//!       "wall_nanos": 42,
//!       "cached": false,
//!       "attribution": {
//!         "useful": 80,
//!         "fill_drain": 4,
//!         ...
//!       }
//!     },
//!     ...
//!   ]
//! }
//! ```
//!
//! The `attribution` object carries one key per [`CycleBucket`] (in
//! [`CycleBucket::ALL`] order); the values partition `cycles` exactly.

use std::time::Duration;

use asbr_sim::{CycleBucket, NUM_BUCKETS};

use crate::json::{ToJson, Value};
use crate::spec::{RunOutcome, RunSpec};

/// Schema tag written into the JSON. v2 adds per-run `attribution`.
pub const BENCH_SCHEMA: &str = "asbr-sweep-bench-v2";

/// One run's record in the sweep benchmark.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BenchEntry {
    /// Human label of the spec (`workload/predictor/mode`).
    pub label: String,
    /// Workload name.
    pub workload: String,
    /// Predictor label.
    pub predictor: String,
    /// Whether the run was ASBR-customized.
    pub asbr: bool,
    /// Input samples.
    pub samples: usize,
    /// Simulated machine cycles.
    pub cycles: u64,
    /// Branches folded by the ASBR unit (0 for baselines).
    pub folds: u64,
    /// Wall-clock nanoseconds producing the outcome (simulation, or
    /// cache load on a hit).
    pub wall_nanos: u64,
    /// Whether the outcome came from the cache / in-sweep dedup.
    pub cached: bool,
    /// Per-bucket cycle attribution, in [`CycleBucket::ALL`] order; the
    /// counts partition `cycles` exactly.
    pub attribution: [u64; NUM_BUCKETS],
}

/// The whole sweep's benchmark: per-run records plus totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepBench {
    /// Worker threads the sweep ran with.
    pub threads: usize,
    /// End-to-end wall-clock of the sweep in nanoseconds.
    pub wall_nanos_total: u64,
    /// Per-run records, in spec order.
    pub runs: Vec<BenchEntry>,
}

impl SweepBench {
    /// Builds the benchmark from parallel spec/outcome slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree in length.
    #[must_use]
    pub fn from_runs(
        specs: &[RunSpec],
        outcomes: &[RunOutcome],
        threads: usize,
        total: Duration,
    ) -> SweepBench {
        assert_eq!(specs.len(), outcomes.len(), "one outcome per spec");
        let runs = specs
            .iter()
            .zip(outcomes)
            .map(|(spec, out)| BenchEntry {
                label: spec.label(),
                workload: spec.workload.name().to_owned(),
                predictor: spec.predictor.label(),
                asbr: spec.asbr.is_some(),
                samples: spec.samples,
                cycles: out.cycles(),
                folds: out.folds(),
                wall_nanos: out.wall_nanos,
                cached: out.cached,
                attribution: out.summary.stats.attribution.buckets(),
            })
            .collect();
        SweepBench {
            threads,
            wall_nanos_total: u64::try_from(total.as_nanos()).unwrap_or(u64::MAX),
            runs,
        }
    }

    /// Runs served from the cache or deduped in-sweep.
    #[must_use]
    pub fn cache_hits(&self) -> usize {
        self.runs.iter().filter(|r| r.cached).count()
    }

    /// Runs that actually simulated.
    #[must_use]
    pub fn cache_misses(&self) -> usize {
        self.runs.len() - self.cache_hits()
    }
}

impl ToJson for BenchEntry {
    fn to_json(&self) -> Value {
        let BenchEntry {
            label, workload, predictor, asbr, samples, cycles, folds, wall_nanos, cached, attribution,
        } = self;
        let buckets = CycleBucket::ALL.iter().zip(attribution);
        Value::obj([
            ("label", label.to_json()),
            ("workload", workload.to_json()),
            ("predictor", predictor.to_json()),
            ("asbr", asbr.to_json()),
            ("samples", samples.to_json()),
            ("cycles", cycles.to_json()),
            ("folds", folds.to_json()),
            ("wall_nanos", wall_nanos.to_json()),
            ("cached", cached.to_json()),
            ("attribution", Value::obj(buckets.map(|(b, n)| (b.name(), n.to_json())))),
        ])
    }
}

impl ToJson for SweepBench {
    fn to_json(&self) -> Value {
        Value::obj([
            ("schema", BENCH_SCHEMA.to_json()),
            ("threads", self.threads.to_json()),
            ("wall_nanos_total", self.wall_nanos_total.to_json()),
            ("cache_hits", self.cache_hits().to_json()),
            ("cache_misses", self.cache_misses().to_json()),
            ("runs", self.runs.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use asbr_bpred::PredictorKind;
    use asbr_workloads::Workload;

    #[test]
    fn json_shape_and_counts() {
        let specs = [
            RunSpec::baseline(Workload::AdpcmEncode, PredictorKind::NotTaken, 30),
            RunSpec::asbr(Workload::AdpcmEncode, PredictorKind::NotTaken, 30),
        ];
        let outcomes: Vec<_> = specs.iter().map(|s| s.execute().unwrap()).collect();
        let mut bench =
            SweepBench::from_runs(&specs, &outcomes, 2, Duration::from_millis(5));
        bench.runs[1].cached = true;
        assert_eq!(bench.cache_hits(), 1);
        assert_eq!(bench.cache_misses(), 1);
        let doc = json::parse(&bench.to_json().pretty()).unwrap();
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some(BENCH_SCHEMA));
        assert_eq!(doc.get("cache_hits").and_then(Value::as_u64), Some(1));
        let runs = doc.get("runs").and_then(Value::as_arr).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].get("asbr").and_then(Value::as_bool), Some(true));
        // Buckets must partition cycles in the serialized record too.
        for (r, out) in runs.iter().zip(&outcomes) {
            let Some(Value::Obj(buckets)) = r.get("attribution") else { panic!("{r:?}") };
            assert_eq!(buckets[0].0, "useful");
            let total: u64 = buckets.iter().map(|(_, n)| n.as_u64().unwrap()).sum();
            assert_eq!(total, out.cycles());
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        let label = "a\"b\\c\nd\u{1}";
        let entry = BenchEntry { label: label.to_owned(), ..BenchEntry::default() };
        let text = entry.to_json().pretty();
        assert!(text.contains(r#""label": "a\"b\\c\nd\u0001""#), "{text}");
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("label").and_then(Value::as_str), Some(label));
    }
}
