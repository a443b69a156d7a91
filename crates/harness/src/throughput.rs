//! Host-throughput benchmarking: simulated cycles (and instructions) per
//! host second, per workload × configuration, emitted as
//! `BENCH_throughput.json`.
//!
//! Where [`crate::SweepBench`] records how long a *sweep* took end to
//! end, this module measures the simulator hot loop itself: each spec is
//! prepared once (assemble, input synthesis, profile + selection for
//! ASBR specs) *outside* the timed region, then the pipeline run is
//! repeated `reps` times and the best wall-clock kept — the standard
//! best-of-N protocol that rejects scheduler noise. Simulated cycle
//! counts must be identical across repetitions (the simulator is
//! deterministic); [`ThroughputBench::measure`] asserts this.
//!
//! [`ThroughputBench`]'s [`ToJson`] form is the document: the schema tag,
//! `samples`, `reps`, the [`HostInfo`] block under `host`, and one object
//! per entry with its fields, a constant `"strategy": "scalar"`, and the
//! derived `cycles_per_sec` and `mips` (unrounded). `docs/performance.md`
//! shows a full example in the codec's layout.
//!
//! Schema history: v1 had no `host` block and no per-entry `strategy` /
//! `mean_nanos` / `stddev_nanos`; all additions are purely additive, and
//! the golden reader ([`ThroughputBench::parse_cycles`]) keys only on
//! `label` + `cycles`, so v1 goldens stay checkable against v2 runs.
//! Every entry's `strategy` is `"scalar"`, one cycle-accurate pipeline
//! per run: v2 also carried entries of a sampled estimator, since
//! deleted, and the field stays so v2 readers keep working.

use std::time::Instant;

use crate::error::HarnessError;
use crate::host::HostInfo;
use crate::json::{self, ToJson, Value};
use crate::prefix::Prefix;
use crate::spec::{RunSpec, PROFILE_PREDICTOR};

/// Schema tag written into the JSON.
pub const THROUGHPUT_SCHEMA: &str = "asbr-throughput-bench-v2";

/// Repetition spread (standard deviation over mean) above which an entry
/// earns a [`ThroughputBench::spread_warnings`] line.
pub const SPREAD_WARN_FRACTION: f64 = 0.10;

/// Default input scale for the committed `results/BENCH_throughput.json`.
pub const THROUGHPUT_SAMPLES: usize = 4000;

/// Default best-of repetitions.
pub const THROUGHPUT_REPS: usize = 5;

/// A host-throughput measurement request: which specs to time, at what
/// input scale, with how many best-of repetitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThroughputSpec {
    /// Input samples fed to every workload.
    pub samples: usize,
    /// Timed repetitions per spec (best kept).
    pub reps: usize,
    /// The runs to measure.
    pub specs: Vec<RunSpec>,
}

impl ThroughputSpec {
    /// The standard trajectory: every workload, baseline and
    /// ASBR-customized, under the paper's baseline bimodal predictor.
    #[must_use]
    pub fn standard(samples: usize, reps: usize) -> ThroughputSpec {
        let mut specs = Vec::with_capacity(asbr_workloads::Workload::ALL.len() * 2);
        for w in asbr_workloads::Workload::ALL {
            specs.push(RunSpec::baseline(w, PROFILE_PREDICTOR, samples));
        }
        for w in asbr_workloads::Workload::ALL {
            specs.push(RunSpec::asbr(w, PROFILE_PREDICTOR, samples));
        }
        ThroughputSpec { samples, reps: reps.max(1), specs }
    }

    /// Runs the measurement: untimed preparation per spec, then `reps`
    /// timed pipeline runs keeping the best (plus mean/stddev across the
    /// repetitions).
    ///
    /// # Errors
    ///
    /// Propagates any [`HarnessError`] from preparation or a timed run.
    ///
    /// # Panics
    ///
    /// Panics if the deterministic simulator disagrees with itself: a
    /// repetition returning a different simulated cycle count is a
    /// simulator bug, not measurement noise.
    pub fn measure(&self) -> Result<ThroughputBench, HarnessError> {
        let mut entries = Vec::with_capacity(self.specs.len());
        for spec in &self.specs {
            // Everything data-dependent happens outside the timed region:
            // the measurement is the simulator hot loop, not assembly,
            // profiling or selection.
            let prefix = Prefix::of(spec);
            let machine = prefix.resolve(spec)?;

            let mut rep_nanos = Vec::with_capacity(self.reps);
            let mut cycles = 0u64;
            let mut retired = 0u64;
            for rep in 0..self.reps {
                let started = Instant::now();
                let (out, _) = machine.run(&prefix.program, &prefix.input)?;
                let nanos =
                    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX).max(1);
                if rep == 0 {
                    cycles = out.cycles();
                    retired = out.summary.stats.retired;
                } else {
                    assert_eq!(
                        cycles,
                        out.cycles(),
                        "non-deterministic cycle count for {}",
                        spec.label()
                    );
                }
                rep_nanos.push(nanos);
            }
            entries.push(ThroughputEntry::from_timings(spec, cycles, retired, &rep_nanos));
        }
        Ok(ThroughputBench {
            samples: self.samples,
            reps: self.reps,
            host: HostInfo::gather(1, 1),
            entries,
        })
    }
}

/// One spec's throughput record.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ThroughputEntry {
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
    /// Simulated machine cycles (identical across repetitions).
    pub cycles: u64,
    /// Simulated instructions retired.
    pub retired: u64,
    /// Best wall-clock nanoseconds over the repetitions.
    pub best_nanos: u64,
    /// Mean wall-clock nanoseconds across the repetitions.
    pub mean_nanos: u64,
    /// Sample standard deviation of the repetition wall-clocks (0 for a
    /// single repetition).
    pub stddev_nanos: u64,
}

impl ThroughputEntry {
    /// Builds an entry from a spec's identity plus its repetition
    /// wall-clock timings.
    fn from_timings(spec: &RunSpec, cycles: u64, retired: u64, rep_nanos: &[u64]) -> ThroughputEntry {
        let best_nanos = rep_nanos.iter().copied().min().unwrap_or(1);
        let n = rep_nanos.len().max(1) as f64;
        let mean = rep_nanos.iter().map(|&x| x as f64).sum::<f64>() / n;
        let stddev = if rep_nanos.len() >= 2 {
            (rep_nanos.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt()
        } else {
            0.0
        };
        ThroughputEntry {
            label: spec.label(),
            workload: spec.workload.name().to_owned(),
            predictor: spec.predictor.label(),
            asbr: spec.asbr.is_some(),
            samples: spec.samples,
            cycles,
            retired,
            best_nanos,
            mean_nanos: mean.round() as u64,
            stddev_nanos: stddev.round() as u64,
        }
    }

    /// Simulated cycles per host second at the best repetition.
    #[must_use]
    pub fn cycles_per_sec(&self) -> u64 {
        mul_div(self.cycles, 1_000_000_000, self.best_nanos)
    }

    /// Simulated millions of instructions per host second.
    #[must_use]
    pub fn mips(&self) -> f64 {
        self.retired as f64 * 1000.0 / self.best_nanos as f64
    }

    /// Repetition spread: standard deviation over mean (0 when there is
    /// no mean).
    #[must_use]
    pub fn spread(&self) -> f64 {
        if self.mean_nanos == 0 {
            0.0
        } else {
            self.stddev_nanos as f64 / self.mean_nanos as f64
        }
    }
}

/// `a * b / c` in 128-bit, saturating on overflow.
fn mul_div(a: u64, b: u64, c: u64) -> u64 {
    let c = u128::from(c.max(1));
    u64::try_from(u128::from(a) * u128::from(b) / c).unwrap_or(u64::MAX)
}

/// A completed throughput measurement, renderable as
/// `BENCH_throughput.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThroughputBench {
    /// Input scale shared by the entries.
    pub samples: usize,
    /// Best-of repetitions used.
    pub reps: usize,
    /// Machine the wall-clock numbers were taken on.
    pub host: HostInfo,
    /// Per-spec records, in spec order.
    pub entries: Vec<ThroughputEntry>,
}

impl ThroughputBench {
    /// One warning line per entry whose repetition spread exceeds
    /// [`SPREAD_WARN_FRACTION`] — wall-clock numbers from such a run are
    /// noise-dominated and should be re-measured on a quieter host.
    #[must_use]
    pub fn spread_warnings(&self) -> Vec<String> {
        self.entries
            .iter()
            .filter(|e| e.spread() > SPREAD_WARN_FRACTION)
            .map(|e| {
                format!(
                    "{}: wall-clock spread {:.0}% across {} reps (stddev {:.2} ms of mean {:.2} ms)",
                    e.label,
                    e.spread() * 100.0,
                    self.reps,
                    e.stddev_nanos as f64 / 1e6,
                    e.mean_nanos as f64 / 1e6,
                )
            })
            .collect()
    }

    /// Extracts the `(label, cycles)` pairs from a rendered
    /// `BENCH_throughput.json` — the golden-comparison fields. A real
    /// parse via [`crate::json`] (still dependency-free): the document
    /// must be exactly one well-formed JSON value — the previous
    /// scanning parser silently accepted trailing garbage and
    /// mid-document truncation — and each entry must carry a string
    /// `label` and an integer `cycles`.
    ///
    /// # Errors
    ///
    /// [`HarnessError::SpecParse`] (with 1-based line/column) when the
    /// text is not valid JSON, including anything after the closing
    /// brace; [`HarnessError::Spec`] naming the first malformed entry
    /// otherwise.
    pub fn parse_cycles(text: &str) -> Result<Vec<(String, u64)>, HarnessError> {
        let doc = json::parse(text)?;
        let entries = doc.get("entries").and_then(Value::as_arr).ok_or_else(|| {
            HarnessError::Spec("no `entries` array (not a BENCH_throughput.json?)".to_owned())
        })?;
        if entries.is_empty() {
            return Err(HarnessError::Spec("`entries` is empty".to_owned()));
        }
        entries
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let label = e
                    .get("label")
                    .and_then(Value::as_str)
                    .ok_or_else(|| {
                        HarnessError::Spec(format!("entry {i}: missing string `label`"))
                    })?
                    .to_owned();
                let cycles = e.get("cycles").and_then(Value::as_u64).ok_or_else(|| {
                    HarnessError::Spec(format!("entry `{label}`: missing integer `cycles`"))
                })?;
                Ok((label, cycles))
            })
            .collect()
    }

    /// Compares simulated cycle counts against a golden rendering,
    /// label by label. Wall-clock fields are ignored — only the
    /// simulation results must match, and the run and the golden must
    /// name the same labels.
    ///
    /// # Errors
    ///
    /// Lists every label whose cycles drifted or that is missing from
    /// either side; a golden file that does not parse reports the
    /// positioned [`HarnessError`] rendering.
    pub fn check_against(&self, golden_json: &str) -> Result<(), String> {
        let golden = ThroughputBench::parse_cycles(golden_json).map_err(|e| e.to_string())?;
        let mut drift = Vec::new();
        for (label, want) in &golden {
            let mut found = false;
            for e in self.entries.iter().filter(|e| e.label == *label) {
                found = true;
                if e.cycles != *want {
                    drift.push(format!(
                        "`{label}`: simulated {} cycles, golden pins {want}",
                        e.cycles
                    ));
                }
            }
            if !found {
                drift.push(format!("`{label}`: missing from this run"));
            }
        }
        for e in &self.entries {
            if !golden.iter().any(|(l, _)| l == &e.label) {
                drift.push(format!("`{}`: not in the golden", e.label));
            }
        }
        if drift.is_empty() {
            Ok(())
        } else {
            Err(format!("cycle counts drifted from the golden:\n  {}", drift.join("\n  ")))
        }
    }
}

impl ToJson for ThroughputEntry {
    fn to_json(&self) -> Value {
        let ThroughputEntry {
            label, workload, predictor, asbr, samples, cycles, retired, best_nanos, mean_nanos,
            stddev_nanos,
        } = self;
        Value::obj([
            ("label", label.to_json()),
            ("workload", workload.to_json()),
            ("predictor", predictor.to_json()),
            ("asbr", asbr.to_json()),
            ("strategy", "scalar".to_json()),
            ("samples", samples.to_json()),
            ("cycles", cycles.to_json()),
            ("retired", retired.to_json()),
            ("best_nanos", best_nanos.to_json()),
            ("mean_nanos", mean_nanos.to_json()),
            ("stddev_nanos", stddev_nanos.to_json()),
            ("cycles_per_sec", self.cycles_per_sec().to_json()),
            ("mips", self.mips().to_json()),
        ])
    }
}

impl ToJson for ThroughputBench {
    fn to_json(&self) -> Value {
        Value::obj([
            ("schema", THROUGHPUT_SCHEMA.to_json()),
            ("samples", self.samples.to_json()),
            ("reps", self.reps.to_json()),
            ("host", self.host.to_json()),
            ("entries", self.entries.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asbr_workloads::Workload;

    #[test]
    fn standard_covers_every_workload_twice() {
        let t = ThroughputSpec::standard(100, 2);
        assert_eq!(t.specs.len(), Workload::ALL.len() * 2);
        assert_eq!(t.specs.iter().filter(|s| s.asbr.is_some()).count(), Workload::ALL.len());
    }

    #[test]
    fn measure_produces_consistent_entries_and_json() {
        let t = ThroughputSpec {
            samples: 40,
            reps: 2,
            specs: vec![
                RunSpec::baseline(Workload::AdpcmEncode, PROFILE_PREDICTOR, 40),
                RunSpec::asbr(Workload::AdpcmEncode, PROFILE_PREDICTOR, 40),
            ],
        };
        let bench = t.measure().unwrap();
        assert_eq!(bench.entries.len(), 2);
        for e in &bench.entries {
            assert!(e.cycles > 0 && e.retired > 0 && e.best_nanos > 0);
            assert!(e.cycles >= e.retired, "CPI >= 1");
            assert!(e.cycles_per_sec() > 0);
            assert!(e.mips() > 0.0);
        }
        let doc = json::parse(&bench.to_json().pretty()).unwrap();
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some(THROUGHPUT_SCHEMA));
        assert!(doc.get("host").and_then(|h| h.get("cpu_model")).is_some());
        let entries = doc.get("entries").and_then(Value::as_arr).unwrap();
        assert_eq!(entries.len(), 2);
        for (e, want) in entries.iter().zip(&bench.entries) {
            assert_eq!(e.get("label").and_then(Value::as_str), Some(want.label.as_str()));
            assert_eq!(e.get("strategy").and_then(Value::as_str), Some("scalar"));
            assert_eq!(e.get("mean_nanos").and_then(Value::as_u64), Some(want.mean_nanos));
            assert_eq!(e.get("stddev_nanos").and_then(Value::as_u64), Some(want.stddev_nanos));
            assert_eq!(e.get("mips").and_then(Value::as_f64), Some(want.mips()));
        }
        assert_eq!(entries[1].get("asbr").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn stddev_is_the_sample_formula_over_repetitions() {
        // Pins the n-1 divisor: reps [100, 200, 600] have mean 300 and
        // sample stddev sqrt((200^2 + 100^2 + 300^2) / 2) = sqrt(70000)
        // ~= 264.6 -> 265. The population formula (divide by n) would
        // give sqrt(140000 / 3) ~= 216 — a drift this test would catch.
        let spec = RunSpec::baseline(Workload::AdpcmEncode, PROFILE_PREDICTOR, 10);
        let e = ThroughputEntry::from_timings(&spec, 1, 1, &[100, 200, 600]);
        assert_eq!(e.best_nanos, 100);
        assert_eq!(e.mean_nanos, 300);
        assert_eq!(e.stddev_nanos, 265);
        // Fewer than two repetitions have no spread, not a NaN.
        let single = ThroughputEntry::from_timings(&spec, 1, 1, &[100]);
        assert_eq!(single.stddev_nanos, 0);
        assert_eq!(single.spread(), 0.0);
    }

    /// An entry pinning `cycles` under `label`, every timing 1 ns.
    fn entry(label: &str, cycles: u64) -> ThroughputEntry {
        ThroughputEntry {
            label: label.to_owned(),
            cycles,
            retired: 1,
            best_nanos: 1,
            mean_nanos: 1,
            ..ThroughputEntry::default()
        }
    }

    /// A one-repetition bench of `entries`.
    fn bench_of(entries: Vec<ThroughputEntry>) -> ThroughputBench {
        ThroughputBench { samples: 10, reps: 1, host: HostInfo::gather(1, 1), entries }
    }

    #[test]
    fn spread_warnings_fire_above_ten_percent() {
        let mut e =
            ThroughputEntry { best_nanos: 90, mean_nanos: 100, stddev_nanos: 5, ..entry("x", 1) };
        let mut bench = ThroughputBench { reps: 3, ..bench_of(vec![e.clone()]) };
        assert!(bench.spread_warnings().is_empty(), "5% spread is quiet");
        e.stddev_nanos = 20;
        bench.entries = vec![e];
        let warns = bench.spread_warnings();
        assert_eq!(warns.len(), 1);
        assert!(warns[0].contains("20%"), "{warns:?}");
    }

    #[test]
    fn v1_goldens_without_host_or_strategy_still_check() {
        // A v1 document: no host block, no strategy/mean/stddev fields.
        let golden = r#"{
          "schema": "asbr-throughput-bench-v1",
          "samples": 10, "reps": 1,
          "entries": [ { "label": "a/b/baseline", "cycles": 100 } ]
        }"#;
        bench_of(vec![entry("a/b/baseline", 100)]).check_against(golden).unwrap();
    }

    #[test]
    fn parse_and_check_round_trip() {
        let bench = bench_of(vec![entry("a/b/baseline", 100), entry("a/b/asbr", 90)]);
        let json = bench.to_json().pretty();
        assert_eq!(
            ThroughputBench::parse_cycles(&json).unwrap(),
            vec![("a/b/baseline".to_owned(), 100), ("a/b/asbr".to_owned(), 90)]
        );
        bench.check_against(&json).unwrap();

        let mut drifted = bench.clone();
        drifted.entries[1].cycles = 91;
        let err = drifted.check_against(&json).unwrap_err();
        assert!(err.contains("a/b/asbr"), "{err}");
        assert!(err.contains("golden pins 90"), "{err}");

        let mut missing = bench.clone();
        missing.entries.pop();
        assert!(missing.check_against(&json).unwrap_err().contains("missing"));
        assert!(ThroughputBench::parse_cycles("{}").is_err());
    }

    #[test]
    fn an_entry_missing_from_the_golden_is_drift() {
        let golden = bench_of(vec![entry("a/b/baseline", 100)]).to_json().pretty();
        let mut bench =
            bench_of(vec![entry("a/b/baseline", 100), entry("a/b/baseline/sampled", 100)]);
        let err = bench.check_against(&golden).unwrap_err();
        assert!(err.contains("`a/b/baseline/sampled`: not in the golden"), "{err}");
        bench.entries.pop();
        bench.check_against(&golden).unwrap();
    }

    #[test]
    fn parse_cycles_rejects_malformed_goldens() {
        let json = bench_of(vec![entry("a/b/baseline", 100)]).to_json().pretty();

        // Trailing garbage after the document — the scanning parser this
        // replaced accepted it silently.
        let e = ThroughputBench::parse_cycles(&format!("{json}{{}}")).unwrap_err();
        assert!(
            matches!(e, HarnessError::SpecParse { line, .. } if line > 1),
            "expected a positioned parse error, got {e:?}"
        );

        // Mid-document truncation is a parse error, not an empty result.
        let truncated = &json[..json.len() / 2];
        assert!(matches!(
            ThroughputBench::parse_cycles(truncated),
            Err(HarnessError::SpecParse { .. })
        ));

        // Structurally valid JSON with a broken entry is named precisely.
        let e = ThroughputBench::parse_cycles(r#"{"entries": [{"label": "x"}]}"#).unwrap_err();
        assert!(e.to_string().contains("`x`"), "{e}");
        assert!(e.to_string().contains("cycles"), "{e}");
    }

    #[test]
    fn cycles_per_sec_is_overflow_safe() {
        assert_eq!(entry("", u64::MAX).cycles_per_sec(), u64::MAX);
    }
}
