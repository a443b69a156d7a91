//! The `tables attribution` report: where the ASBR cycles went.
//!
//! Figures 6 and 11 report *how many* cycles each configuration takes;
//! this report decomposes *why* the ASBR machine is faster, using the
//! exactly-one-bucket [`asbr_sim::CycleAttribution`] carried by every
//! run. For each benchmark it runs the headline pair — the
//! general-purpose bimodal-2048 baseline against ASBR with the paper's
//! bi-512 auxiliary — and prints the per-bucket cycle delta plus the
//! per-branch-PC breakdown of the branch-related savings.
//!
//! Two identities make the report checkable rather than merely
//! suggestive (asserted by the module tests and `tests/attribution.rs`):
//!
//! * each run's buckets partition its cycles exactly, so the bucket
//!   deltas partition the headline cycle delta exactly; and
//! * the per-branch savings — each site's retired-slot delta (its
//!   correct-path folds) plus the change in its flush cycles — sum to
//!   `ΔUseful + ΔBranchFlush`, the aggregate branch-related saving.
//!   Fold *events* alone would over-count: folds on a squashed wrong
//!   path never save a slot.

use asbr_bpred::PredictorKind;
use asbr_harness::{impl_to_json, RunOutcome, RunSpec};
use asbr_sim::{CycleBucket, NUM_BUCKETS};
use asbr_workloads::Workload;

use crate::tablefmt::{thousands, Table};

/// The general-purpose baseline of the headline comparison (the paper's
/// "general-purpose bimodal predictor" the Figure 11 percentages are
/// quoted against).
pub const BASELINE: PredictorKind = PredictorKind::Bimodal { entries: 2048 };

/// The ASBR auxiliary predictor of the headline comparison (bi-512 with
/// the quarter-size BTB, as in Figure 11).
pub const AUXILIARY: PredictorKind = PredictorKind::Bimodal { entries: 512 };

/// What one static branch PC contributed to the baseline → ASBR delta.
#[derive(Debug, Clone, Copy)]
pub struct BranchDelta {
    /// Branch PC.
    pub pc: u32,
    /// Fold *events* at this branch in the ASBR run. Counted at fetch,
    /// so wrong-path folds (squashed before they could save anything)
    /// are included — this can exceed the retired-slot saving.
    pub folds: u64,
    /// Times the branch retired in the baseline run.
    pub baseline_retired: u64,
    /// Times the branch retired in the ASBR run. The difference against
    /// `baseline_retired` is exactly the branch's correct-path folds.
    pub asbr_retired: u64,
    /// Cycles the baseline lost to this branch's mispredict flushes.
    pub baseline_flush_cycles: u64,
    /// Cycles the ASBR run lost to this branch's mispredict flushes.
    pub asbr_flush_cycles: u64,
}

impl_to_json!(BranchDelta { pc, folds, baseline_retired, asbr_retired, baseline_flush_cycles, asbr_flush_cycles });

impl BranchDelta {
    /// Cycles this branch saved: the retired slots it vacated
    /// (correct-path folds) plus the flush cycles it no longer causes.
    /// Negative when the smaller auxiliary predictor made a non-selected
    /// branch *worse*.
    #[must_use]
    pub fn saving(&self) -> i64 {
        (self.baseline_retired as i64 - self.asbr_retired as i64)
            + (self.baseline_flush_cycles as i64 - self.asbr_flush_cycles as i64)
    }
}

/// One benchmark's baseline → ASBR attribution decomposition.
#[derive(Debug, Clone)]
pub struct Row {
    /// Benchmark name.
    pub workload: String,
    /// Baseline (bimodal-2048, no customization) cycles.
    pub baseline_cycles: u64,
    /// ASBR (bi-512 auxiliary, quarter BTB) cycles.
    pub asbr_cycles: u64,
    /// Baseline per-bucket cycles, in [`CycleBucket::ALL`] order.
    pub baseline: [u64; NUM_BUCKETS],
    /// ASBR per-bucket cycles, in [`CycleBucket::ALL`] order.
    pub asbr: [u64; NUM_BUCKETS],
    /// Per-branch-PC breakdown over the union of both runs' branch
    /// sites, sorted by PC.
    pub branches: Vec<BranchDelta>,
}

impl_to_json!(Row { workload, baseline_cycles, asbr_cycles, baseline, asbr, branches });

impl Row {
    /// Cycles saved in `bucket` (negative = the ASBR run spends more).
    #[must_use]
    pub fn saving(&self, bucket: CycleBucket) -> i64 {
        self.baseline[bucket as usize] as i64 - self.asbr[bucket as usize] as i64
    }

    /// The headline cycle saving; equals the sum of the per-bucket
    /// savings because each side's buckets partition its cycles.
    #[must_use]
    pub fn total_saving(&self) -> i64 {
        self.baseline_cycles as i64 - self.asbr_cycles as i64
    }

    /// The aggregate branch-related saving, `ΔUseful + ΔBranchFlush`:
    /// folded branches vacate retired slots (`Useful`) and selected
    /// branches stop flushing (`BranchFlush`).
    #[must_use]
    pub fn aggregate_branch_saving(&self) -> i64 {
        self.saving(CycleBucket::Useful) + self.saving(CycleBucket::BranchFlush)
    }

    /// Sum of the per-branch-PC savings; always equals
    /// [`Row::aggregate_branch_saving`] because per-site retirements and
    /// flush cycles are exactly the site-level shares of those two
    /// buckets (non-branch instructions retire identically in both
    /// runs, so their `Useful` contributions cancel).
    #[must_use]
    pub fn branch_saving(&self) -> i64 {
        self.branches.iter().map(BranchDelta::saving).sum()
    }
}

/// Builds the spec pairs behind the report, `[baseline, asbr]` per
/// workload in [`Workload::ALL`] order.
#[must_use]
pub fn specs(samples: usize) -> Vec<RunSpec> {
    Workload::ALL
        .into_iter()
        .flat_map(|w| {
            [RunSpec::baseline(w, BASELINE, samples), RunSpec::asbr(w, AUXILIARY, samples)]
        })
        .collect()
}

/// Projects the outcomes of [`specs`] onto one row per workload.
#[must_use]
pub fn rows(specs: &[RunSpec], outcomes: &[RunOutcome]) -> Vec<Row> {
    specs
        .chunks_exact(2)
        .zip(outcomes.chunks_exact(2))
        .map(|(pair, out)| pair_row(pair[0].workload.name(), &out[0], &out[1]))
        .collect()
}

fn pair_row(workload: &str, base: &RunOutcome, asbr: &RunOutcome) -> Row {
    let ba = &base.summary.stats.attribution;
    let aa = &asbr.summary.stats.attribution;
    let mut pcs: Vec<u32> = ba.sites().keys().chain(aa.sites().keys()).copied().collect();
    pcs.sort_unstable();
    pcs.dedup();
    let branches = pcs
        .into_iter()
        .map(|pc| {
            let b = ba.site(pc).copied().unwrap_or_default();
            let a = aa.site(pc).copied().unwrap_or_default();
            BranchDelta {
                pc,
                folds: a.folds,
                baseline_retired: b.retired,
                asbr_retired: a.retired,
                baseline_flush_cycles: b.flush_cycles,
                asbr_flush_cycles: a.flush_cycles,
            }
        })
        .collect();
    Row {
        workload: workload.to_owned(),
        baseline_cycles: base.cycles(),
        asbr_cycles: asbr.cycles(),
        baseline: ba.buckets(),
        asbr: aa.buckets(),
        branches,
    }
}

fn signed(n: i64) -> String {
    if n < 0 {
        format!("-{}", thousands(n.unsigned_abs()))
    } else {
        thousands(n.unsigned_abs())
    }
}

/// Renders one per-workload block per row: the bucket decomposition
/// table followed by the per-branch breakdown of the branch buckets.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    for r in rows {
        out.push_str(&format!(
            "{}: {} -> {} cycles (saved {}, {:+.1}%)\n",
            r.workload,
            thousands(r.baseline_cycles),
            thousands(r.asbr_cycles),
            signed(r.total_saving()),
            r.total_saving() as f64 / r.baseline_cycles as f64 * 100.0,
        ));
        let mut t = Table::new(vec![
            "bucket".into(),
            "baseline".into(),
            "asbr".into(),
            "saved".into(),
        ]);
        for b in CycleBucket::ALL {
            t.row(vec![
                b.name().into(),
                thousands(r.baseline[b as usize]),
                thousands(r.asbr[b as usize]),
                signed(r.saving(b)),
            ]);
        }
        t.row(vec![
            "total".into(),
            thousands(r.baseline_cycles),
            thousands(r.asbr_cycles),
            signed(r.total_saving()),
        ]);
        out.push_str(&t.render());
        out.push_str(&format!(
            "branch-related saving {} = ΔUseful {} + ΔBranchFlush {}; by site:\n",
            signed(r.aggregate_branch_saving()),
            signed(r.saving(CycleBucket::Useful)),
            signed(r.saving(CycleBucket::BranchFlush)),
        ));
        for d in r.branches.iter().filter(|d| d.saving() != 0 || d.folds > 0) {
            out.push_str(&format!(
                "  {:#010x}  folds {:>8} ({} on the retired path)  \
                 flush cycles {:>8} -> {:<8} saved {}\n",
                d.pc,
                thousands(d.folds),
                signed(d.baseline_retired as i64 - d.asbr_retired as i64),
                thousands(d.baseline_flush_cycles),
                thousands(d.asbr_flush_cycles),
                signed(d.saving()),
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use asbr_harness::Executor;

    use super::*;

    #[test]
    fn buckets_partition_and_branch_savings_sum() {
        let specs = specs(250);
        let rows = rows(&specs, &Executor::new().run(&specs).unwrap());
        assert_eq!(rows.len(), Workload::ALL.len());
        for r in &rows {
            // Each side's buckets partition its cycles, so the bucket
            // savings partition the headline delta.
            assert_eq!(r.baseline.iter().sum::<u64>(), r.baseline_cycles, "{}", r.workload);
            assert_eq!(r.asbr.iter().sum::<u64>(), r.asbr_cycles, "{}", r.workload);
            let bucket_sum: i64 = CycleBucket::ALL.iter().map(|&b| r.saving(b)).sum();
            assert_eq!(bucket_sum, r.total_saving(), "{}", r.workload);
            // Per-branch-PC savings sum to the aggregate branch saving.
            assert_eq!(r.branch_saving(), r.aggregate_branch_saving(), "{}", r.workload);
            assert!(r.branches.iter().any(|d| d.folds > 0), "{} never folded", r.workload);
        }
        let s = render(&rows);
        assert!(s.contains("branch_flush"));
        assert!(s.contains("ΔUseful"));
    }
}
