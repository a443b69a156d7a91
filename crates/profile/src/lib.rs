#![warn(missing_docs)]

//! Profiling and benefit-ranked ASBR branch selection.
//!
//! The paper selects BIT branches by profiling: "A detailed analysis of
//! all benchmarks has been performed and the set of branches that are
//! highly beneficial for folding have been identified by profiling"
//! (Sec. 8), prioritising **frequently executed, hard-to-predict**
//! branches whose def→branch distance meets the pipeline threshold
//! (Secs. 5, 6).
//!
//! [`profile`] runs a workload once on the functional interpreter,
//! recording per static branch: execution count, taken rate, dynamic
//! def→branch distance histogram, and the trace-driven accuracy of any
//! number of candidate predictors (this powers the paper's per-branch
//! tables, Figures 7/9/10). The same run counts every pc's retires into
//! an [`ExecutionProfile`], the input of the static cycle bound, so a
//! program profiled once needs no second functional pass for its WCET.
//! [`select_branches`] then ranks foldable branches by `foldable
//! executions × misprediction rate` and returns the top-N program
//! counters to install in the Branch Identification Table.
//!
//! # Examples
//!
//! ```
//! use asbr_bpred::PredictorKind;
//! use asbr_profile::{profile, select_branches, SelectionConfig};
//! use asbr_workloads::Workload;
//!
//! let w = Workload::AdpcmEncode;
//! let prog = w.program();
//! let report = profile(&prog, &w.input(400), &[PredictorKind::Bimodal { entries: 2048 }])?;
//! let picks = select_branches(&report, &prog, &SelectionConfig::default());
//! assert!(!picks.is_empty());
//! # Ok::<(), asbr_sim::SimError>(())
//! ```

use asbr_asm::Program;
use asbr_bpred::{Predictor, PredictorKind};
use asbr_check::ExecutionProfile;
use asbr_isa::{Instr, Reg, NUM_REGS};
use asbr_sim::{Interp, SimError, SimHooks, DEFAULT_MAX_STEPS};
use std::collections::HashMap;

/// Distance histogram buckets: exact counts for 0..=15 and a 16+ bucket.
pub const DIST_BUCKETS: usize = 17;

/// Profile record for one static branch.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchStats {
    /// Branch address.
    pub pc: u32,
    /// Dynamic executions.
    pub exec: u64,
    /// Taken executions.
    pub taken: u64,
    /// Whether the branch is of the zero-comparison (foldable) family.
    pub zero_compare: bool,
    /// Histogram of dynamic def→branch distances (instructions between
    /// the predicate definition and the branch); index 16 collects ≥16.
    pub dist_histogram: [u64; DIST_BUCKETS],
    /// Trace-driven accuracy per requested predictor, parallel to the
    /// `predictors` argument of [`profile`].
    pub accuracy: Vec<f64>,
}

impl BranchStats {
    /// Fraction of executions that were taken.
    #[must_use]
    pub fn taken_rate(&self) -> f64 {
        if self.exec == 0 {
            0.0
        } else {
            self.taken as f64 / self.exec as f64
        }
    }

    /// Executions whose dynamic def→branch distance met `threshold`
    /// (these would fold; the rest fall back to the auxiliary predictor).
    #[must_use]
    pub fn foldable_execs(&self, threshold: u32) -> u64 {
        let t = (threshold as usize).min(DIST_BUCKETS - 1);
        self.dist_histogram[t..].iter().sum()
    }
}

/// Output of one profiling run.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    branches: Vec<BranchStats>,
    /// Total dynamic instructions.
    pub instructions: u64,
    /// Labels of the profiled predictors, parallel to
    /// [`BranchStats::accuracy`].
    pub predictor_labels: Vec<String>,
    retires: ExecutionProfile,
}

impl ProfileReport {
    /// All profiled branches, sorted by descending execution count.
    #[must_use]
    pub fn branches(&self) -> &[BranchStats] {
        &self.branches
    }

    /// The record for the branch at `pc`.
    #[must_use]
    pub fn branch(&self, pc: u32) -> Option<&BranchStats> {
        self.branches.iter().find(|b| b.pc == pc)
    }

    /// Total dynamic conditional branches.
    #[must_use]
    pub fn total_branch_execs(&self) -> u64 {
        self.branches.iter().map(|b| b.exec).sum()
    }

    /// Per-pc retire counts of the profiling run: what
    /// [`ExecutionProfile::collect`] returns for the same program and
    /// input.
    #[must_use]
    pub fn retires(&self) -> &ExecutionProfile {
        &self.retires
    }
}

struct Collector {
    predictors: Vec<Box<dyn Predictor>>,
    last_write: [u64; NUM_REGS],
    records: HashMap<u32, Rec>,
    retires: ExecutionProfile,
}

struct Rec {
    exec: u64,
    taken: u64,
    zero_compare: bool,
    dist: [u64; DIST_BUCKETS],
    correct: Vec<u64>,
}

impl SimHooks for Collector {
    #[inline]
    fn on_retire(&mut self, pc: u32, _instr: Instr, _icount: u64) {
        self.retires.record(pc);
    }

    fn on_branch(&mut self, pc: u32, instr: Instr, taken: bool, icount: u64) {
        let zero_compare = instr
            .branch()
            .and_then(|b| b.zero_compare)
            .map(|(_, rs)| rs);
        let n = self.predictors.len();
        let rec = self.records.entry(pc).or_insert_with(|| Rec {
            exec: 0,
            taken: 0,
            zero_compare: zero_compare.is_some(),
            dist: [0; DIST_BUCKETS],
            correct: vec![0; n],
        });
        rec.exec += 1;
        rec.taken += u64::from(taken);
        if let Some(rs) = zero_compare {
            let last = self.last_write[usize::from(rs)];
            // Instructions strictly between the def and the branch; a
            // never-written register counts as "far".
            let d = if last == 0 {
                DIST_BUCKETS as u64
            } else {
                icount - last - 1
            };
            rec.dist[(d as usize).min(DIST_BUCKETS - 1)] += 1;
        }
        for (p, c) in self.predictors.iter_mut().zip(&mut rec.correct) {
            let predicted = p.predict(pc);
            if predicted == taken {
                *c += 1;
            }
            p.update(pc, taken);
        }
    }

    fn on_reg_write(&mut self, reg: Reg, _value: u32, icount: u64) {
        self.last_write[usize::from(reg)] = icount;
    }
}

/// Profiles `program` on `input`, measuring each candidate predictor in
/// `predictors` trace-driven and counting every pc's retires
/// ([`ProfileReport::retires`]).
///
/// # Errors
///
/// Returns [`SimError`] if the guest faults or fails to halt within
/// [`DEFAULT_MAX_STEPS`] instructions.
pub fn profile(
    program: &Program,
    input: &[i32],
    predictors: &[PredictorKind],
) -> Result<ProfileReport, SimError> {
    let mut interp = Interp::new(program)?;
    interp.feed_input(input.iter().copied());
    let mut collector = Collector {
        predictors: predictors.iter().map(|&k| k.build()).collect(),
        last_write: [0; NUM_REGS],
        records: HashMap::new(),
        retires: ExecutionProfile::for_text(program),
    };
    let summary = interp.run_observed(DEFAULT_MAX_STEPS, &mut collector)?;
    collector.retires.instructions = summary.instructions;

    let mut branches: Vec<BranchStats> = collector
        .records
        .into_iter()
        .map(|(pc, r)| BranchStats {
            pc,
            exec: r.exec,
            taken: r.taken,
            zero_compare: r.zero_compare,
            dist_histogram: r.dist,
            accuracy: r.correct.iter().map(|&c| c as f64 / r.exec as f64).collect(),
        })
        .collect();
    branches.sort_by(|a, b| b.exec.cmp(&a.exec).then(a.pc.cmp(&b.pc)));

    Ok(ProfileReport {
        branches,
        instructions: summary.instructions,
        predictor_labels: predictors.iter().map(|k| k.label()).collect(),
        retires: collector.retires,
    })
}

/// Selection policy for the Branch Identification Table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionConfig {
    /// BIT capacity (the paper uses 16).
    pub bit_entries: usize,
    /// Fold threshold implied by the publish point (paper Sec. 5.2).
    pub threshold: u32,
    /// Index (into the profiled predictors) of the predictor whose
    /// misprediction rate ranks "hard to predict"; `None` ranks purely by
    /// foldable execution count.
    pub rank_against: Option<usize>,
    /// Minimum fraction of executions that must be foldable for a branch
    /// to be worth a BIT entry.
    pub min_fold_fraction: f64,
    /// Minimum execution count relative to the hottest eligible branch —
    /// "only the most frequently executed branches within the important
    /// application loops are targeted" (paper Sec. 7).
    pub min_exec_fraction: f64,
}

impl Default for SelectionConfig {
    /// The paper's setup: 16 entries, threshold 3 (EX/MEM forwarding),
    /// ranked against the first profiled predictor.
    fn default() -> SelectionConfig {
        SelectionConfig {
            bit_entries: 16,
            threshold: 3,
            rank_against: Some(0),
            min_fold_fraction: 0.5,
            min_exec_fraction: 0.005,
        }
    }
}

/// Picks the BIT branches: frequently executed, hard to predict, and
/// foldable at the configured threshold (paper Sec. 6).
///
/// Eligibility is *installability* ([`asbr_check::branch_is_installable`]):
/// a [`asbr_core::BitEntry`] must be statically extractable from a
/// decodable text location and consistent with the program image. It is
/// **not** the every-path static distance proof
/// ([`asbr_check::branch_is_provable`]) — soundness at run time is
/// guaranteed dynamically by the BDT validity counter (a fetch whose
/// predicate writer is still in flight declines to fold), so a branch
/// whose predicate is occasionally defined too close to it is still safe
/// to install. The static-distance property remains available through
/// `asbr_tool lint` as the strict "always folds" certificate; here the
/// profiled dynamic fold fraction (`min_fold_fraction`) is the
/// profitability filter that keeps rarely-foldable branches out of the
/// BIT. Returns the selected branch PCs, best first.
#[must_use]
pub fn select_branches(
    report: &ProfileReport,
    program: &Program,
    cfg: &SelectionConfig,
) -> Vec<u32> {
    let graph = asbr_flow::Cfg::build(program);
    let hottest = report
        .branches()
        .iter()
        .filter(|b| b.zero_compare)
        .map(|b| b.exec)
        .max()
        .unwrap_or(0);
    let exec_floor = ((hottest as f64 * cfg.min_exec_fraction) as u64).max(1);
    let mut scored: Vec<(f64, u64, u32)> = report
        .branches()
        .iter()
        .filter(|b| b.zero_compare && b.exec >= exec_floor)
        .filter(|b| asbr_check::branch_is_installable(program, &graph, b.pc))
        .filter_map(|b| {
            let foldable = b.foldable_execs(cfg.threshold);
            let fraction = foldable as f64 / b.exec as f64;
            if fraction < cfg.min_fold_fraction {
                return None;
            }
            let mispredict = match cfg.rank_against {
                Some(i) => 1.0 - b.accuracy.get(i).copied().unwrap_or(0.0),
                None => 1.0,
            };
            // Amdahl benefit: dynamic folds available x penalty avoided.
            // An always-predicted branch still folds usefully (it stops
            // polluting the predictor and leaves the pipe), so floor the
            // weight.
            let score = foldable as f64 * mispredict.max(0.02);
            (score > 0.0).then_some((score, b.exec, b.pc))
        })
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));
    scored.into_iter().take(cfg.bit_entries).map(|(_, _, pc)| pc).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asbr_asm::assemble;

    fn loop_program() -> Program {
        assemble(
            "
            main:   li   r4, 100
                    li   r6, 0
            loop:   addi r4, r4, -1
                    addi r6, r6, 1
                    nop
                    nop
            br:     bnez r4, loop
                    halt
            ",
        )
        .unwrap()
    }

    #[test]
    fn counts_and_taken_rate() {
        let prog = loop_program();
        let report =
            profile(&prog, &[], &[PredictorKind::NotTaken, PredictorKind::Bimodal { entries: 64 }])
                .unwrap();
        let br = report.branch(prog.symbol("br").unwrap()).unwrap();
        assert_eq!(br.exec, 100);
        assert_eq!(br.taken, 99);
        // not-taken accuracy = 1/100; bimodal learns the bias.
        assert!((br.accuracy[0] - 0.01).abs() < 1e-9);
        assert!(br.accuracy[1] > 0.9);
        assert_eq!(report.predictor_labels, vec!["not taken", "bi-64"]);
    }

    #[test]
    fn distance_histogram_reflects_code_shape() {
        let prog = loop_program();
        let report = profile(&prog, &[], &[]).unwrap();
        let br = report.branch(prog.symbol("br").unwrap()).unwrap();
        // Every execution sees the in-loop def: distance 3 (addi r6, nop,
        // nop between def and branch).
        assert_eq!(br.dist_histogram[3], 100);
        assert_eq!(br.foldable_execs(3), 100);
        assert_eq!(br.foldable_execs(4), 0);
    }

    #[test]
    fn selection_prefers_hot_foldable_branches() {
        let prog = loop_program();
        let report = profile(&prog, &[], &[PredictorKind::NotTaken]).unwrap();
        let picks = select_branches(
            &report,
            &prog,
            &SelectionConfig { threshold: 3, ..SelectionConfig::default() },
        );
        assert_eq!(picks, vec![prog.symbol("br").unwrap()]);
    }

    #[test]
    fn selection_respects_threshold() {
        // Tight loop: distance 0 -> nothing is foldable at threshold 3.
        let prog = assemble(
            "
            main:   li   r4, 50
            loop:   addi r4, r4, -1
            br:     bnez r4, loop
                    halt
            ",
        )
        .unwrap();
        let report = profile(&prog, &[], &[PredictorKind::NotTaken]).unwrap();
        let picks = select_branches(&report, &prog, &SelectionConfig::default());
        assert!(picks.is_empty());
    }

    #[test]
    fn selection_caps_at_bit_capacity() {
        // Ten distinct foldable branches, capacity 4.
        let mut src = String::from("main: li r4, 10\n");
        for i in 0..10 {
            src.push_str(&format!(
                "       li r{r}, 1\n        nop\n        nop\n        nop\n b{i}: beqz r{r}, skip{i}\n        nop\nskip{i}: nop\n",
                r = 8 + (i % 8),
            ));
        }
        src.push_str("halt\n");
        let prog = assemble(&src).unwrap();
        let report = profile(&prog, &[], &[PredictorKind::NotTaken]).unwrap();
        let picks = select_branches(
            &report,
            &prog,
            &SelectionConfig { bit_entries: 4, ..SelectionConfig::default() },
        );
        assert_eq!(picks.len(), 4);
    }

    #[test]
    fn retire_counts_match_a_counting_run_on_every_codec() {
        for w in asbr_workloads::Workload::ALL {
            let base = w.program();
            let hoisted = asbr_flow::schedule::hoist_predicates(&base).0;
            for program in [base, hoisted] {
                for samples in [20, 120] {
                    let input = w.input(samples);
                    let report = profile(&program, &input, &[PredictorKind::NotTaken]).unwrap();
                    let counted = ExecutionProfile::collect(&program, &input).unwrap();
                    assert_eq!(report.retires(), &counted, "{} at {samples}", w.name());
                    assert_eq!(report.retires().instructions, report.instructions);
                }
            }
        }
    }

    #[test]
    fn workload_profile_finds_many_branches() {
        let w = asbr_workloads::Workload::AdpcmEncode;
        let report = profile(&w.program(), &w.input(300), &[PredictorKind::NotTaken]).unwrap();
        assert!(report.branches().len() >= 8, "{}", report.branches().len());
        assert!(report.total_branch_execs() > 1000);
    }
}
