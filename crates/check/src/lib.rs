//! `asbr-check`: whole-program static verification for the ASBR toolchain.
//!
//! Three layers, all built on the shared `asbr_flow::Cfg`:
//!
//! 1. **Dataflow analyses** ([`dataflow`]): reaching definitions with
//!    uninitialised-at-entry pseudo-sites, and backward liveness.
//! 2. **Abstract interpretation** ([`absint`]): a sound per-register
//!    interval (value-range) domain with widening at loop heads, exposed
//!    as [`ValueRanges`]; feeds the loop-bound analysis, the prover's
//!    range-constant proofs, and the property tests.
//! 3. **Lints** ([`lints`], [`bounds`]): structural and dataflow checks
//!    over an assembled image — decodability, control-transfer targets,
//!    static alignment, reachability, zero-register writes,
//!    use-before-init, dead definitions, and loop-bound findings
//!    (exitless loops, non-inferable bounds).
//! 4. **Provers**: the ASBR fold-soundness prover ([`prover`]) that
//!    discharges the paper's publish-before-fetch obligation for every
//!    BIT entry (by def→use distance, or by a range-constant predicate
//!    from the interval domain), and the schedule validator
//!    ([`schedule_check`]) that proves `hoist_predicates` output is a
//!    dependence-preserving per-block permutation of its input.
//! 5. **Cycle bounds** ([`bounds`]): the static WCET analyzer — counted
//!    loop bounds and a guaranteed upper bound ([`CycleBound`]) on the
//!    pipelined simulator's cycle count for a profiled execution.
//!
//! [`lint_program`] runs the whole battery over one program; it backs
//! `asbr_tool lint`. See `docs/analysis.md` for the lattices and proof
//! obligations.

#![warn(missing_docs)]

pub mod absint;
pub mod bounds;
pub mod dataflow;
pub mod lints;
pub mod prover;
pub mod report;
pub mod schedule_check;

use asbr_asm::Program;
use asbr_core::BitEntry;
use asbr_flow::schedule::hoist_predicates;
use asbr_flow::{select_static, Cfg};

pub use absint::{AbsState, Interval, ValueRanges};
pub use bounds::{
    check_loop_bounds, cycle_bound, find_loops, CycleBound, ExecutionProfile, MachineParams,
    NaturalLoop,
};
pub use dataflow::{DefSite, Liveness, ReachingDefs};
pub use prover::{
    branch_is_installable, branch_is_provable, branch_is_range_provable, min_def_distance,
    prove_bit, prove_entry, prove_entry_with_ranges, FoldProof, FoldViolation, ProofMethod,
};
pub use report::{Diagnostic, Report, Severity};
pub use schedule_check::{validate_schedule, ScheduleViolation};

/// Runs every lint over `program` and returns the combined report.
///
/// The CFG and both dataflow fixpoints are computed once and shared by
/// all checks.
#[must_use]
pub fn check_program(name: &str, program: &Program) -> Report {
    let mut report = Report::new(name);
    let cfg = Cfg::build(program);
    lints::check_decode(&mut report, program);
    lints::check_control_targets(&mut report, program, &cfg);
    lints::check_alignment(&mut report, program, &cfg);
    lints::check_reachability(&mut report, program, &cfg);
    lints::check_zero_writes(&mut report, program, &cfg);
    let rd = ReachingDefs::compute(&cfg, lints::entry_block(&cfg, program));
    lints::check_use_before_init(&mut report, program, &cfg, &rd);
    let lv = Liveness::compute(&cfg);
    lints::check_dead_defs(&mut report, program, &cfg, &lv);
    let vr = ValueRanges::compute(program, &cfg);
    bounds::check_loop_bounds(&mut report, program, &cfg, &vr);
    report
}

/// BIT capacity the static selection of [`lint_program`] assumes (the
/// unit's default).
const BIT_CAPACITY: usize = 16;

/// Runs the full check battery over one program: every lint of
/// [`check_program`], the fold-soundness proof of the static BIT
/// selection at `threshold` ([`check_folds`]), and the validation of the
/// `hoist_predicates` schedule ([`check_schedule`]).
#[must_use]
pub fn lint_program(name: &str, program: &Program, threshold: u32) -> Report {
    let mut report = check_program(name, program);
    let entries: Vec<BitEntry> = select_static(program, threshold, BIT_CAPACITY)
        .iter()
        .filter_map(|p| BitEntry::from_program(program, p.candidate.pc).ok())
        .collect();
    check_folds(&mut report, program, &entries, threshold);
    let (hoisted, _) = hoist_predicates(program);
    check_schedule(&mut report, program, &hoisted);
    report
}

/// Proves every BIT entry against `threshold` and appends one diagnostic
/// per rejected entry (`ASBR01`–`ASBR03`, all errors) plus an info note
/// summarising the discharged proofs.
pub fn check_folds(
    report: &mut Report,
    program: &Program,
    entries: &[BitEntry],
    threshold: u32,
) {
    let (proofs, violations) = prover::prove_bit(program, entries, threshold);
    for v in &violations {
        report.push(Diagnostic::at(
            program,
            v.pc(),
            v.code(),
            Severity::Error,
            v.to_string(),
        ));
    }
    if !proofs.is_empty() {
        report.push(Diagnostic::global(
            "ASBR00",
            Severity::Info,
            format!(
                "{} BIT entr{} proven sound at threshold {threshold}",
                proofs.len(),
                if proofs.len() == 1 { "y" } else { "ies" },
            ),
        ));
    }
}

/// Validates `scheduled` against `original` and appends one diagnostic per
/// violation (`SCHED01`–`SCHED03`, all errors).
pub fn check_schedule(report: &mut Report, original: &Program, scheduled: &Program) {
    for v in schedule_check::validate_schedule(original, scheduled) {
        let diag = match &v {
            ScheduleViolation::ShapeMismatch { .. } => {
                Diagnostic::global(v.code(), Severity::Error, v.to_string())
            }
            ScheduleViolation::BlockMismatch { block_pc, .. } => {
                Diagnostic::at(original, *block_pc, v.code(), Severity::Error, v.to_string())
            }
            ScheduleViolation::DependenceViolated { first_pc, .. } => {
                Diagnostic::at(original, *first_pc, v.code(), Severity::Error, v.to_string())
            }
        };
        report.push(diag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asbr_asm::assemble;

    #[test]
    fn check_folds_reports_violation_and_summary() {
        let p = assemble(
            "
            main:   li   r4, 3
            loop:   addi r4, r4, -1
                    nop
                    nop
            br:     bnez r4, loop
                    halt
            ",
        )
        .unwrap();
        let e = BitEntry::from_program(&p, p.symbol("br").unwrap()).unwrap();
        let mut r = Report::new("t");
        check_folds(&mut r, &p, std::slice::from_ref(&e), 2);
        assert_eq!(r.worst(), Some(Severity::Info), "{}", r.render_text());
        let mut r = Report::new("t");
        check_folds(&mut r, &p, &[e], 3);
        assert!(
            r.diagnostics().iter().any(|d| d.code == "ASBR02"),
            "{}",
            r.render_text()
        );
        assert_eq!(r.worst(), Some(Severity::Error));
    }

    #[test]
    fn check_schedule_reports_reorder() {
        let p = assemble("main: li r4, 1\nadd r5, r4, r4\nnop\nhalt").unwrap();
        let mut words = p.text().to_vec();
        words.swap(0, 1);
        let bad = p.clone_with_text(words);
        let mut r = Report::new("t");
        check_schedule(&mut r, &p, &bad);
        assert!(
            r.diagnostics().iter().any(|d| d.code == "SCHED03"),
            "{}",
            r.render_text()
        );
    }
}
