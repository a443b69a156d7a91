//! Repository-level verification of the `asbr-check` static analyzer:
//! the bundled workloads must lint clean, the fold-soundness prover must
//! reject unsound BIT entries, the schedule validator must reject
//! dependence-breaking reorders, and — property-tested over randomly
//! generated guests — `hoist_predicates` must preserve architectural
//! behaviour and always validate.

use asbr_asm::{assemble, Program};
use asbr_check::{
    check_folds, check_program, check_schedule, lint_program, prove_entry, validate_schedule,
    Report, Severity,
};
use asbr_core::BitEntry;
use asbr_flow::schedule::hoist_predicates;
use asbr_flow::Cfg;
use asbr_sim::{Interp, PublishPoint};
use asbr_testgen::Rng;
use asbr_workloads::Workload;

#[test]
fn all_bundled_workloads_lint_clean_at_warn() {
    for w in Workload::ALL {
        let report = lint_program(w.name(), &w.program(), PublishPoint::Mem.threshold());
        assert_eq!(
            report.count_at_least(Severity::Warning),
            0,
            "{}",
            report.render_text()
        );
    }
}

#[test]
fn prover_rejects_hand_built_unsound_entry() {
    // On the fall-through path the predicate is redefined immediately
    // before the branch; a BIT entry for it must not survive the prover.
    let p = assemble(
        "
        main:   li   r4, 5
                nop
                nop
                nop
                beqz r2, skip
                addi r4, r4, -1
        skip:   bnez r4, main
                halt
        ",
    )
    .unwrap();
    let cfg = Cfg::build(&p);
    let entry = BitEntry::from_program(&p, p.symbol("skip").unwrap()).unwrap();
    let v = prove_entry(&p, &cfg, &entry, PublishPoint::Mem.threshold()).unwrap_err();
    assert_eq!(v.code(), "ASBR02", "{v}");

    // And the diagnostic surface reports it as an error.
    let mut report = Report::new("unsound");
    check_folds(&mut report, &p, &[entry], PublishPoint::Mem.threshold());
    assert_eq!(report.worst(), Some(Severity::Error), "{}", report.render_text());
}

#[test]
fn schedule_validator_rejects_dependent_reorder() {
    let p = assemble("main: li r4, 1\nadd r5, r4, r4\nnop\nhalt").unwrap();
    let mut words = p.text().to_vec();
    words.swap(0, 1); // breaks the li -> add RAW dependence
    let bad = p.clone_with_text(words);
    let violations = validate_schedule(&p, &bad);
    assert!(
        violations.iter().any(|v| v.code() == "SCHED03"),
        "{violations:?}"
    );
    let mut report = Report::new("bad-schedule");
    check_schedule(&mut report, &p, &bad);
    assert_eq!(report.worst(), Some(Severity::Error));
}

// ---------------------------------------------------------------------
// Property test: random guests, hoisted, must be behaviourally identical
// and validate as schedules. Seeded `asbr_testgen::Rng` streams, so
// failures reproduce.
// ---------------------------------------------------------------------

/// One random loop body: ALU ops over r8..r15 and word-aligned loads and
/// stores through r16, with the loop counter decrement somewhere inside.
fn random_program(rng: &mut Rng) -> String {
    let mut src = String::from("main:   la   r16, buf\n");
    for r in 8..16 {
        src.push_str(&format!("        li   r{r}, {}\n", rng.below(100)));
    }
    let iters = 2 + rng.below(6);
    src.push_str(&format!("        li   r4, {iters}\n"));
    src.push_str("loop:\n");
    let body = 4 + rng.below(10);
    let dec_at = rng.below(body);
    for i in 0..body {
        if i == dec_at {
            src.push_str("        addi r4, r4, -1\n");
        }
        let a = 8 + rng.below(8);
        let b = 8 + rng.below(8);
        let c = 8 + rng.below(8);
        match rng.below(6) {
            0 => src.push_str(&format!(
                "        addi r{a}, r{b}, {}\n",
                rng.below(17) as i64 - 8
            )),
            1 => src.push_str(&format!("        add  r{a}, r{b}, r{c}\n")),
            2 => src.push_str(&format!("        sub  r{a}, r{b}, r{c}\n")),
            3 => src.push_str(&format!("        xor  r{a}, r{b}, r{c}\n")),
            4 => src.push_str(&format!("        sw   r{a}, {}(r16)\n", 4 * rng.below(4))),
            _ => src.push_str(&format!("        lw   r{a}, {}(r16)\n", 4 * rng.below(4))),
        }
    }
    src.push_str("        bnez r4, loop\n        halt\n");
    src.push_str(".data\nbuf:    .word 0, 0, 0, 0\n");
    src
}

#[test]
fn hoisting_preserves_behaviour_on_random_programs() {
    let mut rng = Rng::new(0x5eed_cafe_f00d_0001);
    let mut hoisted_something = false;
    for case in 0..60 {
        let src = random_program(&mut rng);
        let original = assemble(&src).unwrap_or_else(|e| panic!("case {case}: {e}\n{src}"));

        // The generator only emits well-formed code: no findings above info.
        let lint = check_program("random", &original);
        assert_eq!(
            lint.count_at_least(Severity::Warning),
            0,
            "case {case}:\n{}\n{src}",
            lint.render_text()
        );

        let (scheduled, reports) = hoist_predicates(&original);
        hoisted_something |= !reports.is_empty();

        let violations = validate_schedule(&original, &scheduled);
        assert!(violations.is_empty(), "case {case}: {violations:?}\n{src}");

        let run = |p: &Program| {
            let mut interp = Interp::new(p).expect("valid text");
            let summary = interp.run(1_000_000).unwrap_or_else(|e| {
                panic!("case {case}: guest failed: {e}\n{src}")
            });
            let regs: Vec<u32> =
                (0..32u8).map(|r| interp.reg(asbr_isa::Reg::new(r))).collect();
            (summary.output, regs)
        };
        let (out_a, regs_a) = run(&original);
        let (out_b, regs_b) = run(&scheduled);
        assert_eq!(out_a, out_b, "case {case}: output diverged\n{src}");
        assert_eq!(regs_a, regs_b, "case {case}: registers diverged\n{src}");
    }
    assert!(
        hoisted_something,
        "the generator never produced a hoistable block — property is vacuous"
    );
}

// ---------------------------------------------------------------------
// Property test: the interval domain is sound on randomly generated
// guests — every architecturally retired register write lands inside
// the statically computed range of that instruction's destination.
// ---------------------------------------------------------------------

#[test]
fn interval_domain_bounds_every_retired_write_on_random_programs() {
    use asbr_check::ValueRanges;
    use asbr_isa::{Instr, Reg};
    use asbr_sim::SimHooks;

    struct RangeAudit<'a> {
        cfg: &'a Cfg,
        vr: &'a ValueRanges,
        pending: Option<(Reg, u32)>,
        checked: u64,
        violations: Vec<String>,
    }
    impl SimHooks for RangeAudit<'_> {
        fn on_reg_write(&mut self, reg: Reg, value: u32, _icount: u64) {
            self.pending = Some((reg, value));
        }
        fn on_retire(&mut self, pc: u32, _instr: Instr, _icount: u64) {
            let Some((reg, value)) = self.pending.take() else { return };
            let Some(index) = self.cfg.index_of(pc) else { return };
            let Some((dst, range)) = self.vr.written(index) else { return };
            if dst != reg {
                return;
            }
            self.checked += 1;
            if !range.contains(value as i32) {
                self.violations.push(format!(
                    "pc {pc:#x}: {dst:?} = {} outside {range:?}",
                    value as i32
                ));
            }
        }
    }

    let mut rng = Rng::new(0xab51_d75e_ed00_0002);
    let mut checked = 0u64;
    for case in 0..40 {
        let src = random_program(&mut rng);
        let p = assemble(&src).unwrap_or_else(|e| panic!("case {case}: {e}\n{src}"));
        let cfg = Cfg::build(&p);
        let vr = ValueRanges::compute(&p, &cfg);
        let mut audit =
            RangeAudit { cfg: &cfg, vr: &vr, pending: None, checked: 0, violations: Vec::new() };
        let mut interp = Interp::new(&p).expect("valid text");
        interp
            .run_observed(1_000_000, &mut audit)
            .unwrap_or_else(|e| panic!("case {case}: guest failed: {e}\n{src}"));
        assert!(
            audit.violations.is_empty(),
            "case {case}: retired values escaped their intervals:\n{}\n{src}",
            audit.violations.join("\n")
        );
        checked += audit.checked;
    }
    assert!(checked > 1_000, "only {checked} writes audited — property is vacuous");
}

// ---------------------------------------------------------------------
// Golden: the `asbr_tool lint --json` report schema. Tools parse this
// output, so key names, nesting, and optional-field behaviour are pinned
// exactly. The report is rendered by asbr-harness's JSON codec.
// Regenerate tests/goldens/lint_report.json only on a deliberate schema
// change, and note it in docs/analysis.md.
// ---------------------------------------------------------------------

#[test]
fn lint_json_schema_matches_the_golden() {
    use asbr_check::Diagnostic;
    use asbr_harness::json::ToJson;

    let p = assemble("main:   li   r4, 1\nbr:     bnez r4, main\n        halt").unwrap();
    let mut r = Report::new("golden");
    r.push(Diagnostic::at(
        &p,
        p.symbol("br").unwrap(),
        "W005",
        Severity::Warning,
        "loop has no exit edge: control cannot leave the body once entered".to_owned(),
    ));
    r.push(Diagnostic::global(
        "I003",
        Severity::Info,
        "loop bound not statically inferable (not a recognized counted loop)".to_owned(),
    ));
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/goldens/lint_report.json");
    let golden = std::fs::read_to_string(golden_path)
        .unwrap_or_else(|e| panic!("cannot read {golden_path}: {e}"));
    assert_eq!(
        r.to_json().compact(),
        golden.trim_end(),
        "lint JSON schema drifted from tests/goldens/lint_report.json"
    );
}
