//! The ASBR fold-soundness prover.
//!
//! The paper's safety obligation (Secs. 5–7): a branch may be folded at
//! fetch only when its predicate register is provably published (committed
//! or forwardable) before the branch is fetched. Statically, that is: on
//! **every** incoming CFG path, the number of instructions strictly
//! between the last definition of the predicate register and the branch is
//! at least the `PublishPoint`-derived threshold — equivalently, the
//! predicate is *not redefined* within `threshold` slots of the branch on
//! any path.
//!
//! The distance computation here is an independent implementation (a
//! Dijkstra-style shortest-path walk over predecessor blocks) of the same
//! property that `asbr_flow::candidates` derives with a recursive DFS;
//! the two share only the definition-semantics [`defines_reg`]. Agreement
//! between them is asserted by the repository test-suite, which is the
//! point: a BIT selection is only installed when two distinct analyses
//! concur that every entry is sound.

use core::fmt;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use asbr_asm::Program;
use asbr_core::BitEntry;
use asbr_flow::{defines_reg, Cfg, DISTANCE_CAP};
use asbr_isa::{Cond, Reg};

use crate::absint::ValueRanges;

/// How a fold-soundness obligation was discharged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofMethod {
    /// The distance argument: every path keeps the last definition of
    /// the predicate at least `threshold` slots from the branch, so the
    /// published value is always the architectural one.
    Distance,
    /// The value-range argument: the join of every value the predicate
    /// register can ever hold (entry value plus every reachable
    /// definition, per the interval domain) decides the condition one
    /// way, so *any* published value — however stale — folds the branch
    /// in the direction it architecturally goes.
    RangeConstant {
        /// The invariant branch direction.
        taken: bool,
    },
}

/// A discharged proof obligation: the entry at `pc` is sound to fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoldProof {
    /// Branch address.
    pub pc: u32,
    /// Predicate (Direction Index) register.
    pub reg: Reg,
    /// Zero-comparison condition.
    pub cond: Cond,
    /// Proven minimum def→branch distance over all static paths
    /// (capped at [`DISTANCE_CAP`]).
    pub min_distance: u32,
    /// The threshold the proof was discharged against.
    pub threshold: u32,
    /// Which argument discharged the obligation.
    pub method: ProofMethod,
}

/// A rejected proof obligation, machine-readable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldViolation {
    /// `ASBR01`: the entry's cached fields no longer match the program
    /// image (stale extraction, or the branch was rewritten).
    Stale {
        /// Branch address of the offending entry.
        pc: u32,
    },
    /// `ASBR02`: the predicate register is (re)defined within `threshold`
    /// slots of the branch on some path.
    Distance {
        /// Branch address.
        pc: u32,
        /// Predicate register.
        reg: Reg,
        /// Required minimum distance.
        threshold: u32,
        /// Proven minimum distance (< threshold).
        distance: u32,
        /// Address of the offending (too-close) definition.
        def_pc: u32,
    },
    /// `ASBR03`: the entry's address is not a decodable location in the
    /// text segment.
    OutsideText {
        /// The offending address.
        pc: u32,
    },
}

impl FoldViolation {
    /// Stable diagnostic code.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            FoldViolation::Stale { .. } => "ASBR01",
            FoldViolation::Distance { .. } => "ASBR02",
            FoldViolation::OutsideText { .. } => "ASBR03",
        }
    }

    /// The branch address the violation is about.
    #[must_use]
    pub fn pc(&self) -> u32 {
        match *self {
            FoldViolation::Stale { pc }
            | FoldViolation::Distance { pc, .. }
            | FoldViolation::OutsideText { pc } => pc,
        }
    }
}

impl fmt::Display for FoldViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FoldViolation::Stale { pc } => write!(
                f,
                "BIT entry at {pc:#010x} does not match the program image (stale extraction)"
            ),
            FoldViolation::Distance { pc, reg, threshold, distance, def_pc } => write!(
                f,
                "branch at {pc:#010x}: predicate {reg} is defined at {def_pc:#010x}, \
                 only {distance} slot(s) before the branch on some path (threshold {threshold}) \
                 — folding could consume an unpublished value"
            ),
            FoldViolation::OutsideText { pc } => {
                write!(f, "BIT entry address {pc:#010x} is outside the text segment")
            }
        }
    }
}

/// Minimum, over all statically enumerable paths, of the instruction count
/// strictly between the last definition of `reg` and the branch at
/// `branch_index`, together with the defining instruction index on a
/// minimising path (`None` when no definition is reachable — the register
/// holds its reset value, reported as [`DISTANCE_CAP`]).
///
/// Shortest-path search over predecessor blocks: the accumulated count
/// only grows walking backwards, so a Dijkstra ordering visits each block
/// at its minimal accumulated distance and loops terminate naturally.
#[must_use]
pub fn min_def_distance(cfg: &Cfg, branch_index: usize, reg: Reg) -> (u32, Option<usize>) {
    let instrs = cfg.instrs();
    let home = cfg.block_of(branch_index);
    let block = &cfg.blocks()[home];

    // A definition in the branch's own block dominates every path.
    for j in (block.start..branch_index).rev() {
        if defines_reg(instrs[j], reg) {
            return (((branch_index - j - 1) as u32).min(DISTANCE_CAP), Some(j));
        }
    }

    // Otherwise walk predecessors, accumulating the instruction count
    // between each block's exit and the branch.
    let prefix = (branch_index - block.start) as u32;
    let mut best_at_exit = vec![u32::MAX; cfg.blocks().len()];
    let mut heap: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();
    for &p in &block.preds {
        if prefix < best_at_exit[p] {
            best_at_exit[p] = prefix;
            heap.push(Reverse((prefix, p)));
        }
    }

    let mut result: (u32, Option<usize>) = (DISTANCE_CAP, None);
    while let Some(Reverse((acc, b))) = heap.pop() {
        if acc > best_at_exit[b] || acc >= result.0 {
            continue;
        }
        let blk = &cfg.blocks()[b];
        let last_def = (blk.start..blk.end).rev().find(|&j| defines_reg(instrs[j], reg));
        if let Some(j) = last_def {
            let d = (acc + (blk.end - j - 1) as u32).min(DISTANCE_CAP);
            if d < result.0 {
                result = (d, Some(j));
            }
        } else {
            // No definition here: keep walking. Blocks with no
            // predecessors (program entry, unknown indirect edges)
            // contribute the reset-value path, which is "far" — already
            // the default.
            let next = (acc + blk.len() as u32).min(DISTANCE_CAP);
            for &p in &blk.preds {
                if next < best_at_exit[p] {
                    best_at_exit[p] = next;
                    heap.push(Reverse((next, p)));
                }
            }
        }
    }
    result
}

/// Discharges (or rejects) the fold-soundness obligation for one BIT
/// entry against `threshold`.
///
/// # Errors
///
/// Returns the [`FoldViolation`] rejecting the entry: stale fields,
/// an address outside text, or a too-close predicate definition.
pub fn prove_entry(
    program: &Program,
    cfg: &Cfg,
    entry: &BitEntry,
    threshold: u32,
) -> Result<FoldProof, FoldViolation> {
    prove_entry_with_ranges(program, cfg, None, entry, threshold)
}

/// [`prove_entry`] with a precomputed interval fixpoint, so batch callers
/// amortise the value-range analysis across entries. With `ranges: None`
/// the fixpoint is computed on demand, and only when the distance
/// argument alone fails.
///
/// # Errors
///
/// Returns the [`FoldViolation`] rejecting the entry when neither the
/// distance nor the value-range argument discharges the obligation.
pub fn prove_entry_with_ranges(
    program: &Program,
    cfg: &Cfg,
    ranges: Option<&ValueRanges>,
    entry: &BitEntry,
    threshold: u32,
) -> Result<FoldProof, FoldViolation> {
    let Some(index) = cfg.index_of(entry.pc) else {
        return Err(FoldViolation::OutsideText { pc: entry.pc });
    };
    if !entry.consistent_with(program) {
        return Err(FoldViolation::Stale { pc: entry.pc });
    }
    let (reg, cond) = entry.di;
    let (distance, def_index) = min_def_distance(cfg, index, reg);
    if distance < threshold {
        // The distance-only argument fails: fall back to the interval
        // domain. If every value the predicate can ever hold decides the
        // condition uniformly, staleness of the published copy is
        // irrelevant — the fold direction is always architecturally
        // correct, at any threshold.
        let decided = match ranges {
            Some(r) => r.global_range(reg).decides(cond),
            None => ValueRanges::compute(program, cfg).global_range(reg).decides(cond),
        };
        if let Some(taken) = decided {
            return Ok(FoldProof {
                pc: entry.pc,
                reg,
                cond,
                min_distance: distance,
                threshold,
                method: ProofMethod::RangeConstant { taken },
            });
        }
        return Err(FoldViolation::Distance {
            pc: entry.pc,
            reg,
            threshold,
            distance,
            // distance < threshold <= DISTANCE_CAP implies a concrete def.
            def_pc: def_index.map(|j| cfg.pc_of(j)).unwrap_or(entry.pc),
        });
    }
    Ok(FoldProof {
        pc: entry.pc,
        reg,
        cond,
        min_distance: distance,
        threshold,
        method: ProofMethod::Distance,
    })
}

/// Proves every entry of a BIT selection, partitioning into discharged
/// proofs and violations.
#[must_use]
pub fn prove_bit(
    program: &Program,
    entries: &[BitEntry],
    threshold: u32,
) -> (Vec<FoldProof>, Vec<FoldViolation>) {
    let cfg = Cfg::build(program);
    let ranges = ValueRanges::compute(program, &cfg);
    let mut proofs = Vec::new();
    let mut violations = Vec::new();
    for entry in entries {
        match prove_entry_with_ranges(program, &cfg, Some(&ranges), entry, threshold) {
            Ok(p) => proofs.push(p),
            Err(v) => violations.push(v),
        }
    }
    (proofs, violations)
}

/// Whether the branch at `pc` is statically provable at `threshold`:
/// installable *and* its predicate is far enough from every definition on
/// every static path (ASBR02). This is the strongest guarantee — an entry
/// passing it folds successfully on every dynamic execution — and is what
/// `asbr_tool lint` and the customization-image verifier report.
///
/// Note this is *not* the selection gate: the BDT validity counter blocks
/// unsound folds dynamically, so `asbr_profile::select_branches` requires
/// only [`branch_is_installable`] and treats the every-path distance as a
/// profitability signal (via the profiled dynamic fold fraction), not a
/// soundness one.
#[must_use]
pub fn branch_is_provable(program: &Program, cfg: &Cfg, pc: u32, threshold: u32) -> bool {
    BitEntry::from_program(program, pc)
        .is_ok_and(|e| prove_entry(program, cfg, &e, threshold).is_ok())
}

/// Whether a BIT entry for the branch at `pc` can be soundly *installed*:
/// the address decodes inside the text segment (ASBR03) and the extracted
/// entry matches the program image (ASBR01).
///
/// Installation soundness is all `select_branches` needs — folding an
/// installed entry is dynamically guarded by the BDT validity counter
/// (a fetch with the predicate's writer still in flight simply declines
/// to fold), so a branch whose predicate is *sometimes* too close to its
/// definition is still safe to install and profitable whenever the hot
/// paths keep the definition far away.
#[must_use]
pub fn branch_is_installable(program: &Program, cfg: &Cfg, pc: u32) -> bool {
    cfg.index_of(pc).is_some()
        && BitEntry::from_program(program, pc).is_ok_and(|e| e.consistent_with(program))
}

/// Whether the branch at `pc` is provable by the value-range argument
/// *alone*: the interval domain's global range of the predicate register
/// decides the condition uniformly, independent of any def→branch
/// distance. Used by the WCET analyzer's per-branch prover table to
/// attribute which argument (distance vs. range) carries each credit.
#[must_use]
pub fn branch_is_range_provable(
    program: &Program,
    ranges: &ValueRanges,
    pc: u32,
) -> bool {
    BitEntry::from_program(program, pc).is_ok_and(|e| {
        e.consistent_with(program) && {
            let (reg, cond) = e.di;
            ranges.global_range(reg).decides(cond).is_some()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asbr_asm::assemble;
    use asbr_flow::candidates;

    fn prog(src: &str) -> Program {
        assemble(src).unwrap()
    }

    #[test]
    fn proves_a_sound_entry() {
        let p = prog(
            "
            main:   li   r4, 3
            loop:   addi r4, r4, -1
                    nop
                    nop
            br:     bnez r4, loop
                    halt
            ",
        );
        let cfg = Cfg::build(&p);
        let e = BitEntry::from_program(&p, p.symbol("br").unwrap()).unwrap();
        let proof = prove_entry(&p, &cfg, &e, 2).unwrap();
        assert_eq!(proof.min_distance, 2);
        let v = prove_entry(&p, &cfg, &e, 3).unwrap_err();
        assert!(matches!(v, FoldViolation::Distance { distance: 2, threshold: 3, .. }), "{v}");
    }

    #[test]
    fn rejects_redefinition_on_one_path() {
        // Path A keeps the def far from the branch; path B redefines r4
        // right before it. The prover must find path B.
        let p = prog(
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
        );
        let cfg = Cfg::build(&p);
        let br = p.symbol("skip").unwrap();
        let e = BitEntry::from_program(&p, br).unwrap();
        let v = prove_entry(&p, &cfg, &e, 3).unwrap_err();
        let FoldViolation::Distance { distance, def_pc, .. } = v else {
            panic!("expected a distance violation, got {v:?}");
        };
        assert_eq!(distance, 0, "the addi is immediately before the branch");
        assert_eq!(def_pc, br - 4);
    }

    #[test]
    fn rejects_stale_entry() {
        let p = prog(
            "
            main:   li   r4, 3
            loop:   addi r4, r4, -1
                    nop
                    nop
            br:     bnez r4, loop
                    halt
            ",
        );
        let e = BitEntry::from_program(&p, p.symbol("br").unwrap()).unwrap();
        // Rewrite the branch's target instruction: entry goes stale.
        let mut words = p.text().to_vec();
        let idx = ((p.symbol("loop").unwrap() - p.text_base()) / 4) as usize;
        words[idx] = asbr_isa::Instr::NOP.encode();
        let rewritten = p.clone_with_text(words);
        let (proofs, violations) = prove_bit(&rewritten, &[e], 2);
        assert!(proofs.is_empty());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].code(), "ASBR01");
    }

    #[test]
    fn rejects_out_of_text_entry() {
        let p = prog("main: li r4, 1\nnop\nnop\nnop\nbr: bnez r4, main\nhalt");
        let cfg = Cfg::build(&p);
        let mut e = BitEntry::from_program(&p, p.symbol("br").unwrap()).unwrap();
        e.pc = 0x4;
        let v = prove_entry(&p, &cfg, &e, 2).unwrap_err();
        assert_eq!(v.code(), "ASBR03");
        assert_eq!(v.pc(), 0x4);
    }

    #[test]
    fn distance_agrees_with_flow_candidates() {
        // The independent implementations must concur on every candidate
        // of a branchy program with loops, calls and joins.
        let p = prog(
            "
            main:   li   r4, 9
                    li   r16, 2
            outer:  jal  helper
                    addi r4, r4, -1
                    nop
            bo:     bnez r4, outer
                    beqz r16, out
                    nop
            out:    halt
            helper: addi r9, r0, 3
            hloop:  addi r9, r9, -1
                    nop
            hb:     bnez r9, hloop
                    jr   r31
            ",
        );
        let cfg = Cfg::build(&p);
        for c in candidates(&p) {
            let (d, _) = min_def_distance(&cfg, c.index, c.reg);
            assert_eq!(d, c.min_def_distance, "disagreement at {:#x}", c.pc);
        }
    }

    #[test]
    fn range_constant_predicate_proves_where_distance_fails() {
        // r8 is a mask result redefined immediately before the branch —
        // the distance argument rejects at any threshold > 0 — but every
        // value it can hold is >= 0, so `bgez` is range-provable.
        let p = prog(
            "
            main:   lw   r4, 0(r0)
                    andi r8, r4, 255
            br:     bgez r8, main
                    halt
            ",
        );
        let cfg = Cfg::build(&p);
        let e = BitEntry::from_program(&p, p.symbol("br").unwrap()).unwrap();
        let proof = prove_entry(&p, &cfg, &e, 3).unwrap();
        assert_eq!(proof.method, ProofMethod::RangeConstant { taken: true }, "{proof:?}");
        assert!(proof.min_distance < 3, "distance alone must not carry this");
        let ranges = ValueRanges::compute(&p, &cfg);
        assert!(branch_is_range_provable(&p, &ranges, p.symbol("br").unwrap()));
        assert!(branch_is_provable(&p, &cfg, p.symbol("br").unwrap(), 3));

        // An undecided predicate still rejects on distance.
        let p2 = prog("main: lw r4, 0(r0)\nbr: bnez r4, main\nhalt");
        let cfg2 = Cfg::build(&p2);
        let e2 = BitEntry::from_program(&p2, p2.symbol("br").unwrap()).unwrap();
        let v = prove_entry(&p2, &cfg2, &e2, 3).unwrap_err();
        assert_eq!(v.code(), "ASBR02");
    }

    #[test]
    fn never_defined_register_proves_far() {
        let p = prog("main: nop\nbr: bltz r9, main\nhalt");
        let cfg = Cfg::build(&p);
        let i = cfg.index_of(p.symbol("br").unwrap()).unwrap();
        let (d, def) = min_def_distance(&cfg, i, Reg::new(9));
        assert_eq!(d, DISTANCE_CAP);
        assert_eq!(def, None);
    }
}
