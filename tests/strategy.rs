//! The scalar pipeline's complete statistics, pinned: every workload,
//! baseline and ASBR-customized, under the paper's configuration and a
//! tweaked one, must reproduce the digests recorded from the reference
//! engine. Any change that moves a counter, an attribution bucket, a
//! per-site or per-branch record, the guest output or the selection
//! shows up here. The untweaked runs must also reproduce the simulated
//! cycles and retired instructions of the throughput golden.

use std::fmt::Write as _;

use asbr_harness::json::{self, Value};
use asbr_harness::{Executor, MicroTweaks, RunOutcome, RunSpec, PROFILE_PREDICTOR};
use asbr_workloads::Workload;

const SAMPLES: usize = 400;

/// FNV-1a digest of everything an exact run reports: every event
/// counter, the activity counters, all attribution buckets, the per-site
/// records, the per-branch prediction records (sorted by PC), the guest
/// output, the fold counters and the selected branches.
fn outcome_digest(o: &RunOutcome) -> u64 {
    let s = &o.summary.stats;
    let mut branches: Vec<_> = s.branches.iter().map(|(pc, r)| (pc, *r)).collect();
    branches.sort_by_key(|&(pc, _)| pc);
    let mut text = String::new();
    write!(
        text,
        "{} {} {} {} {} {} {} {} {} {} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?}",
        s.cycles,
        s.retired,
        s.branch_flushes,
        s.jump_redirects,
        s.indirect_flushes,
        s.load_use_stalls,
        s.icache_stall_cycles,
        s.dcache_stall_cycles,
        s.ex_stall_cycles,
        s.folded_branches,
        s.activity,
        s.attribution.buckets(),
        s.attribution.sites(),
        branches,
        s.branches.total(),
        o.summary.output,
        o.asbr,
        o.selected,
    )
    .unwrap();
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The cycle-accurate engine's complete statistics stay bit-identical to
/// the reference engine they were pinned from, for every workload,
/// baseline and ASBR-customized, under the paper's configuration and
/// under a configuration with a return-address stack, multi-cycle
/// multiply/divide and small caches. A change that moves any counter,
/// bucket, per-site or per-branch record changes a digest. The 16 runs
/// go to one executor batch, the path every table takes, and the 8
/// untweaked ones must match `tests/goldens/throughput_smoke_400.json`
/// on `cycles` and `retired`, label by label, with no label missing
/// from either side.
#[test]
fn scalar_statistics_match_pinned_digests() {
    let tweaks =
        MicroTweaks { ras_entries: 8, cache_bytes: 512, ..MicroTweaks::muldiv(4, 12) };
    let mut specs = Vec::new();
    let mut labels = Vec::new();
    for &w in &Workload::ALL {
        for tweaked in [false, true] {
            for asbr in [false, true] {
                let mut spec = if asbr {
                    RunSpec::asbr(w, PROFILE_PREDICTOR, SAMPLES)
                } else {
                    RunSpec::baseline(w, PROFILE_PREDICTOR, SAMPLES)
                };
                if tweaked {
                    spec = spec.with_tweaks(tweaks);
                }
                labels.push(format!("{}{}", spec.label(), if tweaked { "/tweaked" } else { "" }));
                specs.push(spec);
            }
        }
    }
    let outcomes = Executor::new().run(&specs).unwrap();
    let mut got = Vec::new();
    for (label, out) in labels.iter().zip(&outcomes) {
        assert_eq!(out.summary.stats.attribution.total(), out.cycles(), "{label}");
        got.push((label.clone(), outcome_digest(out)));
    }
    let want: [(&str, u64); 16] = [
        ("ADPCM Encode/bimodal/baseline", 0x9c0c_2b2c_49fc_15ea),
        ("ADPCM Encode/bimodal/asbr", 0xcdf6_4dde_dd66_6f04),
        ("ADPCM Encode/bimodal/baseline/tweaked", 0x9c0c_2b2c_49fc_15ea),
        ("ADPCM Encode/bimodal/asbr/tweaked", 0xcdf6_4dde_dd66_6f04),
        ("ADPCM Decode/bimodal/baseline", 0x2276_eada_8bdf_835c),
        ("ADPCM Decode/bimodal/asbr", 0x43dd_47d6_208d_298b),
        ("ADPCM Decode/bimodal/baseline/tweaked", 0x2276_eada_8bdf_835c),
        ("ADPCM Decode/bimodal/asbr/tweaked", 0x43dd_47d6_208d_298b),
        ("G.721 Encode/bimodal/baseline", 0x66ea_7b7f_4322_a52f),
        ("G.721 Encode/bimodal/asbr", 0x26e5_c1bc_0116_bb7e),
        ("G.721 Encode/bimodal/baseline/tweaked", 0x40c8_c58d_e5f8_9180),
        ("G.721 Encode/bimodal/asbr/tweaked", 0xa33c_8bc9_4310_dc22),
        ("G.721 Decode/bimodal/baseline", 0xab30_d962_528e_440f),
        ("G.721 Decode/bimodal/asbr", 0x57fe_016f_d629_0b0e),
        ("G.721 Decode/bimodal/baseline/tweaked", 0x5de4_43fd_cf51_1f9c),
        ("G.721 Decode/bimodal/asbr/tweaked", 0x46a1_b193_ae2f_4245),
    ];
    assert_eq!(got.len(), want.len());
    for ((label, digest), (want_label, want)) in got.iter().zip(want) {
        assert_eq!(label, want_label);
        assert_eq!(*digest, want, "{label}: statistics drifted from the pinned digest");
    }

    let untweaked: Vec<_> =
        labels.iter().zip(&outcomes).filter(|(l, _)| !l.ends_with("/tweaked")).collect();
    let golden = json::parse(include_str!("goldens/throughput_smoke_400.json")).unwrap();
    let entries = golden.get("entries").and_then(Value::as_arr).unwrap();
    let mut drift = Vec::new();
    for e in entries {
        let label = e.get("label").and_then(Value::as_str).unwrap();
        let pinned = ["cycles", "retired"].map(|k| e.get(k).and_then(Value::as_u64).unwrap());
        match untweaked.iter().find(|(l, _)| *l == label) {
            Some((_, out)) => {
                let ran = [out.cycles(), out.summary.stats.retired];
                if ran != pinned {
                    drift.push(format!("`{label}`: ran {ran:?}, golden pins {pinned:?}"));
                }
            }
            None => drift.push(format!("`{label}`: missing from this run")),
        }
    }
    for (label, _) in &untweaked {
        if !entries.iter().any(|e| e.get("label").and_then(Value::as_str) == Some(label)) {
            drift.push(format!("`{label}`: not in the golden"));
        }
    }
    let drift = drift.join("\n  ");
    assert!(drift.is_empty(), "[cycles, retired] drifted from the golden:\n  {drift}");
}
