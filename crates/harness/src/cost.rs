//! The promoted area/power cost models — typed, loadable, spec-driven.
//!
//! The paper's two non-cycle claims (Sec. 1 power, Sec. 6 area) used to
//! live as private constants inside the `costs` experiment. Design-space
//! exploration (see [`crate::explore`]) needs the same numbers as
//! first-class *objectives*, so the models now live here:
//!
//! * [`EnergyModel`] — per-event energy entries (fetch, decode, execute,
//!   memory op, register write) plus a CACTI-style `sqrt(bits)` term for
//!   every predictor/BTB/BIT table access;
//! * [`AreaModel`] — per-structure area weights over storage bits of the
//!   front-end structures a [`RunSpec`] implies;
//! * [`CostModel`] — both together, with [`CostModel::cost_of`] mapping a
//!   spec to a [`CostBreakdown`] (static: no simulation needed) and
//!   [`CostModel::energy_of`] charging a finished [`RunOutcome`]'s
//!   activity counters.
//!
//! Models load from `results/area.json` / `results/power.json` through
//! the strict [`crate::json`] parser — unknown keys and trailing garbage
//! are errors, not silently ignored — and fall back to the built-in
//! defaults when the files are absent. The per-event constants set the
//! *units*, not the conclusions: every comparison the harness reports is
//! a ratio between two configurations under the same constants.

use std::fs;
use std::io;
use std::path::Path;

use asbr_bpred::Btb;
use asbr_core::AsbrConfig;
use asbr_sim::Activity;

use crate::error::HarnessError;
use crate::json::{self, ToJson, Value};
use crate::spec::{RunOutcome, RunSpec};

/// Schema tag of `results/area.json`.
pub const AREA_SCHEMA: &str = "asbr-area-model v1";
/// Schema tag of `results/power.json`.
pub const POWER_SCHEMA: &str = "asbr-power-model v1";

/// Per-event energy constants, in arbitrary picojoule-like units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Instruction fetch (I-cache read + fetch latch).
    pub per_fetch: f64,
    /// Decode stage traversal.
    pub per_decode: f64,
    /// Execute stage traversal (ALU).
    pub per_execute: f64,
    /// Data-memory operation (D-cache access).
    pub per_mem_op: f64,
    /// Register-file write.
    pub per_reg_write: f64,
    /// Fixed part of a predictor/BTB/BIT access.
    pub per_table_access: f64,
    /// Size-dependent part: multiplied by `sqrt(storage bits)` of the
    /// accessed table.
    pub per_sqrt_bit: f64,
}

impl Default for EnergyModel {
    fn default() -> EnergyModel {
        EnergyModel {
            per_fetch: 6.0,
            per_decode: 2.0,
            per_execute: 8.0,
            per_mem_op: 10.0,
            per_reg_write: 3.0,
            per_table_access: 1.0,
            per_sqrt_bit: 0.15,
        }
    }
}

impl EnergyModel {
    /// Energy of one access to a table of `bits` storage bits.
    #[must_use]
    pub fn table_access(&self, bits: u64) -> f64 {
        self.per_table_access + self.per_sqrt_bit * (bits as f64).sqrt()
    }

    /// Core (non-predictor) pipeline energy for an activity profile.
    #[must_use]
    pub fn core_energy(&self, a: &Activity) -> f64 {
        a.fetched as f64 * self.per_fetch
            + a.decoded as f64 * self.per_decode
            + a.executed as f64 * self.per_execute
            + a.mem_ops as f64 * self.per_mem_op
            + a.reg_writes as f64 * self.per_reg_write
    }
}

/// Per-structure area weights: area units per storage bit of each
/// front-end structure. The defaults are all `1.0`, so the default model
/// reports area *in storage bits* — exactly the paper's Sec. 6 currency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// Area units per direction-predictor storage bit.
    pub per_predictor_bit: f64,
    /// Area units per BTB storage bit.
    pub per_btb_bit: f64,
    /// Area units per ASBR (BIT + BDT) storage bit.
    pub per_asbr_bit: f64,
}

impl Default for AreaModel {
    fn default() -> AreaModel {
        AreaModel { per_predictor_bit: 1.0, per_btb_bit: 1.0, per_asbr_bit: 1.0 }
    }
}

/// Per-structure cost of one configuration: raw storage bits plus the
/// area-weighted totals under an [`AreaModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Direction-predictor storage bits.
    pub predictor_bits: u64,
    /// Branch-target-buffer storage bits.
    pub btb_bits: u64,
    /// ASBR storage bits (BIT banks + BDT); zero for baseline specs.
    pub asbr_bits: u64,
    /// Area-weighted predictor contribution.
    pub predictor_area: f64,
    /// Area-weighted BTB contribution.
    pub btb_area: f64,
    /// Area-weighted ASBR contribution.
    pub asbr_area: f64,
}

impl CostBreakdown {
    /// Total front-end storage bits.
    #[must_use]
    pub fn total_bits(&self) -> u64 {
        self.predictor_bits + self.btb_bits + self.asbr_bits
    }

    /// Total area-weighted cost.
    #[must_use]
    pub fn total_area(&self) -> f64 {
        self.predictor_area + self.btb_area + self.asbr_area
    }
}

/// The combined area/power model behind the cost objectives.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostModel {
    /// Per-event energy entries (`results/power.json`).
    pub energy: EnergyModel,
    /// Per-structure area entries (`results/area.json`).
    pub area: AreaModel,
}

impl CostModel {
    /// The ASBR unit configuration a spec implies (its storage is what
    /// the area model charges; `None` for baseline specs).
    fn asbr_config(spec: &RunSpec) -> Option<AsbrConfig> {
        spec.asbr.map(|knobs| AsbrConfig {
            bit_entries: knobs.bit_entries,
            publish: knobs.publish,
            ..AsbrConfig::default()
        })
    }

    /// Static per-structure cost of a spec's front end. Needs no
    /// simulation: every input is derivable from the configuration.
    #[must_use]
    pub fn cost_of(&self, spec: &RunSpec) -> CostBreakdown {
        let predictor_bits = spec.predictor.storage_bits();
        let btb_bits = Btb::storage_bits(spec.btb_entries);
        let asbr_bits = Self::asbr_config(spec).map_or(0, |cfg| cfg.storage_bits());
        CostBreakdown {
            predictor_bits,
            btb_bits,
            asbr_bits,
            predictor_area: predictor_bits as f64 * self.area.per_predictor_bit,
            btb_area: btb_bits as f64 * self.area.per_btb_bit,
            asbr_area: asbr_bits as f64 * self.area.per_asbr_bit,
        }
    }

    /// Total dynamic energy of one finished run: core pipeline events
    /// plus size-dependent table accesses (predictor + BTB per
    /// lookup/update; for ASBR runs, a BIT probe per fetch and a BDT
    /// access per resolved fold or blocked publish).
    #[must_use]
    pub fn energy_of(&self, spec: &RunSpec, out: &RunOutcome) -> f64 {
        let a = &out.summary.stats.activity;
        let pred_bits = spec.predictor.storage_bits() + Btb::storage_bits(spec.btb_entries);
        let mut energy = self.energy.core_energy(a)
            + (a.predictor_lookups + a.predictor_updates) as f64
                * self.energy.table_access(pred_bits);
        if let Some(cfg) = Self::asbr_config(spec) {
            let bdt_accesses =
                out.asbr.map_or(0, |s| s.folds() + s.blocked_invalid);
            energy += a.fetched as f64 * self.energy.table_access(cfg.storage_bits())
                + bdt_accesses as f64 * self.energy.table_access(asbr_core::BDT_BITS);
        }
        energy
    }

    /// Loads the model from `dir/area.json` and `dir/power.json` with the
    /// strict JSON parser. A missing file falls back to that half's
    /// defaults; a present-but-invalid file is an error.
    ///
    /// # Errors
    ///
    /// [`HarnessError::SpecParse`] for malformed JSON (positioned),
    /// [`HarnessError::Spec`] for wrong schema tags, unknown keys, or
    /// non-numeric entries, and [`HarnessError::CacheIo`] for unreadable
    /// (but existing) files.
    pub fn load(dir: &Path) -> Result<CostModel, HarnessError> {
        let mut model = CostModel::default();
        if let Some(text) = read_optional(&dir.join("area.json"))? {
            model.area = parse_area(&text)?;
        }
        if let Some(text) = read_optional(&dir.join("power.json"))? {
            model.energy = parse_power(&text)?;
        }
        Ok(model)
    }

    /// Writes `dir/area.json` and `dir/power.json` from this model (the
    /// files [`CostModel::load`] reads back).
    ///
    /// # Errors
    ///
    /// [`HarnessError::Write`] when the directory or files cannot be
    /// written.
    pub fn write(&self, dir: &Path) -> Result<(), HarnessError> {
        json::write(dir.join("area.json"), &document(AREA_SCHEMA, &self.area))?;
        json::write(dir.join("power.json"), &document(POWER_SCHEMA, &self.energy))
    }
}

crate::impl_to_json!(EnergyModel {
    per_fetch,
    per_decode,
    per_execute,
    per_mem_op,
    per_reg_write,
    per_table_access,
    per_sqrt_bit,
});

crate::impl_to_json!(AreaModel { per_predictor_bit, per_btb_bit, per_asbr_bit });

/// A model file: the `schema` tag, then the model's fields.
fn document(schema: &str, model: &impl ToJson) -> Value {
    let mut fields = vec![("schema".to_owned(), schema.to_json())];
    if let Value::Obj(model) = model.to_json() {
        fields.extend(model);
    }
    Value::Obj(fields)
}

fn read_optional(path: &Path) -> Result<Option<String>, HarnessError> {
    match fs::read_to_string(path) {
        Ok(text) => Ok(Some(text)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(HarnessError::cache_io("load", path.display().to_string(), &e)),
    }
}

/// Decodes a model document: checks the schema tag, requires every field
/// to be a number, and rejects unknown keys.
fn fields_of<'v>(
    doc: &'v Value,
    schema: &str,
    known: &[&str],
) -> Result<Vec<(&'v str, f64)>, HarnessError> {
    let Value::Obj(fields) = doc else {
        return Err(HarnessError::Spec("a cost model must be a JSON object".to_owned()));
    };
    match doc.get("schema").and_then(Value::as_str) {
        Some(tag) if tag == schema => {}
        Some(tag) => {
            return Err(HarnessError::Spec(format!(
                "cost model schema `{tag}` is not `{schema}`"
            )))
        }
        None => return Err(HarnessError::Spec("cost model is missing `schema`".to_owned())),
    }
    let mut out = Vec::new();
    for (key, value) in fields {
        if key == "schema" {
            continue;
        }
        if !known.contains(&key.as_str()) {
            return Err(HarnessError::Spec(format!("unknown cost model key `{key}`")));
        }
        let Some(x) = value.as_f64() else {
            return Err(HarnessError::Spec(format!("cost model key `{key}` must be a number")));
        };
        out.push((key.as_str(), x));
    }
    Ok(out)
}

fn parse_area(text: &str) -> Result<AreaModel, HarnessError> {
    let doc = json::parse(text)?;
    let mut model = AreaModel::default();
    for (key, x) in
        fields_of(&doc, AREA_SCHEMA, &["per_predictor_bit", "per_btb_bit", "per_asbr_bit"])?
    {
        match key {
            "per_predictor_bit" => model.per_predictor_bit = x,
            "per_btb_bit" => model.per_btb_bit = x,
            "per_asbr_bit" => model.per_asbr_bit = x,
            _ => unreachable!("fields_of rejects unknown keys"),
        }
    }
    Ok(model)
}

fn parse_power(text: &str) -> Result<EnergyModel, HarnessError> {
    let doc = json::parse(text)?;
    let mut model = EnergyModel::default();
    for (key, x) in fields_of(
        &doc,
        POWER_SCHEMA,
        &[
            "per_fetch",
            "per_decode",
            "per_execute",
            "per_mem_op",
            "per_reg_write",
            "per_table_access",
            "per_sqrt_bit",
        ],
    )? {
        match key {
            "per_fetch" => model.per_fetch = x,
            "per_decode" => model.per_decode = x,
            "per_execute" => model.per_execute = x,
            "per_mem_op" => model.per_mem_op = x,
            "per_reg_write" => model.per_reg_write = x,
            "per_table_access" => model.per_table_access = x,
            "per_sqrt_bit" => model.per_sqrt_bit = x,
            _ => unreachable!("fields_of rejects unknown keys"),
        }
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asbr_bpred::PredictorKind;
    use asbr_workloads::Workload;
    use crate::spec::{AUX_BTB, BASELINE_BTB};

    #[test]
    fn shipped_model_files_load_as_the_default_model() {
        // `asbr_tool explore` loads `results/` from the repository root.
        let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
        assert_eq!(CostModel::load(dir).unwrap(), CostModel::default());
        // And the default model writes them back byte for byte.
        let out = std::env::temp_dir().join(format!("asbr-cost-write-{}", std::process::id()));
        CostModel::default().write(&out).unwrap();
        for name in ["area.json", "power.json"] {
            let read = |d: &Path| fs::read_to_string(d.join(name)).unwrap();
            assert_eq!(read(&out), read(dir), "{name}");
        }
        let _ = fs::remove_dir_all(&out);
    }

    #[test]
    fn default_area_is_storage_bits() {
        let model = CostModel::default();
        let base = RunSpec::baseline(
            Workload::AdpcmEncode,
            PredictorKind::Bimodal { entries: 2048 },
            100,
        );
        let c = model.cost_of(&base);
        assert_eq!(c.predictor_bits, 4096);
        assert_eq!(c.btb_bits, Btb::storage_bits(BASELINE_BTB));
        assert_eq!(c.asbr_bits, 0);
        assert!((c.total_area() - c.total_bits() as f64).abs() < 1e-9);

        let asbr = RunSpec::asbr(
            Workload::AdpcmEncode,
            PredictorKind::Bimodal { entries: 512 },
            100,
        );
        let c = model.cost_of(&asbr);
        assert_eq!(c.btb_bits, Btb::storage_bits(AUX_BTB));
        assert_eq!(c.asbr_bits, AsbrConfig::default().storage_bits());
        assert!(c.total_bits() < model.cost_of(&base).total_bits());
    }

    #[test]
    fn model_documents_round_trip() {
        let model = CostModel {
            energy: EnergyModel { per_fetch: 7.25, ..EnergyModel::default() },
            area: AreaModel { per_btb_bit: 0.5, ..AreaModel::default() },
        };
        let area = document(AREA_SCHEMA, &model.area).pretty();
        assert_eq!(parse_area(&area).unwrap(), model.area);
        let power = document(POWER_SCHEMA, &model.energy).pretty();
        assert_eq!(parse_power(&power).unwrap(), model.energy);
    }

    #[test]
    fn load_falls_back_and_rejects_garbage() {
        let dir = std::env::temp_dir()
            .join(format!("asbr-cost-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // No files at all: pure defaults.
        assert_eq!(CostModel::load(&dir).unwrap(), CostModel::default());
        // One valid file: that half loads, the other defaults.
        fs::write(
            dir.join("area.json"),
            format!("{{\"schema\": \"{AREA_SCHEMA}\", \"per_btb_bit\": 2.5}}"),
        )
        .unwrap();
        let m = CostModel::load(&dir).unwrap();
        assert!((m.area.per_btb_bit - 2.5).abs() < 1e-12);
        assert_eq!(m.energy, EnergyModel::default());
        // Unknown keys are errors, not silently dropped.
        fs::write(
            dir.join("power.json"),
            format!("{{\"schema\": \"{POWER_SCHEMA}\", \"per_flux\": 1.0}}"),
        )
        .unwrap();
        let e = CostModel::load(&dir).unwrap_err();
        assert!(e.to_string().contains("per_flux"), "{e}");
        // Wrong schema tag is an error too.
        fs::write(dir.join("power.json"), "{\"schema\": \"bogus\"}").unwrap();
        assert!(CostModel::load(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn energy_charges_asbr_tables() {
        // A hand-run pair: ASBR specs must pay BIT/BDT access energy on
        // top of the (smaller) auxiliary predictor.
        let model = CostModel::default();
        let spec = RunSpec::asbr(
            Workload::AdpcmEncode,
            PredictorKind::Bimodal { entries: 256 },
            60,
        );
        let out = spec.execute().unwrap();
        let energy = model.energy_of(&spec, &out);
        assert!(energy > 0.0);
        // Dropping the ASBR term (pretend baseline) must strictly reduce
        // the charged energy for the same outcome.
        let mut as_baseline = spec;
        as_baseline.asbr = None;
        assert!(model.energy_of(&as_baseline, &out) < energy);
    }
}
