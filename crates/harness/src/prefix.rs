//! The shared prefix of every run on one `(workload, hoist, samples)`
//! key, and the one functional pass made over it.
//!
//! A [`Prefix`] holds the assembled program (hoisted when the key says
//! so), the input vector, what every spec's cache key and alias class
//! derive from them, and, built on first request, the profile report of
//! the one `Interp` run over them: the branch profile that selection
//! reads and the per-pc retire counts that the WCET bound reads. The
//! executor memoizes one prefix per key; [`RunSpec::execute`] builds one
//! of its own. Every outcome they return
//! carries its prefix ([`RunOutcome::prefix`]), so
//! [`crate::wcet::cross_check`] reads the counts from it instead of
//! interpreting the program again.
//!
//! [`RunOutcome::prefix`]: crate::RunOutcome::prefix

use std::fmt;
use std::sync::{Arc, Mutex};

use asbr_asm::Program;
use asbr_profile::{profile, ProfileReport};
use asbr_sim::SimError;
use asbr_workloads::Workload;

use crate::cache::ResultCache;
use crate::error::HarnessError;
use crate::hash::Sha256;
use crate::spec::{branch_pcs, Machine, RunSpec, PROFILE_PREDICTOR};

/// What a prefix is shared by: the workload, whether its program is
/// hoisted, and the input samples.
pub(crate) type PrefixKey = (Workload, bool, usize);

/// The shared prefix of every spec on one `(workload, hoist, samples)`
/// key; see the module docs. Outcomes hold it behind an `Arc`.
pub struct Prefix {
    key: PrefixKey,
    pub(crate) program: Program,
    pub(crate) input: Vec<i32>,
    /// Cache-key hash state after the program and input
    /// ([`ResultCache::key_prefix`]).
    pub(crate) key_prefix: Sha256,
    /// The program's static conditional-branch PCs.
    pub(crate) branch_pcs: Vec<u32>,
    report: Mutex<Option<Arc<ProfileReport>>>,
}

impl Prefix {
    /// The key of the prefix `spec` runs on.
    pub(crate) fn key(spec: &RunSpec) -> PrefixKey {
        (spec.workload, spec.hoist(), spec.samples)
    }

    /// Assembles `spec`'s program and synthesizes its input. The profile
    /// waits for the first [`Prefix::report`].
    pub(crate) fn of(spec: &RunSpec) -> Prefix {
        let program = spec.program();
        let input = spec.workload.input(spec.samples);
        Prefix {
            key: Prefix::key(spec),
            key_prefix: ResultCache::key_prefix(&program, &input),
            branch_pcs: branch_pcs(&program),
            program,
            input,
            report: Mutex::new(None),
        }
    }

    /// Whether `spec` runs on this prefix.
    pub(crate) fn serves(&self, spec: &RunSpec) -> bool {
        self.key == Prefix::key(spec)
    }

    /// The profile of the program on the input against
    /// [`PROFILE_PREDICTOR`], with per-pc retire counts. The first call
    /// runs the interpreter; every later one, from any thread, shares
    /// its report.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] of the profiling run. An error is not memoized.
    pub(crate) fn report(&self) -> Result<Arc<ProfileReport>, SimError> {
        let mut slot = self.report.lock().expect("profile lock never poisoned");
        if let Some(r) = &*slot {
            return Ok(Arc::clone(r));
        }
        let r = Arc::new(profile(&self.program, &self.input, &[PROFILE_PREDICTOR])?);
        *slot = Some(Arc::clone(&r));
        Ok(r)
    }

    /// Resolves `spec`, which must run on this prefix, to the machine it
    /// builds, profiling first if it is an ASBR spec.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Sim`] from the profiling run.
    pub(crate) fn resolve(&self, spec: &RunSpec) -> Result<Machine, HarnessError> {
        let report = spec.asbr.map(|_| self.report()).transpose()?;
        Ok(spec.resolve(&self.program, report.as_deref(), &self.branch_pcs))
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (workload, hoist, samples) = self.key;
        f.debug_struct("Prefix")
            .field("workload", &workload)
            .field("hoist", &hoist)
            .field("samples", &samples)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CACHE_FORMAT;
    use crate::spec::RunOutcome;
    use asbr_bpred::PredictorKind;

    #[test]
    fn the_prefix_is_not_part_of_the_result() {
        assert_eq!(CACHE_FORMAT, "asbr-run-cache v4");
        let bi512 = PredictorKind::Bimodal { entries: 512 };
        let spec = RunSpec::asbr(Workload::AdpcmEncode, bi512, 60);
        let with = spec.execute().unwrap();
        let prefix = with.prefix.clone().expect("execute attaches its prefix");
        assert!(prefix.serves(&spec));
        let without = RunOutcome { prefix: None, ..with.clone() };
        assert_eq!(with, without);
        assert!(with.same_result(&without));

        let key = ResultCache::key(&spec, &spec.program(), &spec.workload.input(spec.samples));
        assert_eq!(key, ResultCache::key_with(&prefix.key_prefix, &spec));
        let dir = std::env::temp_dir().join(format!("asbr-prefix-bytes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let bytes = |name: &str, outcome: &RunOutcome| {
            let cache = ResultCache::new(dir.join(name));
            cache.store(&key, &spec.label(), outcome).unwrap();
            std::fs::read(dir.join(name).join(format!("{key}.run"))).unwrap()
        };
        assert_eq!(bytes("with", &with), bytes("without", &without));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
