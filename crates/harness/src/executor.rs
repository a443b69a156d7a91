//! The batch executor: run a slice of specs, get outcomes back in input
//! order.
//!
//! [`Executor`] names a worker count and a cache mode. Its first
//! [`Executor::run`] starts a pool of worker threads (the crate-private
//! `shared` module) that every later batch on the same executor reuses;
//! dropping the executor joins the workers. Equal specs in one batch
//! simulate once, results are deterministic in input order, and the
//! earliest-indexed error wins.
//!
//! Work avoidance is layered: in-batch dedup, then the
//! content-addressed on-disk [`ResultCache`] (see [`CacheMode`]), then
//! shared-prefix memoization per `(workload, hoist, samples)`, then
//! machine dedup (specs of one alias class that select the same branches
//! simulate once: BIT capacity is ignored, bimodal and BTB sizes that
//! slot the program's branches identically are one, and so are cache
//! sizes that hold every line a run that never evicted touched). A cold
//! batch writes one cache entry per simulated machine, hard-linked under
//! the key of every spec it served.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::thread;

use crate::cache::ResultCache;
use crate::error::HarnessError;
use crate::shared::Pool;
use crate::spec::{RunOutcome, RunSpec};

/// How the executor uses the on-disk result cache.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum CacheMode {
    /// Never touch the disk (`--no-cache`). In-memory dedup and prefix
    /// memoization still apply.
    #[default]
    Disabled,
    /// Read and write the cache rooted at the given directory.
    Enabled(PathBuf),
    /// Ignore existing entries but rewrite them from fresh runs
    /// (`--refresh`).
    Refresh(PathBuf),
}

impl CacheMode {
    /// `Enabled` at the conventional `results/cache/` root.
    #[must_use]
    pub fn default_dir() -> CacheMode {
        CacheMode::Enabled(ResultCache::default_root())
    }

    pub(crate) fn open(&self) -> Option<(ResultCache, bool)> {
        match self {
            CacheMode::Disabled => None,
            CacheMode::Enabled(root) => Some((ResultCache::new(root.clone()), false)),
            CacheMode::Refresh(root) => Some((ResultCache::new(root.clone()), true)),
        }
    }
}

/// A point-in-time snapshot of an [`Executor`]'s counters; see
/// [`Executor::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ExecutorStats {
    /// Specs submitted to the pool: the first occurrence of each spec in
    /// a batch.
    pub submitted: u64,
    /// Jobs finished (success or error).
    pub completed: u64,
    /// Specs served from an equal spec earlier in the same batch.
    pub dedup_hits: u64,
    /// Jobs served from the on-disk result cache.
    pub cache_hits: u64,
    /// Simulations actually run.
    pub computed: u64,
    /// Jobs served from the simulation of an equivalent machine: a spec,
    /// baseline or ASBR, of the same alias class that selected the same
    /// branches. The class ignores BIT capacity, maps bimodal and BTB
    /// sizes that slot the program's conditional branches identically to
    /// one size, and maps cache sizes that hold every line a run whose
    /// caches never evicted touched to that run's size.
    pub machine_hits: u64,
    /// Jobs that finished with an error.
    pub errors: u64,
}

/// The batch executor: a worker count, a cache mode, and the pool they
/// start. See the module docs.
///
/// # Examples
///
/// ```
/// use asbr_bpred::PredictorKind;
/// use asbr_harness::{Executor, RunSpec};
/// use asbr_workloads::Workload;
///
/// let specs = [
///     RunSpec::baseline(Workload::AdpcmEncode, PredictorKind::NotTaken, 50),
///     RunSpec::asbr(Workload::AdpcmEncode, PredictorKind::NotTaken, 50),
/// ];
/// let outcomes = Executor::new().run(&specs)?;
/// assert!(outcomes[1].cycles() < outcomes[0].cycles());
/// # Ok::<(), asbr_harness::HarnessError>(())
/// ```
#[derive(Debug, Default)]
pub struct Executor {
    threads: usize,
    cache: CacheMode,
    /// The pool behind [`Executor::run`], started by the first batch.
    pool: OnceLock<Pool>,
}

impl Executor {
    /// An executor with one worker per available core and no on-disk
    /// cache.
    #[must_use]
    pub fn new() -> Executor {
        Executor::default()
    }

    /// Sets the worker count; `0` (the default) means one per available
    /// core. Any pool this executor already started is discarded (drained
    /// and joined) so the next batch runs at the new width.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Executor {
        self.threads = threads;
        self.pool = OnceLock::new();
        self
    }

    /// Sets the cache mode. Any pool this executor already started is
    /// discarded (drained and joined).
    #[must_use]
    pub fn cache(mut self, cache: CacheMode) -> Executor {
        self.cache = cache;
        self.pool = OnceLock::new();
        self
    }

    /// Snapshots the counters of every batch this executor has run (all
    /// zero before the first).
    #[must_use]
    pub fn stats(&self) -> ExecutorStats {
        self.pool.get().map_or_else(ExecutorStats::default, Pool::stats)
    }

    /// The pool, started on first use with [`Executor::threads`] workers:
    /// one per available core for `0`, the count as given otherwise.
    pub(crate) fn pool(&self) -> &Pool {
        self.pool.get_or_init(|| {
            let workers = match self.threads {
                0 => thread::available_parallelism().map_or(1, usize::from),
                n => n,
            };
            Pool::start(workers, self.cache.open())
        })
    }

    /// Runs every spec and returns outcomes in input order.
    ///
    /// Identical specs are simulated once; later occurrences get clones
    /// marked `cached`, with a `wall_nanos` of 0. An empty batch starts
    /// no pool. Every outcome carries the shared prefix of its
    /// spec ([`RunOutcome::prefix`]), however it was produced. On
    /// multiple failures the error of the earliest-indexed failing spec
    /// is returned, so the error too is deterministic.
    ///
    /// # Errors
    ///
    /// Returns the first [`HarnessError`] (by input index) any spec
    /// produced.
    pub fn run(&self, specs: &[RunSpec]) -> Result<Vec<RunOutcome>, HarnessError> {
        if specs.is_empty() {
            return Ok(Vec::new());
        }
        let mut first_at: HashMap<RunSpec, usize> = HashMap::new();
        let mut alias_of: Vec<usize> = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            alias_of.push(*first_at.entry(*spec).or_insert(i));
        }
        let pool = self.pool();
        pool.count_duplicates((specs.len() - first_at.len()) as u64);

        let hold = pool.hold_groups(specs);
        let jobs: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| (alias_of[i] == i).then(|| pool.submit(*spec)))
            .collect();
        drop(hold);

        let mut results: Vec<Option<Result<RunOutcome, HarnessError>>> =
            jobs.into_iter().map(|job| job.map(|job| job.wait())).collect();

        let mut out: Vec<RunOutcome> = Vec::with_capacity(specs.len());
        for i in 0..specs.len() {
            if alias_of[i] != i {
                // Duplicate spec: clone the primary outcome already moved
                // into `out`, marked as served without simulating, in no
                // wall time of its own.
                let mut dup: RunOutcome = out[alias_of[i]].clone();
                dup.cached = true;
                dup.wall_nanos = 0;
                out.push(dup);
                continue;
            }
            out.push(results[i].take().expect("every primary has a result")?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asbr_bpred::PredictorKind;
    use asbr_workloads::Workload;

    fn small_batch() -> Vec<RunSpec> {
        let w = Workload::AdpcmEncode;
        vec![
            RunSpec::baseline(w, PredictorKind::NotTaken, 40),
            RunSpec::asbr(w, PredictorKind::NotTaken, 40),
            RunSpec::baseline(w, PredictorKind::NotTaken, 40), // duplicate
        ]
    }

    #[test]
    fn duplicates_are_deduped_and_order_preserved() {
        let out = Executor::new().threads(2).run(&small_batch()).unwrap();
        assert_eq!(out.len(), 3);
        assert!(!out[0].cached);
        assert!(out[2].cached, "third spec duplicates the first");
        assert!(out[2].same_result(&out[0]));
        assert_eq!(out[2].wall_nanos, 0, "a duplicate takes no wall time");
        assert!(out[0].wall_nanos > 0, "the primary's wall is its simulation's");
        assert!(out[1].asbr.is_some());
    }

    #[test]
    fn parallel_matches_serial() {
        let specs = small_batch();
        let serial = Executor::new().threads(1).run(&specs).unwrap();
        let parallel = Executor::new().threads(4).run(&specs).unwrap();
        for (s, p) in serial.iter().zip(&parallel) {
            assert!(s.same_result(p));
        }
    }

    #[test]
    fn zero_threads_start_one_worker_per_core_and_a_count_is_literal() {
        let cores = thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(Executor::new().pool().workers(), cores);
        assert_eq!(Executor::new().threads(0).pool().workers(), cores);
        for n in [1, 3, cores + 2] {
            assert_eq!(Executor::new().threads(n).pool().workers(), n);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let ex = Executor::new();
        let out = ex.run(&[]).unwrap();
        assert!(out.is_empty());
        assert!(ex.pool.get().is_none(), "an empty batch started the pool");
        assert_eq!(ex.stats(), ExecutorStats::default());
    }

    #[test]
    fn run_reuses_one_pool_across_batches() {
        // Both batches must ride one memoized pool — its counters
        // accumulate — and results/ordering must be unchanged batch to
        // batch.
        let ex = Executor::new().threads(2);
        let first = ex.run(&small_batch()).unwrap();
        let second = ex.run(&small_batch()).unwrap();
        assert_eq!(first.len(), second.len());
        for (i, (a, b)) in first.iter().zip(&second).enumerate() {
            assert!(a.same_result(b), "spec {i} diverged between batches");
        }
        assert!(second[2].cached, "in-batch dedup ordering unchanged");
        let stats = ex.stats();
        assert_eq!(
            stats.submitted, 4,
            "both batches' primaries (2 each) must land on the same pool"
        );
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.dedup_hits, 2, "one in-batch duplicate per batch");
    }
}
