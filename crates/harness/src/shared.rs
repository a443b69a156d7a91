//! The worker pool behind [`crate::Executor`].
//!
//! A fixed set of persistent worker threads fed from one job queue. The
//! executor starts the pool on its first batch and reuses it for every
//! later one; dropping the executor drains the queue and joins the
//! workers. Every internal cell is a `Mutex`, `Condvar`, or atomic, so
//! one `&Executor` may run batches from several threads at once.
//!
//! Work avoidance is layered: disk cache first (per [`crate::CacheMode`]),
//! then the shared-prefix memo (a `Prefix` per `(workload, hoist,
//! samples)`: program text, input vector, cache-key hash state, static
//! branch PCs, and the profile report with per-pc retire counts), then
//! machine dedup, then the run itself. Every outcome a job returns
//! carries its job's prefix, whichever layer produced it. Machine
//! dedup resolves a spec to the machine it builds (a `Machine`: the spec
//! with BIT capacity cleared, the selected branches, and its alias class,
//! which drops the cache size and maps bimodal and BTB sizes that slot
//! the program's branches identically to one size) and simulates each
//! class once. The first job of a class simulates its own spec. A job
//! whose class is already running or done is served that run's outcome,
//! marked `cached`, if the run provably behaves like the job's machine:
//! every branch of the run came from the loaded text or it ran the job's
//! predictor and BTB, and its caches have the job's geometry or never
//! evicted and touched lines the job's caches hold. A job the run does
//! not serve tries the class at its own cache size, then its own spec;
//! a waiter goes back on the queue to do so.
//!
//! The memo is grouped by the spec with BIT, bimodal, BTB and cache sizes
//! cleared. A group is dropped as soon as its last admitted job
//! completes, so it holds outcomes only while an equivalent job may still
//! ask for them. Dropping it writes the disk cache: one
//! entry per simulated machine, listing the key of every job that machine
//! served and hard-linked under each (see [`ResultCache`]). Disk hits on
//! such an entry decode its body once per executor.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use asbr_bpred::PredictorKind;

use crate::cache::{Decoded, ResultCache};
use crate::error::HarnessError;
use crate::executor::ExecutorStats;
use crate::prefix::{Prefix, PrefixKey};
use crate::spec::{Machine, RunOutcome, RunSpec, Witness};

/// A run's result as jobs share it: one outcome behind an `Arc`, cloned
/// only by the thread that waits for it.
type Shared = Result<Arc<RunOutcome>, HarnessError>;

/// One submitted run: its spec, resolved prefix, content key, and the
/// slot its result lands in, with whether a machine's run served it.
pub(crate) struct JobState {
    spec: RunSpec,
    key: String,
    prefix: Arc<Prefix>,
    slot: Mutex<Option<(Shared, bool)>>,
    done: Condvar,
}

impl JobState {
    fn finish(&self, result: Shared, served: bool) {
        *self.slot.lock().expect("job slot lock never poisoned") = Some((result, served));
        self.done.notify_all();
    }

    /// Blocks until the job finishes and returns its outcome, marked
    /// `cached` with a `wall_nanos` of 0 if an equivalent machine's run
    /// served it, and carrying the job's prefix however the outcome was
    /// produced.
    pub(crate) fn wait(&self) -> Result<RunOutcome, HarnessError> {
        let mut slot = self.slot.lock().expect("job slot lock never poisoned");
        while slot.is_none() {
            slot = self.done.wait(slot).expect("job slot lock never poisoned");
        }
        let (result, served) = slot.as_ref().expect("loop exits only when filled");
        let mut outcome = RunOutcome::clone(result.as_ref().map_err(Clone::clone)?);
        if *served {
            outcome.cached = true;
            outcome.wall_nanos = 0;
        }
        outcome.prefix = Some(Arc::clone(&self.prefix));
        Ok(outcome)
    }
}

/// A queued job. A job a run of its class did not serve is queued again
/// with its machine and the first of [`Machine::keys`] it still has to
/// try.
struct Task {
    job: Arc<JobState>,
    resume: Option<(Machine, usize)>,
}

struct Queue {
    jobs: VecDeque<Task>,
    shutdown: bool,
}

/// The machines of one group: jobs whose specs are equal up to BIT,
/// bimodal, BTB and cache sizes.
#[derive(Default)]
struct Group {
    /// Admitted jobs of the group not yet completed.
    pending: usize,
    /// Each run of the group, by the index of one of [`Machine::keys`],
    /// that key, and the selected branch PCs.
    machines: HashMap<RunKey, MachineRun>,
}

/// The index of one of a machine's keys, the key, and the selected
/// branch PCs. Runs under the last key are of the machine's own spec.
type RunKey = (usize, RunSpec, Vec<u32>);

/// One class's simulation.
enum MachineRun {
    /// Simulating; the jobs of the class that arrived meanwhile wait here,
    /// with their machines and the index of the key they wait under.
    Running(Vec<(Arc<JobState>, Machine, usize)>),
    /// Finished, with the cache keys of the jobs it served, its own
    /// included; later jobs of the class share it if it serves them.
    Done(Arc<Finished>, Vec<String>),
}

/// A finished simulation of one machine of a class.
struct Finished {
    /// The capacity-cleared spec that was simulated.
    spec: RunSpec,
    /// What the run shows about the class's other machines (empty after
    /// an error).
    witness: Witness,
    result: Shared,
}

/// The group key of a spec: the spec with BIT, bimodal, BTB and cache
/// sizes cleared. Unlike the class it needs no program, so a batch can
/// hold its groups open before any prefix is built.
fn group_of(spec: &RunSpec) -> RunSpec {
    let mut key = *spec;
    if let Some(knobs) = &mut key.asbr {
        knobs.bit_entries = 0;
    }
    if let PredictorKind::Bimodal { entries } = &mut key.predictor {
        *entries = 0;
    }
    key.btb_entries = 0;
    key.tweaks.cache_bytes = 0;
    key
}

/// Monotonic counters of a [`Pool`]; [`Pool::stats`] snapshots them.
#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    dedup_hits: AtomicU64,
    cache_hits: AtomicU64,
    computed: AtomicU64,
    machine_hits: AtomicU64,
    errors: AtomicU64,
}

struct Inner {
    queue: Mutex<Queue>,
    work_ready: Condvar,
    cache: Option<(ResultCache, bool)>,
    prefixes: Mutex<HashMap<PrefixKey, Arc<Prefix>>>,
    /// Multi-key disk entries decoded so far.
    decoded: Decoded,
    groups: Mutex<HashMap<RunSpec, Group>>,
    stats: Counters,
}

/// The executor's worker pool; see the module docs.
pub(crate) struct Pool {
    inner: Arc<Inner>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("workers", &self.workers.len()).finish_non_exhaustive()
    }
}

impl Pool {
    /// Starts `threads` workers.
    pub(crate) fn start(threads: usize, cache: Option<(ResultCache, bool)>) -> Pool {
        let inner = Arc::new(Inner {
            queue: Mutex::new(Queue { jobs: VecDeque::new(), shutdown: false }),
            work_ready: Condvar::new(),
            cache,
            prefixes: Mutex::new(HashMap::new()),
            decoded: Mutex::new(HashMap::new()),
            groups: Mutex::new(HashMap::new()),
            stats: Counters::default(),
        });
        let workers = (0..threads.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Pool { inner, workers }
    }

    /// Number of worker threads.
    #[cfg(test)]
    pub(crate) fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Snapshots the pool's counters.
    pub(crate) fn stats(&self) -> ExecutorStats {
        let s = &self.inner.stats;
        ExecutorStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            dedup_hits: s.dedup_hits.load(Ordering::Relaxed),
            cache_hits: s.cache_hits.load(Ordering::Relaxed),
            computed: s.computed.load(Ordering::Relaxed),
            machine_hits: s.machine_hits.load(Ordering::Relaxed),
            errors: s.errors.load(Ordering::Relaxed),
        }
    }

    /// Counts specs a batch served from an equal spec of the same batch.
    pub(crate) fn count_duplicates(&self, n: u64) {
        self.inner.stats.dedup_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// The memoized prefix for a spec's `(workload, hoist, samples)` key,
    /// building it on first use.
    fn prefix_for(&self, spec: &RunSpec) -> Arc<Prefix> {
        let mut map = self.inner.prefixes.lock().expect("prefix lock never poisoned");
        Arc::clone(map.entry(Prefix::key(spec)).or_insert_with(|| Arc::new(Prefix::of(spec))))
    }

    /// Queues a spec; redeem the job with [`JobState::wait`].
    pub(crate) fn submit(&self, spec: RunSpec) -> Arc<JobState> {
        let prefix = self.prefix_for(&spec);
        let key = ResultCache::key_with(&prefix.key_prefix, &spec);
        let job =
            Arc::new(JobState { spec, key, prefix, slot: Mutex::new(None), done: Condvar::new() });
        self.inner.join_group(&spec);
        let task = Task { job: Arc::clone(&job), resume: None };
        self.inner.queue.lock().expect("queue lock never poisoned").jobs.push_back(task);
        self.inner.stats.submitted.fetch_add(1, Ordering::Relaxed);
        self.inner.work_ready.notify_one();
        job
    }

    /// Holds the machine-dedup groups of `specs` open until the guard is
    /// dropped. A batch holds them while it submits, so a job finishing
    /// before its equivalents are admitted cannot drop its group early:
    /// which jobs share a simulation then does not depend on timing.
    pub(crate) fn hold_groups<'a>(&'a self, specs: &'a [RunSpec]) -> GroupHold<'a> {
        for spec in specs {
            self.inner.join_group(spec);
        }
        GroupHold { inner: &self.inner, specs }
    }
}

impl Drop for Pool {
    /// Drains the queued jobs and joins the workers.
    fn drop(&mut self) {
        self.inner.queue.lock().expect("queue lock never poisoned").shutdown = true;
        self.inner.work_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Keeps a batch's machine-dedup groups open; see [`Pool::hold_groups`].
pub(crate) struct GroupHold<'a> {
    inner: &'a Inner,
    specs: &'a [RunSpec],
}

impl Drop for GroupHold<'_> {
    fn drop(&mut self) {
        for spec in self.specs {
            self.inner.leave_group(spec);
        }
    }
}

impl Inner {
    /// Counts a pending job of `spec`'s group, creating the group.
    fn join_group(&self, spec: &RunSpec) {
        let mut groups = self.groups.lock().expect("group lock never poisoned");
        groups.entry(group_of(spec)).or_default().pending += 1;
    }

    /// Counts a job of `spec`'s group as completed. The group's last
    /// pending job drops it, with the outcomes it memoizes, and stores
    /// every run it holds as one disk-cache entry under the keys of all
    /// the jobs the run served.
    fn leave_group(&self, spec: &RunSpec) {
        let key = group_of(spec);
        let closed = {
            let mut groups = self.groups.lock().expect("group lock never poisoned");
            let group = groups.get_mut(&key).expect("admitted jobs keep their group");
            group.pending -= 1;
            if group.pending > 0 {
                return;
            }
            groups.remove(&key).expect("the group was just found")
        };
        let Some((store, _)) = &self.cache else {
            return;
        };
        for run in closed.machines.into_values() {
            if let MachineRun::Done(run, keys) = run {
                if let Ok(outcome) = &run.result {
                    // Cache write failure degrades to uncached operation.
                    let _ = store.store_all(&keys, &run.spec.label(), outcome);
                }
            }
        }
    }

    /// Publishes a job's result and retires it from every table. `served`
    /// marks a result another job's run served.
    fn complete(&self, job: &JobState, result: Shared, served: bool) {
        self.leave_group(&job.spec);
        if result.is_err() {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.stats.completed.fetch_add(1, Ordering::Relaxed);
        job.finish(result, served);
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let task = {
            let mut q = inner.queue.lock().expect("queue lock never poisoned");
            loop {
                if let Some(task) = q.jobs.pop_front() {
                    break task;
                }
                if q.shutdown {
                    return;
                }
                q = inner.work_ready.wait(q).expect("queue lock never poisoned");
            }
        };
        run_task(inner, task);
    }
}

/// Runs a task: completes its job, or leaves it waiting on a running
/// machine of its class, whose worker completes it or queues it again.
fn run_task(inner: &Inner, task: Task) {
    let Task { job, resume } = task;
    let (machine, first) = match resume {
        Some(resume) => resume,
        None => {
            if let Some((store, refresh)) = &inner.cache {
                if *refresh {
                    store.evict(&job.key);
                } else if let Some(hit) = store.load_shared(&job.key, &inner.decoded) {
                    inner.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return inner.complete(&job, Ok(hit), false);
                }
            }
            match job.prefix.resolve(&job.spec) {
                Ok(machine) => (machine, 0),
                Err(e) => return inner.complete(&job, Err(e), false),
            }
        }
    };

    // Machine dedup, under each of the machine's keys in turn: wait on a
    // run still going, take a finished one that serves the machine, or
    // simulate.
    let group = group_of(&job.spec);
    let mut groups = inner.groups.lock().expect("group lock never poisoned");
    let runs = &mut groups.get_mut(&group).expect("admitted jobs keep their group").machines;
    for (level, class) in machine.keys().into_iter().enumerate().skip(first) {
        let key = (level, class, machine.selected.clone());
        match runs.get_mut(&key) {
            Some(MachineRun::Running(waiters)) => {
                waiters.push((job, machine, level));
                return;
            }
            Some(MachineRun::Done(run, keys)) => {
                if machine.served_by(&run.spec, &run.witness) {
                    keys.push(job.key.clone());
                    let result = run.result.clone();
                    drop(groups);
                    inner.stats.machine_hits.fetch_add(1, Ordering::Relaxed);
                    return inner.complete(&job, result, true);
                }
            }
            None => {
                runs.insert(key.clone(), MachineRun::Running(Vec::new()));
                drop(groups);
                return simulate(inner, &job, &machine, &group, &key);
            }
        }
    }
    unreachable!("a run of the machine's own spec always serves it")
}

/// Simulates a job's machine and publishes the run under `key` in
/// `group`. Completes the job and every waiter the run serves; the other
/// waiters go back on the queue to try their next key.
fn simulate(inner: &Inner, job: &JobState, machine: &Machine, group: &RunSpec, key: &RunKey) {
    inner.stats.computed.fetch_add(1, Ordering::Relaxed);
    let prefix = &job.prefix;
    let (result, witness) = match machine.run(&prefix.program, &prefix.input) {
        Ok((outcome, witness)) => (Ok(Arc::new(outcome)), witness),
        Err(e) => (Err(e), Witness::default()),
    };
    let run = Arc::new(Finished { spec: machine.spec, witness, result });
    let mut served = Vec::new();
    let mut again = Vec::new();
    {
        let mut groups = inner.groups.lock().expect("group lock never poisoned");
        let slot = groups
            .get_mut(group)
            .and_then(|g| g.machines.get_mut(key))
            .expect("the simulating job keeps its group");
        let MachineRun::Running(waiters) = std::mem::replace(slot, MachineRun::Running(Vec::new()))
        else {
            unreachable!("one job simulates each run");
        };
        let mut keys = vec![job.key.clone()];
        for (waiter, machine, level) in waiters {
            if machine.served_by(&run.spec, &run.witness) {
                keys.push(waiter.key.clone());
                served.push(waiter);
            } else {
                again.push(Task { job: waiter, resume: Some((machine, level + 1)) });
            }
        }
        *slot = MachineRun::Done(Arc::clone(&run), keys);
    }
    if !again.is_empty() {
        inner.queue.lock().expect("queue lock never poisoned").jobs.extend(again);
        inner.work_ready.notify_all();
    }
    for waiter in served {
        inner.stats.machine_hits.fetch_add(1, Ordering::Relaxed);
        inner.complete(&waiter, run.result.clone(), true);
    }
    inner.complete(job, run.result.clone(), false);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::spec::{branch_pcs, AsbrSpec, MicroTweaks};
    use asbr_workloads::Workload;

    fn spec(samples: usize) -> RunSpec {
        RunSpec::baseline(Workload::AdpcmEncode, PredictorKind::NotTaken, samples)
    }

    #[test]
    fn a_run_matches_direct_execution() {
        let ex = Executor::new().threads(2);
        let out = ex.run(&[spec(40)]).unwrap();
        assert!(out[0].same_result(&spec(40).execute().unwrap()));
        let stats = ex.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.computed, 1);
    }

    /// ASBR specs that differ only in BIT capacity.
    fn bit_sizes(workload: Workload, bits: &[usize]) -> Vec<RunSpec> {
        bits.iter()
            .map(|&bit_entries| {
                RunSpec::asbr(workload, PredictorKind::NotTaken, 400)
                    .with_asbr(AsbrSpec { bit_entries, ..AsbrSpec::default() })
            })
            .collect()
    }

    fn batch(ex: &Executor, specs: &[RunSpec]) -> Vec<RunOutcome> {
        ex.run(specs).unwrap()
    }

    fn memo_is_empty(ex: &Executor) -> bool {
        ex.pool().inner.groups.lock().unwrap().is_empty()
    }

    #[test]
    fn bit_sizes_selecting_the_same_branches_simulate_once() {
        let specs = bit_sizes(Workload::AdpcmEncode, &[4, 8, 16]);
        let dir = std::env::temp_dir()
            .join(format!("asbr-machine-dedup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = crate::CacheMode::Enabled(dir.clone());

        let serial = batch(&Executor::new().threads(1), &specs);
        let ex = Executor::new().threads(2).cache(cache.clone());
        let cold = batch(&ex, &specs);
        for ((spec, s), c) in specs.iter().zip(&serial).zip(&cold) {
            let direct = spec.execute().unwrap();
            assert!(c.same_result(&direct), "{spec:?} differs from a direct execute");
            assert!(c.same_result(s), "{spec:?} differs between 1 and 2 workers");
        }
        let stats = ex.stats();
        assert_eq!((stats.computed, stats.machine_hits), (1, 2));
        assert_eq!(cold.iter().filter(|o| o.cached).count(), 2);
        // A served outcome took no simulation of its own.
        for o in &cold {
            let (wall, cached) = (o.wall_nanos, o.cached);
            assert_eq!(wall == 0, cached, "wall {wall} for cached {cached}");
        }
        assert!(memo_is_empty(&ex), "the memo outlived its batch");

        // Every job stored its own entry: a warm rerun hits all three.
        let warm_ex = Executor::new().threads(2).cache(cache);
        let warm = batch(&warm_ex, &specs);
        let stats = warm_ex.stats();
        assert_eq!((stats.cache_hits, stats.computed, stats.machine_hits), (3, 0, 0));
        assert!(warm.iter().zip(&cold).all(|(w, c)| w.same_result(c)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `asbr_tool explore`'s 432-point `default` space on ADPCM Encode.
    fn default_space(samples: usize) -> Vec<RunSpec> {
        use crate::explore::{Axis, DesignSpace};
        use asbr_sim::PublishPoint;
        let base =
            RunSpec::asbr(Workload::AdpcmEncode, PredictorKind::Bimodal { entries: 512 }, samples);
        DesignSpace::new(base)
            .axis(Axis::predictors([
                PredictorKind::NotTaken,
                PredictorKind::Bimodal { entries: 64 },
                PredictorKind::Bimodal { entries: 128 },
                PredictorKind::Bimodal { entries: 256 },
                PredictorKind::Bimodal { entries: 512 },
                PredictorKind::Bimodal { entries: 1024 },
                PredictorKind::Bimodal { entries: 2048 },
                PredictorKind::Gshare { hist_bits: 8, entries: 256 },
                PredictorKind::Gshare { hist_bits: 11, entries: 2048 },
            ]))
            .axis(Axis::btb_entries([64, 256, 512, 2048]))
            .axis(Axis::bit_entries([4, 8, 16]))
            .axis(Axis::publish([PublishPoint::Execute, PublishPoint::Mem]))
            .axis(Axis::cache_bytes([4096, 8192]))
            .specs()
    }

    /// The `.run` names directly in a cache root, how many distinct files
    /// (inodes) they name, and how many subdirectories the root holds.
    #[cfg(unix)]
    fn names_files_and_dirs(root: &std::path::Path) -> (usize, usize, usize) {
        use std::os::unix::fs::MetadataExt;
        let (mut inodes, mut dirs) = (Vec::new(), 0);
        for entry in std::fs::read_dir(root).unwrap() {
            let entry = entry.unwrap();
            if entry.file_type().unwrap().is_dir() {
                dirs += 1;
            } else if entry.path().extension().is_some_and(|e| e == "run") {
                inodes.push(entry.metadata().unwrap().ino());
            }
        }
        let names = inodes.len();
        inodes.sort_unstable();
        inodes.dedup();
        (names, inodes.len(), dirs)
    }

    #[test]
    fn the_default_space_simulates_one_run_per_class() {
        // Every bimodal and BTB size from 64 up slots ADPCM Encode's
        // branches apart, every BIT size selects the same branches, and
        // neither cache evicts at 4 KB, so 8 KB repeats the 4 KB run:
        // 4 predictor classes x 2 publish points.
        let specs = default_space(4000);
        assert_eq!(specs.len(), 432);
        let dir = std::env::temp_dir().join(format!("asbr-default-space-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ex = Executor::new().threads(2).cache(crate::CacheMode::Enabled(dir.clone()));
        let _ = batch(&ex, &specs);
        let stats = ex.stats();
        assert_eq!((stats.computed, stats.machine_hits), (8, 424));
        assert!(memo_is_empty(&ex));
        // One file per simulated machine, linked under all 432 keys,
        // directly in the root.
        #[cfg(unix)]
        assert_eq!(names_files_and_dirs(&dir), (432, 8, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_sizes_that_evict_simulate_on_their_own() {
        let w = Workload::AdpcmEncode;
        let sized = |entries, cache_bytes| {
            RunSpec::asbr(w, PredictorKind::Bimodal { entries }, 400)
                .with_tweaks(MicroTweaks { cache_bytes, ..MicroTweaks::default() })
        };
        // 128- and 256-byte caches evict on ADPCM Encode; 8 KB does not,
        // and its footprint overflows both smaller geometries.
        let run = |cache_bytes| {
            let spec = sized(64, cache_bytes);
            let prefix = Prefix::of(&spec);
            let machine = prefix.resolve(&spec).unwrap();
            let witness = machine.run(&prefix.program, &prefix.input).unwrap().1;
            (machine, witness)
        };
        let (big, witness) = run(8192);
        assert!(witness.footprints.is_some(), "8 KB never evicts");
        for small in [128, 256] {
            let (machine, own) = run(small);
            assert!(own.footprints.is_none(), "{small} bytes evict");
            assert!(!machine.served_by(&big.spec, &witness), "{small} bytes hold the 8 KB lines");
        }

        let specs: Vec<RunSpec> = [128, 256, 8192]
            .into_iter()
            .flat_map(|cache_bytes| [64, 2048].map(|entries| sized(entries, cache_bytes)))
            .collect();
        for threads in [1, 2] {
            let ex = Executor::new().threads(threads);
            let out = batch(&ex, &specs);
            for (spec, o) in specs.iter().zip(&out) {
                assert!(o.same_result(&spec.execute().unwrap()), "{spec:?} differs");
            }
            assert_ne!(out[0].cycles(), out[4].cycles(), "eviction costs cycles");
            // Each size is simulated once, by whichever job reaches it
            // first; the other bimodal size shares that run.
            let stats = ex.stats();
            assert_eq!((stats.computed, stats.machine_hits), (3, 3), "{threads} workers");
            assert!(memo_is_empty(&ex));
        }
    }

    #[test]
    fn the_default_space_matches_direct_execution() {
        let specs = default_space(400);
        let out = batch(&Executor::new().threads(2), &specs);
        for (spec, o) in specs.iter().zip(&out) {
            assert!(o.same_result(&spec.execute().unwrap()), "{spec:?} differs");
        }
    }

    #[test]
    fn bimodal_sizes_split_by_how_they_slot_the_branches() {
        let bimodal =
            |entries| RunSpec::asbr(Workload::G721Encode, PredictorKind::Bimodal { entries }, 400);
        // bi-1024 and bi-2048 slot every G.721 Encode branch apart.
        let specs = [bimodal(1024), bimodal(2048)];
        let ex = Executor::new().threads(2);
        let out = batch(&ex, &specs);
        assert_eq!((ex.stats().computed, ex.stats().machine_hits), (1, 1));
        for (spec, o) in specs.iter().zip(&out) {
            assert!(o.same_result(&spec.execute().unwrap()), "{spec:?} differs");
        }
        // bi-256 fills 50 slots and bi-512 fills 51: two classes.
        let pcs = branch_pcs(&Workload::G721Encode.program());
        let filled = |n: usize| {
            let mut slots: Vec<u32> = pcs.iter().map(|pc| (pc >> 2) & (n as u32 - 1)).collect();
            slots.sort_unstable();
            slots.dedup();
            slots.len()
        };
        assert_eq!((filled(256), filled(512)), (50, 51));
        let specs = [bimodal(256), bimodal(512)];
        let ex = Executor::new().threads(2);
        let _ = batch(&ex, &specs);
        assert_eq!((ex.stats().computed, ex.stats().machine_hits), (2, 0));
    }

    #[test]
    fn a_not_taken_baseline_ignores_the_btb_size() {
        let specs = [64, 2048].map(|btb| spec(400).with_btb(btb));
        let ex = Executor::new().threads(2);
        let out = batch(&ex, &specs);
        assert_eq!((ex.stats().computed, ex.stats().machine_hits), (1, 1));
        for (spec, o) in specs.iter().zip(&out) {
            assert!(o.same_result(&spec.execute().unwrap()), "{spec:?} differs");
        }
        assert!(memo_is_empty(&ex));
    }

    #[test]
    fn different_selections_simulate_separately() {
        let specs = bit_sizes(Workload::G721Encode, &[4, 8]);
        let ex = Executor::new().threads(2);
        let out = batch(&ex, &specs);
        assert_ne!(out[0].selected, out[1].selected);
        for (spec, o) in specs.iter().zip(&out) {
            assert!(o.same_result(&spec.execute().unwrap()));
            assert!(!o.cached);
        }
        let stats = ex.stats();
        assert_eq!((stats.computed, stats.machine_hits), (2, 0));
        assert!(memo_is_empty(&ex));
    }
}
