//! `asbr_tool` — command-line front end for the whole stack.
//!
//! ```text
//! asbr_tool asm <file.s>                      assemble; print layout + disassembly
//! asbr_tool analyze <file.s>                  branch candidates, distances, loop depths
//! asbr_tool lint [FILE.s ...] [options]       static verifier, fold-soundness prover and
//!                                             schedule validator (no files: every workload)
//!   --json                 print the reports as one JSON array
//!   --deny <level>         info|warn|error: fail on findings this severe (default error)
//!   --threshold <n>        fold-proof threshold (default: the Mem publish point's)
//! asbr_tool customize <file.s> -o <image>     static selection -> customization image
//! asbr_tool run <file.s> [options]            run on the cycle-accurate pipeline
//!   --input 1,2,3          feed MMIO input samples
//!   --asbr <image>         customize the core from an image file
//!   --asbr-static          customize via static selection
//!   --predictor <name>     nottaken|bimodal|gshare|tournament (default bimodal)
//!   --trace <n>            print a pipeline diagram for the first n cycles
//! asbr_tool trace <workload> [options]        run a benchmark with the structured
//!                                             trace sink; write Chrome trace JSON
//!   --samples <n>          input samples (default 400)
//!   --out <path>           output path (default trace.json)
//!   --interval <n>         cycles between counter snapshots (default 1000)
//!   --asbr                 profile + customize (bi-512 auxiliary, quarter BTB),
//!                          instead of the bimodal-2048 baseline
//! asbr_tool bench [options]                   host-throughput benchmark: every
//!                                             workload, baseline + ASBR, best-of-N
//!   --samples <n>          input samples (default 4000)
//!   --reps <n>             timed repetitions, best kept (default 5)
//!   --out <path>           write BENCH_throughput.json here
//!   --check <golden.json>  fail if simulated cycle counts drift from the golden
//! asbr_tool wcet [options]                    static cycle-bound (WCET) cross-check:
//!                                             every workload, baseline + ASBR; fails
//!                                             if any bound < simulated cycles
//!   --samples <n>          input samples (default 400)
//!   --out <path>           write the report here (default results/WCET_report.json)
//! asbr_tool explore [options]                 multi-objective design-space
//!                                             exploration of every point of a space;
//!                                             write results/PARETO_*.json
//!   --space <name>         small (12 points, cycles+area) or default
//!                          (432 points, cycles+area+energy) (default: default)
//!   --workload <name>      benchmark the space explores (default adpcm-encode)
//!   --samples <n>          input samples per point (default 400)
//!   --threads <n>          executor workers (default: one per core)
//!   --cache <dir>          on-disk result cache (default results/cache)
//!   --no-cache             disable the on-disk cache
//!   --refresh              ignore existing cache entries but rewrite them
//!   --out <path>           report path (default results/PARETO_<space>_<workload>.json)
//! asbr_tool tables [TABLE ...] [options]      regenerate the paper's tables and the
//!                                             ablations; print each, write results/*.json
//!   --samples <n>          input samples (default 24000)
//!   --threads <n>          executor workers (default: one per core)
//!   --no-cache             disable the on-disk cache (default results/cache)
//!   --refresh              ignore existing cache entries but rewrite them
//! ```
//!
//! `TABLE` is one of `fig6`, `fig7`, `fig9`, `fig10`, `fig11`, `all` (the
//! default: Figures 6, 7, 7b, 9, 10 and 11), `attribution` (the baseline →
//! ASBR cycle deltas by bucket, see `docs/observability.md`), `sweep`
//! (Figures 6 + 11 through the cached engine, with per-run walls in
//! `results/BENCH_sweep.json`), `motivation`, `fig6x`, `scope`, `power`,
//! `area` or `ablation-{bit,threshold,sched,aux,banks,latency,ras,cache,
//! family,static}`. The runs of every named table go to the executor as
//! one batch, so a run several tables read simulates once, and the
//! cache flags reach every table whose runs are `RunSpec`s (see
//! `docs/harness.md`, "Reproduction campaign").
//!
//! Exit codes: `0` success; `1` the command ran and a check failed (lint
//! findings at or above `--deny`, a `wcet` bound below the simulated
//! cycles, `bench --check` drift); `2` bad usage, or an I/O or library
//! error.
//!
//! Workload names for `trace`/`explore` match the benchmark names of the
//! tables ignoring case and punctuation (`adpcm-encode`, `g721-decode`,
//! …) or the canonical slugs (`adpcm_enc`, `g721_dec`, …).
//!
//! Flags shared across subcommands (`--out`, `--samples`, `--threads`,
//! and the `--cache`/`--no-cache`/`--refresh` trio) parse through one
//! [`CommonOpts`] helper; each subcommand only declares which of them it
//! accepts plus its own extras, so a new subcommand never re-implements
//! the shared handling. `tables`, `explore` and `wcet` run their specs on
//! an [`Executor`] built from those flags by one helper, [`executor`].

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use asbr_asm::{assemble, Program};
use asbr_bpred::PredictorKind;
use asbr_check::{lint_program, CycleBound, Severity};
use asbr_core::{decode_image, encode_image, AsbrConfig, AsbrUnit};
use asbr_experiments::{
    ablation, attribution, branch_tables, costs, fig11, fig6, motivation, scope,
};
use asbr_flow::{call_aware_depths, candidates, select_static, Cfg};
use asbr_harness::json::{self, ToJson};
use asbr_harness::{
    Axis, CacheMode, Constraint, CostModel, DesignSpace, Executor, Exploration, HarnessError,
    Metric, Objective, ResultCache, RunOutcome, RunSpec, SearchStrategy, SweepBench,
    ThroughputBench, ThroughputSpec, AUX_BTB, PROFILE_PREDICTOR, SAMPLES_FULL, SAMPLES_SMOKE,
    THROUGHPUT_REPS, THROUGHPUT_SAMPLES,
};
use asbr_profile::{profile, select_branches, SelectionConfig};
use asbr_sim::{
    ChromeTracer, CycleBucket, Pipeline, PipelineConfig, PipelineSummary, PublishPoint, SimHooks,
};
use asbr_workloads::Workload;

/// Why a command did not succeed; `main` maps it onto the exit code.
enum Failure {
    /// The command ran and a check it makes failed (exit 1).
    Check(String),
    /// Bad usage, or an I/O or library error (exit 2).
    Error(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Failure {
        Failure::Error(msg)
    }
}

/// Cursor over a subcommand's argv tail. Flag handlers call
/// [`ArgCursor::value`]/[`ArgCursor::parse`] to consume a flag's operand
/// with a uniform error message.
struct ArgCursor<'a> {
    args: &'a [String],
    i: usize,
}

impl<'a> ArgCursor<'a> {
    fn value(&mut self, flag: &str) -> Result<&'a String, String> {
        self.i += 1;
        self.args.get(self.i).ok_or_else(|| format!("missing value after {flag}"))
    }

    fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        self.value(flag)?.parse().map_err(|_| format!("bad value for {flag}"))
    }
}

/// The flags several subcommands share. A subcommand opts into exactly
/// the ones it supports via [`CommonOpts::accepting`]; everything else
/// still errors as unknown, so consolidation does not widen any
/// subcommand's surface.
struct CommonOpts {
    accepts: &'static [&'static str],
    out: Option<String>,
    samples: Option<usize>,
    threads: usize,
    cache_dir: Option<String>,
    no_cache: bool,
    refresh: bool,
}

impl CommonOpts {
    fn accepting(accepts: &'static [&'static str]) -> CommonOpts {
        CommonOpts {
            accepts,
            out: None,
            samples: None,
            threads: 0,
            cache_dir: None,
            no_cache: false,
            refresh: false,
        }
    }

    /// Tries to consume `flag`; `Ok(false)` means the flag is not a
    /// shared one (or not accepted here) and the subcommand's own
    /// handler should see it.
    fn take(&mut self, flag: &str, cur: &mut ArgCursor) -> Result<bool, String> {
        if !self.accepts.contains(&flag) {
            return Ok(false);
        }
        match flag {
            "--out" => self.out = Some(cur.value("--out")?.clone()),
            "--samples" => self.samples = Some(cur.parse("--samples")?),
            "--threads" => self.threads = cur.parse("--threads")?,
            // `--cache dir` and `--no-cache` override each other,
            // last-one-wins, exactly as the old per-subcommand loops did.
            "--cache" => {
                self.cache_dir = Some(cur.value("--cache")?.clone());
                self.no_cache = false;
            }
            "--no-cache" => {
                self.no_cache = true;
                self.cache_dir = None;
            }
            "--refresh" => self.refresh = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Resolves the `--cache`/`--no-cache`/`--refresh` trio against a
    /// subcommand default directory. A subcommand that accepts none of
    /// them runs uncached.
    fn cache_mode(&self, default_dir: PathBuf) -> Result<CacheMode, String> {
        if !self.accepts.contains(&"--no-cache") {
            return Ok(CacheMode::Disabled);
        }
        if self.no_cache {
            if self.refresh {
                return Err("--refresh needs a cache directory (drop --no-cache)".into());
            }
            return Ok(CacheMode::Disabled);
        }
        let dir = self.cache_dir.clone().map_or(default_dir, PathBuf::from);
        Ok(if self.refresh { CacheMode::Refresh(dir) } else { CacheMode::Enabled(dir) })
    }
}

/// The one flag-parsing loop every subcommand shares: shared flags land
/// in `common`, everything else is offered to `extra`; a flag neither
/// claims is an error.
fn parse_flags(
    args: &[String],
    start: usize,
    common: &mut CommonOpts,
    mut extra: impl FnMut(&str, &mut ArgCursor) -> Result<bool, String>,
) -> Result<(), String> {
    let mut cur = ArgCursor { args, i: start };
    while cur.i < args.len() {
        let flag = args[cur.i].clone();
        if !common.take(&flag, &mut cur)? && !extra(&flag, &mut cur)? {
            return Err(format!("unknown option `{flag}`"));
        }
        cur.i += 1;
    }
    Ok(())
}

fn load_program(path: &str) -> Result<Program, String> {
    let src = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    assemble(&src).map_err(|e| format!("{path}: {e}"))
}

fn cmd_asm(path: &str) -> Result<(), String> {
    let prog = load_program(path)?;
    println!(
        "text {:#010x}..{:#010x} ({} instructions), data {:#010x} ({} bytes), entry {:#010x}",
        prog.text_base(),
        prog.text_end(),
        prog.text().len(),
        prog.data_base(),
        prog.data().len(),
        prog.entry()
    );
    println!("\n{}", prog.disassemble());
    Ok(())
}

fn cmd_analyze(path: &str) -> Result<(), String> {
    let prog = load_program(path)?;
    let cfg = Cfg::build(&prog);
    let depths = call_aware_depths(&cfg);
    println!(
        "{} instructions in {} basic blocks\n",
        cfg.instrs().len(),
        cfg.blocks().len()
    );
    println!("{:<12} {:<10} {:>9} {:>11} {:>10}", "branch pc", "condition", "distance", "foldable@3", "loop depth");
    for c in candidates(&prog) {
        println!(
            "{:<#12x} {:<10} {:>9} {:>11} {:>10}",
            c.pc,
            format!("{} {}", c.reg, c.cond),
            c.min_def_distance,
            if c.foldable(3) { "yes" } else { "no" },
            depths[cfg.block_of(c.index)]
        );
    }
    Ok(())
}

struct LintOpts {
    files: Vec<String>,
    json: bool,
    deny: Severity,
    threshold: u32,
}

fn cmd_lint(opts: &LintOpts) -> Result<(), Failure> {
    let reports = if opts.files.is_empty() {
        Workload::ALL
            .iter()
            .map(|w| lint_program(w.name(), &w.program(), opts.threshold))
            .collect()
    } else {
        opts.files
            .iter()
            .map(|path| Ok(lint_program(path, &load_program(path)?, opts.threshold)))
            .collect::<Result<Vec<_>, String>>()?
    };
    if opts.json {
        println!("{}", reports.to_json().compact());
    } else {
        for r in &reports {
            print!("{}", r.render_text());
        }
    }
    let denied: usize = reports.iter().map(|r| r.count_at_least(opts.deny)).sum();
    if denied > 0 {
        return Err(Failure::Check(format!(
            "{denied} finding(s) at or above `{}` across {} program(s)",
            opts.deny,
            reports.len()
        )));
    }
    Ok(())
}

fn cmd_customize(path: &str, out: &str) -> Result<(), String> {
    let prog = load_program(path)?;
    let picks: Vec<u32> = select_static(&prog, PublishPoint::Mem.threshold(), 16)
        .into_iter()
        .map(|p| p.candidate.pc)
        .collect();
    if picks.is_empty() {
        return Err("no statically foldable in-loop branches found".to_owned());
    }
    let unit = AsbrUnit::for_branches(AsbrConfig::default(), &prog, &picks)?;
    let image = encode_image(&unit);
    fs::write(out, &image).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("{} branches -> {out} ({} bytes)", picks.len(), image.len());
    for (i, pc) in picks.iter().enumerate() {
        println!("  br{i}: {pc:#010x}");
    }
    Ok(())
}

struct RunOpts {
    input: Vec<i32>,
    image: Option<Vec<u8>>,
    asbr_static: bool,
    predictor: PredictorKind,
    trace: u64,
}

/// Runs `prog` to completion on `pipe`, printing the pipeline diagram of
/// each of the first `--trace` cycles (`Pipeline::execute` with a cycle
/// loop in the middle).
fn drive<H: SimHooks>(
    pipe: &mut Pipeline<H>,
    prog: &Program,
    opts: &RunOpts,
) -> Result<PipelineSummary, String> {
    pipe.load(prog).map_err(|e| e.to_string())?;
    pipe.feed_input(opts.input.iter().copied());
    for _ in 0..opts.trace {
        pipe.cycle().map_err(|e| e.to_string())?;
        println!("{}", pipe.snapshot());
    }
    pipe.run().map_err(|e| e.to_string())
}

fn cmd_run(path: &str, opts: &RunOpts) -> Result<(), String> {
    let prog = load_program(path)?;
    let unit = if let Some(bytes) = &opts.image {
        Some(decode_image(bytes).map_err(|e| e.to_string())?)
    } else if opts.asbr_static {
        let picks: Vec<u32> = select_static(&prog, PublishPoint::Mem.threshold(), 16)
            .into_iter()
            .map(|p| p.candidate.pc)
            .collect();
        Some(AsbrUnit::for_branches(AsbrConfig::default(), &prog, &picks)?)
    } else {
        None
    };

    // A `None` unit uses the plain pipeline, so the fetch stage has no BIT
    // lookups at all.
    let (summary, folds) = match unit {
        Some(unit) => {
            let mut pipe =
                Pipeline::with_hooks(PipelineConfig::default(), opts.predictor.build(), unit);
            let summary = drive(&mut pipe, &prog, opts)?;
            (summary, Some(pipe.hooks().stats().folds()))
        }
        None => {
            let mut pipe = Pipeline::new(PipelineConfig::default(), opts.predictor.build());
            (drive(&mut pipe, &prog, opts)?, None)
        }
    };

    let cpi = summary.stats.cpi();
    println!(
        "{} cycles, {} instructions, CPI {}, branch accuracy {:.1}%",
        summary.stats.cycles,
        summary.stats.retired,
        // `cpi()` is NaN when nothing retired; print that honestly
        // instead of a garbage number.
        if cpi.is_nan() { "n/a".to_owned() } else { format!("{cpi:.3}") },
        summary.stats.accuracy() * 100.0
    );
    if let Some(folds) = folds {
        println!("{folds} branches folded");
    }
    if !summary.output.is_empty() {
        println!("output: {:?}", summary.output);
    }
    Ok(())
}

struct TraceOpts {
    samples: usize,
    out: String,
    interval: u64,
    asbr: bool,
}

fn resolve_workload(name: &str) -> Result<Workload, String> {
    let norm = |s: &str| -> String {
        s.chars().filter(char::is_ascii_alphanumeric).collect::<String>().to_lowercase()
    };
    Workload::ALL
        .into_iter()
        .find(|w| norm(w.name()) == norm(name) || norm(w.slug()) == norm(name))
        .ok_or_else(|| {
            let known: Vec<String> =
                Workload::ALL.iter().map(|w| norm(w.name())).collect();
            format!("unknown workload `{name}`; known: {}", known.join(", "))
        })
}

fn cmd_trace(name: &str, opts: &TraceOpts) -> Result<(), String> {
    let w = resolve_workload(name)?;
    let program = w.program();
    let input = w.input(opts.samples);
    let tracer = ChromeTracer::new(opts.interval);
    let summary = if opts.asbr {
        // Mirror the headline Figure 11 configuration: profile-driven
        // selection, bi-512 auxiliary, quarter-size BTB.
        let report =
            profile(&program, &input, &[PROFILE_PREDICTOR]).map_err(|e| e.to_string())?;
        let selected = select_branches(
            &report,
            &program,
            &SelectionConfig {
                threshold: PublishPoint::Mem.threshold(),
                ..SelectionConfig::default()
            },
        );
        let unit = AsbrUnit::for_branches(AsbrConfig::default(), &program, &selected)?;
        let cfg = PipelineConfig { btb_entries: AUX_BTB, ..PipelineConfig::default() };
        let mut pipe =
            Pipeline::with_hooks(cfg, PredictorKind::Bimodal { entries: 512 }.build(), unit);
        pipe.set_tracer(Box::new(tracer.clone()));
        pipe.execute(&program, input.iter().copied()).map_err(|e| e.to_string())?
    } else {
        let mut pipe = Pipeline::new(
            PipelineConfig::default(),
            PredictorKind::Bimodal { entries: 2048 }.build(),
        );
        pipe.set_tracer(Box::new(tracer.clone()));
        pipe.execute(&program, input.iter().copied()).map_err(|e| e.to_string())?
    };
    let totals = tracer.bucket_totals();
    let observed: u64 = totals.iter().sum();
    if observed != summary.stats.cycles {
        return Err(format!(
            "trace sink saw {observed} cycles but the pipeline ran {}",
            summary.stats.cycles
        ));
    }
    fs::write(&opts.out, tracer.to_json())
        .map_err(|e| format!("cannot write {}: {e}", opts.out))?;
    println!(
        "{}: {} cycles, {} trace events -> {}",
        w.name(),
        summary.stats.cycles,
        tracer.event_count(),
        opts.out
    );
    for (b, n) in CycleBucket::ALL.iter().zip(totals) {
        println!("  {:<14} {n}", b.name());
    }
    Ok(())
}

struct BenchOpts {
    samples: usize,
    reps: usize,
    out: Option<String>,
    check: Option<String>,
}

fn cmd_bench(opts: &BenchOpts) -> Result<(), Failure> {
    // A golden that cannot be read or parsed is an error, not drift.
    let golden = match &opts.check {
        Some(path) => {
            let text =
                fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            ThroughputBench::parse_cycles(&text).map_err(|e| format!("{path}: {e}"))?;
            Some((path, text))
        }
        None => None,
    };
    let spec = ThroughputSpec::standard(opts.samples, opts.reps);
    println!(
        "host-throughput bench: {} runs at {} samples, best of {}",
        spec.specs.len(),
        opts.samples,
        spec.reps
    );
    let bench = spec.measure().map_err(|e| e.to_string())?;
    println!(
        "{:<38} {:>11} {:>11} {:>10} {:>8}",
        "run", "cycles", "best ms", "Mcyc/s", "MIPS"
    );
    for e in &bench.entries {
        println!(
            "{:<38} {:>11} {:>11.2} {:>10.1} {:>8.1}",
            e.label,
            e.cycles,
            e.best_nanos as f64 / 1e6,
            e.cycles_per_sec() as f64 / 1e6,
            e.mips()
        );
    }
    for warning in bench.spread_warnings() {
        println!("warning: {warning}");
    }
    if let Some(out) = &opts.out {
        json::write(out, &bench).map_err(|e| e.to_string())?;
        println!("wrote {out}");
    }
    if let Some((path, text)) = golden {
        bench.check_against(&text).map_err(Failure::Check)?;
        println!("simulated cycle counts match {path}");
    }
    Ok(())
}

struct WcetOpts {
    samples: usize,
    out: String,
}

/// One selected branch's prover verdicts: whether the def→use distance
/// argument alone discharges the fold obligation, and whether the
/// interval domain's range-constant argument does. A branch with
/// `range_provable && !distance_provable` is exactly one the
/// interval-extended prover admits where `min_def_distance` cannot.
struct BranchVerdict {
    pc: u32,
    min_distance: u32,
    distance_provable: bool,
    range_provable: bool,
}

asbr_harness::impl_to_json!(BranchVerdict { pc, min_distance, distance_provable, range_provable });

/// The verdicts for every branch of one run's selection.
fn branch_verdicts(program: &Program, selected: &[u32], threshold: u32) -> Vec<BranchVerdict> {
    let cfg = Cfg::build(program);
    let ranges = asbr_check::ValueRanges::compute(program, &cfg);
    selected
        .iter()
        .map(|&pc| {
            let (min_distance, distance_provable) =
                asbr_core::BitEntry::from_program(program, pc)
                    .ok()
                    .and_then(|e| asbr_check::prove_entry(program, &cfg, &e, threshold).ok())
                    .map_or((0, false), |p| (p.min_distance, p.min_distance >= threshold));
            let range_provable = asbr_check::branch_is_range_provable(program, &ranges, pc);
            BranchVerdict { pc, min_distance, distance_provable, range_provable }
        })
        .collect()
}

/// One run of the WCET report.
struct WcetRun {
    label: String,
    cycles: u64,
    bound: u64,
    tightness: f64,
    instructions: u64,
    buckets: CycleBound,
    credited: Vec<u32>,
    selected: Vec<u32>,
    branches: Vec<BranchVerdict>,
}

asbr_harness::impl_to_json!(WcetRun {
    label, cycles, bound, tightness, instructions, buckets, credited, selected, branches
});

/// The `asbr_tool wcet` report (schema `asbr-wcet v1`).
struct WcetReport {
    schema: &'static str,
    samples: usize,
    range_only_provable_branches: usize,
    runs: Vec<WcetRun>,
}

asbr_harness::impl_to_json!(WcetReport { schema, samples, range_only_provable_branches, runs });

fn cmd_wcet(opts: &WcetOpts, executor: &Executor) -> Result<(), Failure> {
    use asbr_harness::attach_bound;

    let mut runs = Vec::new();
    let mut violations = Vec::new();
    println!(
        "{:<34} {:>11} {:>12} {:>9} {:>8}",
        "run", "cycles", "bound", "tight", "credited"
    );
    // One batch of the attribution report's headline pairs (bimodal-2048
    // baseline, ASBR + bi-512): the specs run in parallel, and the two
    // specs of a codec share one profiling pass, which the bounds then read.
    let specs = attribution::specs(opts.samples);
    let outcomes = executor.run(&specs).map_err(|e| e.to_string())?;
    for (spec, mut out) in specs.into_iter().zip(outcomes) {
        let rec = attach_bound(&spec, &mut out).map_err(|e| e.to_string())?;
        println!(
            "{:<34} {:>11} {:>12} {:>8.3}x {:>8}",
            rec.label,
            rec.cycles,
            rec.bound.total(),
            rec.tightness(),
            rec.credited.len()
        );
        if !rec.holds() {
            violations.push(rec.label.clone());
        }
        let threshold = spec.asbr.map_or(3, |k| k.publish.threshold());
        let branches = branch_verdicts(&spec.program(), &out.selected, threshold);
        runs.push(WcetRun {
            bound: rec.bound.total(),
            tightness: rec.tightness(),
            label: rec.label,
            cycles: rec.cycles,
            instructions: rec.instructions,
            buckets: rec.bound,
            credited: rec.credited,
            selected: out.selected,
            branches,
        });
    }
    let range_only = runs
        .iter()
        .flat_map(|r| &r.branches)
        .filter(|v| v.range_provable && !v.distance_provable)
        .count();
    let report = WcetReport {
        schema: "asbr-wcet v1",
        samples: opts.samples,
        range_only_provable_branches: range_only,
        runs,
    };
    json::write(&opts.out, &report).map_err(|e| e.to_string())?;
    println!("wrote {}", opts.out);
    if range_only > 0 {
        println!("{range_only} selected branch(es) provable by value range only");
    } else {
        println!(
            "no selected branch needs the range argument (see per-branch verdicts in the report)"
        );
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(Failure::Check(format!(
            "static bound below simulated cycles for: {}",
            violations.join(", ")
        )))
    }
}

struct ExploreOpts {
    space: String,
    workload: Workload,
    samples: usize,
    out: String,
}

/// Builds the named design space with its objectives and constraints.
///
/// Both spaces explore ASBR configurations of one workload and constrain
/// the front to configurations no larger than the paper's baseline front
/// end (bimodal-2048 + BTB-2048):
///
/// * `small` — predictor {not-taken, bi-256, bi-512} × BTB {256, 512} ×
///   BIT {8, 16}: 12 points, cycles + area.
/// * `default` — predictor family/size (9) × BTB (4) × BIT (3) × publish
///   point (2) × cache bytes (2): 432 points, cycles + area + energy.
fn explore_space(
    name: &str,
    workload: Workload,
    samples: usize,
    model: CostModel,
) -> Result<(DesignSpace, Vec<Objective>, Vec<Constraint>), String> {
    let base = RunSpec::asbr(workload, PredictorKind::Bimodal { entries: 512 }, samples);
    let baseline_area = model
        .cost_of(&RunSpec::baseline(
            workload,
            PredictorKind::Bimodal { entries: 2048 },
            samples,
        ))
        .total_area();
    let constraints = vec![Constraint::at_most(Metric::area(model), baseline_area)];
    match name {
        "small" => {
            let space = DesignSpace::new(base)
                .axis(Axis::predictors([
                    PredictorKind::NotTaken,
                    PredictorKind::Bimodal { entries: 256 },
                    PredictorKind::Bimodal { entries: 512 },
                ]))
                .axis(Axis::btb_entries([256, 512]))
                .axis(Axis::bit_entries([8, 16]));
            let objectives = vec![
                Objective::minimize(Metric::cycles()),
                Objective::minimize(Metric::area(model)),
            ];
            Ok((space, objectives, constraints))
        }
        "default" => {
            let space = DesignSpace::new(base)
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
                .axis(Axis::cache_bytes([4096, 8192]));
            let objectives = vec![
                Objective::minimize(Metric::cycles()),
                Objective::minimize(Metric::area(model)),
                Objective::minimize(Metric::energy(model)),
            ];
            Ok((space, objectives, constraints))
        }
        other => Err(format!("unknown space `{other}` (small|default)")),
    }
}

fn cmd_explore(opts: &ExploreOpts, executor: &Executor) -> Result<(), String> {
    let model = CostModel::load(Path::new("results")).map_err(|e| e.to_string())?;
    let (space, objectives, constraints) =
        explore_space(&opts.space, opts.workload, opts.samples, model)?;
    println!(
        "exploring the `{}` space of {} ({} points, {} objective(s)) \
         with exhaustive enumeration",
        opts.space,
        opts.workload.name(),
        space.len(),
        objectives.len(),
    );
    let exploration =
        Exploration { space, objectives, constraints, strategy: SearchStrategy::Exhaustive };
    let report = exploration.run(executor).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    json::write(&opts.out, &report).map_err(|e| e.to_string())?;
    println!("wrote {}", opts.out);
    Ok(())
}

/// What every table's report reads besides its own runs.
struct Campaign {
    samples: usize,
    /// Workers the executor runs.
    threads: usize,
    /// Wall time of the batch every table's runs rode in.
    batch_wall: Duration,
}

/// Prints a table and writes its `results/*.json` from its specs and
/// their outcomes. A run no `RunSpec` describes, it drives itself.
type Report = fn(&Campaign, &[RunSpec], &[RunOutcome]) -> Result<(), String>;

/// One named table: the runs it reads, and its report.
struct Table {
    specs: fn(usize) -> Vec<RunSpec>,
    report: Report,
}

/// A table whose report runs nothing through the executor.
fn unbatched(report: Report) -> Table {
    Table { specs: |_| Vec::new(), report }
}

/// Each workload's `arms` rows from the batch, followed by its row from
/// `hand`, a run driven by hand.
fn with_hand_run<T>(
    rows: Vec<T>,
    arms: usize,
    hand: impl Fn(Workload) -> Result<T, HarnessError>,
) -> Result<Vec<T>, String> {
    let (mut rows, mut all) = (rows.into_iter(), Vec::new());
    for w in Workload::ALL {
        all.extend(rows.by_ref().take(arms));
        all.push(hand(w).map_err(|e| e.to_string())?);
    }
    Ok(all)
}

/// The table called `name`, if there is one.
fn table(name: &str) -> Option<Table> {
    Some(match name {
        "fig6" => Table { specs: fig6_specs, report: fig6 },
        "fig7" => unbatched(|c, _, _| branch_table(c, Workload::G721Encode, "Figure 7")),
        "fig9" => unbatched(|c, _, _| branch_table(c, Workload::AdpcmEncode, "Figure 9")),
        "fig10" => unbatched(|c, _, _| branch_table(c, Workload::AdpcmDecode, "Figure 10")),
        "fig11" => Table { specs: |n| fig11::space(n).specs(), report: fig11 },
        "all" => Table {
            specs: |n| [fig6_specs(n), fig11::space(n).specs()].concat(),
            report: |c, specs, outcomes| {
                let at = fig6_specs(c.samples).len();
                fig6(c, &specs[..at], &outcomes[..at])?;
                branch_table(c, Workload::G721Encode, "Figure 7")?;
                branch_table(c, Workload::G721Decode, "Figure 7b (decode)")?;
                branch_table(c, Workload::AdpcmEncode, "Figure 9")?;
                branch_table(c, Workload::AdpcmDecode, "Figure 10")?;
                fig11(c, &specs[at..], &outcomes[at..])
            },
        },
        "attribution" => Table { specs: attribution::specs, report: attribution },
        "sweep" => Table {
            specs: |n| [fig6_specs(n), fig11::space(n).specs()].concat(),
            report: sweep,
        },
        "motivation" => unbatched(motivation),
        "fig6x" => Table {
            // Figure 6 plus a McFarling combining predictor of the same
            // table size, a stronger baseline than the paper used.
            specs: |n| {
                let tournament = PredictorKind::Tournament { hist_bits: 11, entries: 2048 };
                fig6::space(n, &[&PredictorKind::BASELINES[..], &[tournament]].concat()).specs()
            },
            report: |_, s, o| {
                let title = "Figure 6 extended: + tournament-2048 baseline";
                print_rows(title, "fig6_extended", &fig6::rows(s, o), |r| {
                    format!(
                        "{:<14} {:<11} cycles {:>12}  CPI {:.2}  acc {:.0}%",
                        r.workload,
                        r.predictor,
                        r.cycles,
                        r.cpi,
                        r.accuracy * 100.0
                    )
                })
            },
        },
        "scope" => unbatched(scope),
        "power" => Table { specs: costs::power_specs, report: power },
        "area" => unbatched(area),
        "ablation-banks" => unbatched(ablation_banks),
        "ablation-bit" => Table {
            specs: |n| ablation::bit_size_space(&Workload::ALL, n, &[1, 2, 4, 8, 16, 32]).specs(),
            report: |_, s, o| {
                let rows = ablation::bit_size_rows(s, o);
                print_rows("Ablation A: BIT capacity", "ablation_bit", &rows, |p| {
                    let (w, setting) = (&p.workload, &p.setting);
                    format!("{w:<14} {setting:<8} cycles {:>12} folds {:>10}", p.cycles, p.folds)
                })
            },
        },
        "ablation-threshold" => Table {
            specs: |n| ablation::publish_point_space(&Workload::ALL, n).specs(),
            report: |_, s, o| {
                let title = "Ablation B: publish point / threshold (Sec. 5.2)";
                print_rows(title, "ablation_threshold", &ablation::publish_point_rows(s, o), |p| {
                    format!(
                        "{:<14} {:<24} cycles {:>12} folds {:>10} blocked {:>9}",
                        p.workload, p.setting, p.cycles, p.folds, p.blocked
                    )
                })
            },
        },
        "ablation-sched" => Table {
            specs: |n| ablation::scheduling_space(&Workload::ALL, n).specs(),
            report: |_, s, o| {
                let title = "Ablation C: compiler scheduling support (Sec. 5.1)";
                print_rows(title, "ablation_sched", &ablation::scheduling_rows(s, o), |p| {
                    let (w, setting) = (&p.workload, &p.setting);
                    format!("{w:<14} {setting:<12} cycles {:>12} folds {:>10}", p.cycles, p.folds)
                })
            },
        },
        "ablation-aux" => Table {
            specs: |n| {
                let sizes = [64, 128, 256, 512, 1024, 2048];
                ablation::aux_size_space(&Workload::ALL, n, &sizes).specs()
            },
            report: |_, s, o| {
                let title =
                    "Ablation D: auxiliary predictor size (with same-size no-ASBR baseline)";
                print_rows(title, "ablation_aux", &ablation::aux_size_rows(s, o), |p| {
                    format!(
                        "{:<14} bi-{:<5} asbr {:>12} baseline {:>12}",
                        p.workload, p.entries, p.asbr_cycles, p.baseline_cycles
                    )
                })
            },
        },
        "ablation-latency" => Table {
            specs: |n| {
                let latencies = [(1, 1), (2, 8), (4, 16), (8, 34)];
                ablation::muldiv_latency_space(&Workload::ALL, n, &latencies).specs()
            },
            report: |_, s, o| {
                let title = "Ablation F: multiply/divide EX latency";
                print_rows(title, "ablation_latency", &ablation::muldiv_latency_rows(s, o), |p| {
                    format!(
                        "{:<14} mul={:<2} div={:<2} baseline {:>12} asbr {:>12} gain {:>5.1}%",
                        p.workload,
                        p.latency.0,
                        p.latency.1,
                        p.baseline_cycles,
                        p.asbr_cycles,
                        gain(p.baseline_cycles, p.asbr_cycles)
                    )
                })
            },
        },
        "ablation-ras" => Table {
            specs: |n| ablation::ras_space(&Workload::ALL, n).specs(),
            report: |_, s, o| {
                let rows = ablation::ras_rows(s, o);
                print_rows("Ablation G: return-address stack", "ablation_ras", &rows, |p| {
                    format!(
                        "{:<14} ras={:<2} baseline {:>12} asbr {:>12} (baseline return flushes {})",
                        p.workload,
                        p.ras_entries,
                        p.baseline_cycles,
                        p.asbr_cycles,
                        p.baseline_indirect_flushes
                    )
                })
            },
        },
        "ablation-cache" => Table {
            specs: |n| {
                let sizes = [1024, 2048, 4096, 8192, 16384];
                ablation::cache_size_space(&Workload::ALL, n, &sizes).specs()
            },
            report: |_, s, o| {
                let title = "Ablation J: cache-size sensitivity";
                print_rows(title, "ablation_cache", &ablation::cache_size_rows(s, o), |p| {
                    format!(
                        "{:<14} {:>5}B baseline {:>12} asbr {:>12} gain {:>5.1}%",
                        p.workload,
                        p.cache_bytes,
                        p.baseline_cycles,
                        p.asbr_cycles,
                        gain(p.baseline_cycles, p.asbr_cycles)
                    )
                })
            },
        },
        "ablation-family" => Table {
            specs: |n| ablation::predictor_family_space(&Workload::ALL, n).specs(),
            report: |c, s, o| {
                let arms = ablation::predictor_family_rows(s, o);
                let hinted = |w| ablation::static_profile(w, c.samples);
                let rows = with_hand_run(arms, ablation::FAMILY.len(), hinted)?;
                let title = "Ablation I: general-purpose predictor family study (no ASBR)";
                print_rows(title, "ablation_family", &rows, |r| {
                    format!(
                        "{:<14} {:<15} cycles {:>12}  acc {:>5.1}%  bits {:>6}",
                        r.workload,
                        r.predictor,
                        r.cycles,
                        r.accuracy * 100.0,
                        r.storage_bits
                    )
                })
            },
        },
        "ablation-static" => Table {
            specs: |n| ablation::selection_space(&Workload::ALL, n).specs(),
            report: |c, s, o| {
                let profiled = ablation::selection_rows(s, o);
                let static_point = |w| ablation::static_selection(w, c.samples);
                let rows = with_hand_run(profiled, 1, static_point)?;
                let title = "Ablation H: static (profile-free) vs profiled BIT selection";
                print_rows(title, "ablation_static", &rows, |p| {
                    format!(
                        "{:<14} {:<9} cycles {:>12} folds {:>10} selected {:>2}",
                        p.workload, p.method, p.cycles, p.folds, p.selected
                    )
                })
            },
        },
        _ => return None,
    })
}

/// Percent of the baseline's cycles that ASBR saves.
fn gain(baseline_cycles: u64, asbr_cycles: u64) -> f64 {
    (1.0 - asbr_cycles as f64 / baseline_cycles as f64) * 100.0
}

fn section(title: &str) {
    println!("\n=== {title} ===");
}

fn save_json<T: ToJson + ?Sized>(name: &str, value: &T) {
    if let Err(e) = json::write(format!("results/{name}.json"), value) {
        eprintln!("warning: {e}");
    }
}

/// Prints `rows` under `title`, one `line` each, and saves them as
/// `results/<file>.json`.
fn print_rows<T: ToJson>(
    title: &str,
    file: &str,
    rows: &[T],
    line: impl Fn(&T) -> String,
) -> Result<(), String> {
    section(title);
    for row in rows {
        println!("{}", line(row));
    }
    save_json(file, rows);
    Ok(())
}

fn fig6_specs(samples: usize) -> Vec<RunSpec> {
    fig6::space(samples, &PredictorKind::BASELINES).specs()
}

fn fig6(_: &Campaign, specs: &[RunSpec], outcomes: &[RunOutcome]) -> Result<(), String> {
    section("Figure 6: branch predictability of the benchmarks (baseline)");
    let rows = fig6::rows(specs, outcomes);
    println!("{}", fig6::render(&rows));
    save_json("fig6", &rows);
    Ok(())
}

fn branch_table(c: &Campaign, w: Workload, name: &str) -> Result<(), String> {
    section(&format!("{name}: branches selected for {}", w.name()));
    let t = branch_tables::table(w, c.samples, 16).map_err(|e| e.to_string())?;
    println!("{}", branch_tables::render(&t));
    save_json(&name.to_lowercase().replace(' ', "_"), &t);
    Ok(())
}

fn fig11(_: &Campaign, specs: &[RunSpec], outcomes: &[RunOutcome]) -> Result<(), String> {
    section("Figure 11: application-specific branch resolution results");
    let rows = fig11::rows(specs, outcomes);
    println!("{}", fig11::render(&rows));
    println!(
        "(improvements compare not-taken vs baseline not-taken, bi-512/bi-256 vs baseline bimodal-2048, as in the paper)"
    );
    save_json("fig11", &rows);
    Ok(())
}

fn attribution(_: &Campaign, specs: &[RunSpec], outcomes: &[RunOutcome]) -> Result<(), String> {
    section("Attribution: baseline -> ASBR cycle delta by bucket");
    let rows = attribution::rows(specs, outcomes);
    print!("{}", attribution::render(&rows));
    println!(
        "(bimodal-2048 baseline vs ASBR with bi-512 auxiliary; per-branch savings sum \
         to ΔUseful + ΔBranchFlush by construction)"
    );
    save_json("attribution", &rows);
    Ok(())
}

/// Figures 6 and 11 as a bench record: per-run walls and cache hits.
/// Its total wall is the whole batch's, which holds its runs and those
/// of every other table named with it.
fn sweep(c: &Campaign, specs: &[RunSpec], outcomes: &[RunOutcome]) -> Result<(), String> {
    section("Sweep: Figure 6 + Figure 11 through the parallel cached engine");
    let bench = SweepBench::from_runs(specs, outcomes, c.threads, c.batch_wall);
    for r in &bench.runs {
        println!(
            "{:<36} cycles {:>12} wall {:>9.3}ms{}",
            r.label,
            r.cycles,
            r.wall_nanos as f64 / 1e6,
            if r.cached { "  [cached]" } else { "" }
        );
    }
    println!(
        "\n{} runs on {} threads in {:.3}s ({} cache hits, {} misses)",
        bench.runs.len(),
        c.threads,
        c.batch_wall.as_secs_f64(),
        bench.cache_hits(),
        bench.cache_misses()
    );
    match json::write("results/BENCH_sweep.json", &bench) {
        Ok(()) => println!("wrote results/BENCH_sweep.json"),
        Err(e) => eprintln!("warning: {e}"),
    }
    Ok(())
}

fn motivation(c: &Campaign, _: &[RunSpec], _: &[RunOutcome]) -> Result<(), String> {
    section("Motivation kernels (Figures 1 and 2)");
    let n = c.samples.min(20_000);
    for r in [motivation::fig2(n), motivation::fig1(n)] {
        let r = r.map_err(|e| e.to_string())?;
        println!("{}: focus branch executed {} times", r.kernel, r.exec);
        for (name, acc) in &r.accuracy {
            println!("  {name:<10} accuracy {:.2}", acc);
        }
        println!(
            "  ASBR folds {} | cycles {} -> {} ({:+.1}%)",
            r.folds,
            r.baseline_cycles,
            r.asbr_cycles,
            gain(r.baseline_cycles, r.asbr_cycles)
        );
        save_json(
            if r.kernel.contains('2') { "motivation_fig2" } else { "motivation_fig1" },
            &r,
        );
    }
    Ok(())
}

fn scope(c: &Campaign, _: &[RunSpec], _: &[RunOutcome]) -> Result<(), String> {
    let rows = scope::table(c.samples.min(5000)).map_err(|e| e.to_string())?;
    let title = "Scope extension: ASBR on additional control-dominated kernels";
    print_rows(title, "scope", &rows, |r| {
        format!(
            "{:<24} baseline {:>10} asbr {:>10}  gain {:>5.1}%  folds {:>8}  selected {}  output {}",
            r.kernel,
            r.baseline_cycles,
            r.asbr_cycles,
            r.improvement * 100.0,
            r.folds,
            r.selected,
            if r.output_ok { "exact" } else { "MISMATCH" }
        )
    })
}

fn power(_: &Campaign, specs: &[RunSpec], outcomes: &[RunOutcome]) -> Result<(), String> {
    let model = costs::model().map_err(|e| e.to_string())?;
    let rows = costs::power_rows(&model, specs, outcomes);
    print_rows("Power accounting (paper Sec. 1 claim)", "power_table", &rows, |r| {
        format!(
            "{:<14} baseline {:>14.0} asbr {:>14.0}  reduction {:>5.1}%  wrong-path slots {} -> {}",
            r.workload,
            r.baseline_energy,
            r.asbr_energy,
            r.reduction * 100.0,
            r.baseline_squashed,
            r.asbr_squashed
        )
    })
}

fn area(_: &Campaign, _: &[RunSpec], _: &[RunOutcome]) -> Result<(), String> {
    let rows = costs::area_table().map_err(|e| e.to_string())?;
    print_rows("Front-end storage (paper Sec. 6 area claim)", "area_table", &rows, |r| {
        format!(
            "{:<36} predictor {:>7}  btb {:>7}  asbr {:>6}  total {:>7} bits",
            r.config, r.predictor_bits, r.btb_bits, r.asbr_bits, r.total()
        )
    })
}

fn ablation_banks(c: &Campaign, _: &[RunSpec], _: &[RunOutcome]) -> Result<(), String> {
    section("Ablation E: BIT bank switching (Sec. 7)");
    let iterations = u32::try_from(c.samples)
        .map_err(|_| format!("{} samples do not fit a u32 iteration count", c.samples))?;
    let (banked, single) = ablation::bank_switching(iterations).map_err(|e| e.to_string())?;
    println!("two banks: {banked} folds; single bank: {single} folds");
    save_json("ablation_banks", &(banked, single));
    Ok(())
}

/// Runs every named table's specs as one batch on `executor`, then has
/// each table report from its own slice of the outcomes, in name order.
fn cmd_tables(
    names: &[String],
    executor: &Executor,
    samples: usize,
    threads: usize,
) -> Result<(), String> {
    let all = ["all".to_owned()];
    let names = if names.is_empty() { &all[..] } else { names };
    let tables = names
        .iter()
        .map(|name| table(name).map(|t| (name, t)).ok_or_else(|| format!("unknown table `{name}`")))
        .collect::<Result<Vec<_>, String>>()?;
    let started = Instant::now();
    let own: Vec<Vec<RunSpec>> = tables.iter().map(|(_, t)| (t.specs)(samples)).collect();
    let specs = own.concat();
    let outcomes = executor.run(&specs).map_err(|e| e.to_string())?;
    let threads = match threads {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        n => n,
    };
    let campaign = Campaign { samples, threads, batch_wall: started.elapsed() };
    let mut at = 0;
    for ((name, t), own) in tables.iter().zip(&own) {
        let outcomes = &outcomes[at..at + own.len()];
        at += own.len();
        (t.report)(&campaign, own, outcomes).map_err(|e| format!("{name}: {e}"))?;
    }
    let s = executor.stats();
    eprintln!(
        "\n[tables: {} specs, {} distinct, {} computed, {} cache hits, {} machine hits \
         in {:.1}s at {samples} samples]",
        s.submitted + s.dedup_hits,
        s.submitted,
        s.computed,
        s.cache_hits,
        s.machine_hits,
        started.elapsed().as_secs_f64(),
    );
    Ok(())
}

fn parse_predictor(name: &str) -> Result<PredictorKind, String> {
    Ok(match name {
        "nottaken" | "not-taken" => PredictorKind::NotTaken,
        "bimodal" => PredictorKind::Bimodal { entries: 2048 },
        "gshare" => PredictorKind::Gshare { hist_bits: 11, entries: 2048 },
        "tournament" => PredictorKind::Tournament { hist_bits: 11, entries: 2048 },
        other => return Err(format!("unknown predictor `{other}`")),
    })
}

fn usage() -> String {
    "usage: asbr_tool <asm|analyze|customize|run> <file.s> [options]\n\
     \x20      asbr_tool lint [FILE.s ...] [--json] [--deny info|warn|error] [--threshold n]\n\
     \x20      asbr_tool tables [TABLE ...] [--samples n] [--threads n] [--no-cache|--refresh]\n\
     \x20      asbr_tool trace <workload> [--samples n] [--out path] [--interval n] [--asbr]\n\
     \x20      asbr_tool bench [--samples n] [--reps n] [--out path]\n\
     \x20                      [--check golden.json]\n\
     \x20      asbr_tool wcet [--samples n] [--out path]\n\
     \x20      asbr_tool explore [--space small|default] [--workload name] [--samples n]\n\
     \x20                        [--threads n] [--cache dir|--no-cache] [--refresh]\n\
     \x20                        [--out path]\n\
     see the module docs (src/bin/asbr_tool.rs) for options"
        .to_owned()
}

/// The executor every spec-running subcommand runs on, built from the
/// shared `--threads` and cache flags.
fn executor(common: &CommonOpts) -> Result<Executor, String> {
    Ok(Executor::new()
        .threads(common.threads)
        .cache(common.cache_mode(ResultCache::default_root())?))
}

fn real_main() -> Result<(), Failure> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().ok_or_else(usage)?;
    if cmd == "tables" {
        let mut common =
            CommonOpts::accepting(&["--samples", "--threads", "--no-cache", "--refresh"]);
        let mut names = Vec::new();
        parse_flags(&args, 1, &mut common, |arg, _| {
            if arg.starts_with('-') {
                return Ok(false);
            }
            names.push(arg.to_owned());
            Ok(true)
        })?;
        let samples = common.samples.unwrap_or(SAMPLES_FULL);
        return Ok(cmd_tables(&names, &executor(&common)?, samples, common.threads)?);
    }
    if cmd == "lint" {
        let mut opts = LintOpts {
            files: Vec::new(),
            json: false,
            deny: Severity::Error,
            threshold: PublishPoint::Mem.threshold(),
        };
        parse_flags(&args, 1, &mut CommonOpts::accepting(&[]), |arg, cur| {
            match arg {
                "--json" => opts.json = true,
                "--deny" => {
                    let v = cur.value("--deny")?;
                    opts.deny = Severity::parse(v)
                        .ok_or_else(|| format!("bad --deny value `{v}` (info|warn|error)"))?;
                }
                "--threshold" => opts.threshold = cur.parse("--threshold")?,
                file if !file.starts_with('-') => opts.files.push(file.to_owned()),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        return cmd_lint(&opts);
    }
    if cmd == "bench" {
        let mut common = CommonOpts::accepting(&["--samples", "--out"]);
        let mut opts = BenchOpts {
            samples: THROUGHPUT_SAMPLES,
            reps: THROUGHPUT_REPS,
            out: None,
            check: None,
        };
        parse_flags(&args, 1, &mut common, |flag, cur| {
            match flag {
                "--reps" => opts.reps = cur.parse("--reps")?,
                "--check" => opts.check = Some(cur.value("--check")?.clone()),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        opts.samples = common.samples.unwrap_or(THROUGHPUT_SAMPLES);
        opts.out = common.out;
        return cmd_bench(&opts);
    }
    if cmd == "wcet" {
        let mut common = CommonOpts::accepting(&["--samples", "--out"]);
        parse_flags(&args, 1, &mut common, |_, _| Ok(false))?;
        let executor = executor(&common)?;
        let opts = WcetOpts {
            samples: common.samples.unwrap_or(SAMPLES_SMOKE),
            out: common.out.unwrap_or_else(|| "results/WCET_report.json".to_owned()),
        };
        return cmd_wcet(&opts, &executor);
    }
    if cmd == "explore" {
        let mut common = CommonOpts::accepting(&[
            "--samples",
            "--out",
            "--threads",
            "--cache",
            "--no-cache",
            "--refresh",
        ]);
        let mut space = "default".to_owned();
        let mut workload = Workload::AdpcmEncode;
        parse_flags(&args, 1, &mut common, |flag, cur| {
            match flag {
                "--space" => space = cur.value("--space")?.clone(),
                "--workload" => workload = resolve_workload(cur.value("--workload")?)?,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        let out = common.out.clone().unwrap_or_else(|| {
            format!("results/PARETO_{space}_{}.json", workload.slug())
        });
        let opts = ExploreOpts {
            space,
            workload,
            samples: common.samples.unwrap_or(SAMPLES_SMOKE),
            out,
        };
        return Ok(cmd_explore(&opts, &executor(&common)?)?);
    }
    let file = args.get(1).ok_or_else(usage)?;
    let done = match cmd.as_str() {
        "asm" => cmd_asm(file),
        "analyze" => cmd_analyze(file),
        "customize" => {
            let out = match args.get(2).map(String::as_str) {
                Some("-o") => args.get(3).ok_or("missing output path after -o".to_owned())?,
                _ => return Err(usage().into()),
            };
            cmd_customize(file, out)
        }
        "run" => {
            let mut common = CommonOpts::accepting(&[]);
            let mut opts = RunOpts {
                input: Vec::new(),
                image: None,
                asbr_static: false,
                predictor: PredictorKind::Bimodal { entries: 2048 },
                trace: 0,
            };
            parse_flags(&args, 2, &mut common, |flag, cur| {
                match flag {
                    "--input" => {
                        let list = cur.value("--input")?;
                        opts.input = list
                            .split(',')
                            .filter(|s| !s.is_empty())
                            .map(|s| s.trim().parse::<i32>().map_err(|e| e.to_string()))
                            .collect::<Result<_, String>>()?;
                    }
                    "--asbr" => {
                        let p = cur.value("--asbr")?;
                        opts.image =
                            Some(fs::read(p).map_err(|e| format!("cannot read {p}: {e}"))?);
                    }
                    "--asbr-static" => opts.asbr_static = true,
                    "--predictor" => {
                        opts.predictor = parse_predictor(cur.value("--predictor")?)?;
                    }
                    "--trace" => opts.trace = cur.parse("--trace")?,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            cmd_run(file, &opts)
        }
        "trace" => {
            let mut common = CommonOpts::accepting(&["--samples", "--out"]);
            let mut interval = asbr_sim::DEFAULT_TRACE_INTERVAL;
            let mut asbr = false;
            parse_flags(&args, 2, &mut common, |flag, cur| {
                match flag {
                    "--interval" => interval = cur.parse("--interval")?,
                    "--asbr" => asbr = true,
                    _ => return Ok(false),
                }
                Ok(true)
            })?;
            let opts = TraceOpts {
                samples: common.samples.unwrap_or(SAMPLES_SMOKE),
                out: common.out.unwrap_or_else(|| "trace.json".to_owned()),
                interval,
                asbr,
            };
            cmd_trace(file, &opts)
        }
        _ => Err(usage()),
    };
    Ok(done?)
}

fn main() -> ExitCode {
    let (msg, code) = match real_main() {
        Ok(()) => return ExitCode::SUCCESS,
        Err(Failure::Check(msg)) => (msg, 1),
        Err(Failure::Error(msg)) => (msg, 2),
    };
    eprintln!("asbr_tool: {msg}");
    ExitCode::from(code)
}
