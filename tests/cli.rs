//! Integration tests for the `asbr_tool` command-line front end.

use std::io::Write as _;
use std::process::{Command, Output};

use asbr_harness::json::{self, Value};
use asbr_workloads::Workload;

fn tool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_asbr_tool"))
}

fn demo_source() -> tempfile::NamedTempPath {
    tempfile::NamedTempPath::with_contents(
        "
main:   li   r4, 60
        li   r2, 0
loop:   addi r4, r4, -1
        addi r2, r2, 5
        nop
        nop
br:     bnez r4, loop
        halt
",
    )
}

/// Minimal self-contained temp-file helper (no external crates).
mod tempfile {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Per-process sequence number: tests run on parallel threads, often
    /// with identical contents, so every call gets a path of its own.
    static NEXT: AtomicU64 = AtomicU64::new(0);

    pub struct NamedTempPath(PathBuf);

    impl NamedTempPath {
        pub fn with_contents(contents: &str) -> NamedTempPath {
            let mut path = std::env::temp_dir();
            let unique = format!(
                "asbr-cli-{}-{}.s",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            );
            path.push(unique);
            std::fs::write(&path, contents).expect("temp file writes");
            NamedTempPath(path)
        }

        /// A fresh empty directory at a path of its own.
        pub fn dir() -> NamedTempPath {
            let dir = NamedTempPath::with_contents("");
            std::fs::remove_file(&dir.0).expect("temp file removes");
            std::fs::create_dir(&dir.0).expect("temp dir creates");
            dir
        }

        pub fn path(&self) -> &std::path::Path {
            &self.0
        }
    }

    impl Drop for NamedTempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

#[test]
fn temp_sources_with_equal_contents_do_not_share_a_path() {
    let a = demo_source();
    let b = demo_source();
    assert_ne!(a.path(), b.path());
    drop(a);
    assert!(b.path().exists(), "dropping one temp file must not delete another");
}

#[test]
fn asm_prints_layout_and_disassembly() {
    let src = demo_source();
    let out = tool().args(["asm"]).arg(src.path()).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("8 instructions"));
    assert!(text.contains("bnez"));
    assert!(text.contains("main:"));
}

#[test]
fn analyze_reports_foldability() {
    let src = demo_source();
    let out = tool().args(["analyze"]).arg(src.path()).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("yes"), "{text}");
    assert!(text.contains("loop depth"));
}

#[test]
fn customize_then_run_folds() {
    let src = demo_source();
    let img = std::env::temp_dir().join(format!("asbr-cli-{}.img", std::process::id()));
    let out = tool()
        .args(["customize"])
        .arg(src.path())
        .args(["-o"])
        .arg(&img)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = tool()
        .args(["run"])
        .arg(src.path())
        .args(["--asbr"])
        .arg(&img)
        .args(["--predictor", "nottaken"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("branches folded"), "{text}");
    let _ = std::fs::remove_file(&img);
}

#[test]
fn run_accepts_input_and_reports_output() {
    let echo = tempfile::NamedTempPath::with_contents(
        "
main:   li   r8, 0xFFFF0000
loop:   lw   r9, 4(r8)
        beqz r9, done
        lw   r10, 0(r8)
        addi r10, r10, 1
        sw   r10, 8(r8)
        j    loop
done:   halt
",
    );
    let out = tool()
        .args(["run"])
        .arg(echo.path())
        .args(["--input", "1,2,3", "--predictor", "gshare"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("output: [2, 3, 4]"), "{text}");
}

#[test]
fn bad_usage_exits_nonzero() {
    // Every failure exits 2.
    let out = tool().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = tool().args(["frobnicate", "x.s"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    // And a missing file is a clean error, not a panic.
    let out = tool().args(["asm", "/nonexistent/x.s"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot read"), "{err}");
    let _ = std::io::stdout().flush();
}

#[test]
fn lint_cli_passes_on_workloads() {
    let out = tool().args(["lint", "--deny", "warn"]).output().unwrap();
    assert!(
        out.status.success(),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let json = tool().args(["lint", "--json", "--deny", "warn"]).output().unwrap();
    assert!(json.status.success());
    let text = String::from_utf8_lossy(&json.stdout);
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
    let reports = doc.as_arr().unwrap_or_else(|| panic!("not an array:\n{text}"));
    let names: Vec<&str> =
        reports.iter().map(|r| r.get("name").and_then(Value::as_str).unwrap()).collect();
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, workloads);
    for r in reports {
        assert!(r.get("diagnostics").and_then(Value::as_arr).is_some(), "{r:?}");
    }
}

#[test]
fn wcet_writes_a_report_whose_bounds_hold() {
    let dir = tempfile::NamedTempPath::dir();
    let path = dir.path().join("wcet.json");
    let out = tool().args(["wcet", "--samples", "40", "--out"]).arg(&path).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let runs = doc.get("runs").and_then(Value::as_arr).unwrap();
    assert_eq!(runs.len(), 2 * Workload::ALL.len());
    let mut range_only = 0;
    for r in runs {
        let field = |key: &str| r.get(key).and_then(Value::as_u64).unwrap();
        assert!(field("bound") >= field("cycles"), "{r:?}");
        let tightness = r.get("tightness").and_then(Value::as_f64).unwrap();
        assert!(tightness <= 10.0, "bound uselessly loose ({tightness:.2}x): {r:?}");
        for b in r.get("branches").and_then(Value::as_arr).unwrap() {
            let verdict = |key: &str| b.get(key).and_then(Value::as_bool).unwrap();
            if verdict("range_provable") && !verdict("distance_provable") {
                range_only += 1;
            }
        }
    }
    assert_eq!(doc.get("range_only_provable_branches").and_then(Value::as_u64), Some(range_only));
}

#[test]
fn a_failed_check_exits_1_and_bad_usage_exits_2() {
    // The bundled workloads carry info notes, so denying info fails the check.
    let out = tool().args(["lint", "--deny", "info"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    // A golden that pins a run this bench does not make is drift; one that
    // does not parse is an error.
    let drift =
        tempfile::NamedTempPath::with_contents(r#"{"entries": [{"label": "x", "cycles": 1}]}"#);
    let bad = tempfile::NamedTempPath::with_contents("{bad");
    let bench = |golden: &tempfile::NamedTempPath| {
        let args = ["bench", "--samples", "40", "--reps", "1", "--check"];
        tool().args(args).arg(golden.path()).output().unwrap()
    };
    let out = bench(&drift);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(bench(&bad).status.code(), Some(2));
    for args in [
        &["lint", "--bogus"][..],
        &["tables", "nosuch"],
        &["tables", "fig6", "--samples", "4x0"],
        &["explore", "--budget", "6"],
    ] {
        let out = tool().args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
    }
}

/// Runs `asbr_tool tables ARGS` in `dir`, asserting that it succeeds.
fn tables_in(dir: &tempfile::NamedTempPath, args: &[&str]) -> Output {
    let out = tool().arg("tables").args(args).current_dir(dir.path()).output().unwrap();
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    out
}

/// The `[tables: …]` batch line a `tables` run prints on stderr.
fn batch_line(out: &Output) -> String {
    let err = String::from_utf8_lossy(&out.stderr);
    let line = err.lines().find(|l| l.starts_with("[tables: "));
    line.unwrap_or_else(|| panic!("no batch line in {err}")).to_owned()
}

#[test]
fn tables_prints_the_figure_and_writes_its_json() {
    let dir = tempfile::NamedTempPath::dir();
    let written = |name: &str| {
        let text = std::fs::read_to_string(dir.path().join("results").join(name)).unwrap();
        json::parse(&text).unwrap()
    };
    let out = tables_in(&dir, &["fig6", "fig11", "--samples", "40", "--no-cache"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("=== Figure 6"), "{text}");
    let rows = written("fig6.json");
    assert!(rows.as_arr().is_some_and(|r| !r.is_empty()), "{rows:?}");
    let fig11 = written("fig11.json");
    let rows = fig11.as_arr().unwrap();
    assert!(!rows.is_empty(), "fig11.json has no rows");
    for r in rows {
        for key in ["workload", "aux", "cycles", "baseline_cycles", "improvement", "folds"] {
            assert!(r.get(key).is_some(), "fig11 row {r:?} lacks {key}");
        }
    }

    // A warm sweep rerun is served from the cache, and every run's
    // attribution buckets sum to its cycles.
    tables_in(&dir, &["sweep", "--samples", "40"]);
    tables_in(&dir, &["sweep", "--samples", "40"]);
    let bench = written("BENCH_sweep.json");
    let runs = bench.get("runs").and_then(Value::as_arr).unwrap();
    let hits = runs.iter().filter(|r| r.get("cached").and_then(Value::as_bool) == Some(true));
    assert!(hits.count() > 0, "warm sweep re-run hit the cache zero times");
    for r in runs {
        let Some(Value::Obj(buckets)) = r.get("attribution") else { panic!("{r:?}") };
        let total: u64 = buckets.iter().map(|(_, n)| n.as_u64().unwrap()).sum();
        let cycles = r.get("cycles").and_then(Value::as_u64).unwrap();
        assert_eq!(total, cycles, "{r:?}: attribution sums to {total}, not {cycles} cycles");
    }
}

#[test]
fn a_warm_tables_rerun_computes_nothing() {
    let dir = tempfile::NamedTempPath::dir();
    let args = ["ablation-bit", "ablation-cache", "fig6x", "power", "--samples", "40"];
    let cold = tables_in(&dir, &args);
    assert!(!batch_line(&cold).contains(" 0 computed"), "{}", batch_line(&cold));
    let warm = tables_in(&dir, &args);
    assert!(batch_line(&warm).contains(", 0 computed,"), "{}", batch_line(&warm));
    assert_eq!(warm.stdout, cold.stdout, "the cache changed a table");
}

#[test]
fn tables_run_as_one_batch_that_dedups_across_tables() {
    let dir = tempfile::NamedTempPath::dir();
    let out = tables_in(&dir, &["fig11", "attribution", "power", "--samples", "40", "--no-cache"]);
    // Attribution's and power's 16 specs are all among fig11's 24, whose
    // 20 distinct include its duplicate bimodal-2048 baselines.
    let line = batch_line(&out);
    assert!(line.starts_with("[tables: 40 specs, 20 distinct,"), "{line}");
    assert!(!dir.path().join("results/cache").exists(), "--no-cache wrote a cache");
}

#[test]
fn explore_reports_host_provenance_without_a_path() {
    let out_path = tempfile::NamedTempPath::with_contents("");
    // An empty `PATH`: the compiler version and the git revision must not
    // come from running `rustc` or `git`.
    let out = tool()
        .args(["explore", "--space", "small", "--samples", "40", "--no-cache", "--out"])
        .arg(out_path.path())
        .env("PATH", "")
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(out_path.path()).unwrap();
    let doc = json::parse(&text).unwrap();
    let field = |key: &str| {
        doc.get("host").and_then(|h| h.get(key)).and_then(|v| v.as_str()).unwrap().to_owned()
    };
    let rustc = field("rustc");
    assert!(rustc.starts_with("rustc "), "host.rustc = {rustc:?}");
    // The checkout under test, when a `git` is at hand to ask.
    if let Ok(git) = Command::new("git").args(["rev-parse", "HEAD"]).output() {
        if git.status.success() {
            let head = String::from_utf8_lossy(&git.stdout);
            let rev = field("git_rev");
            assert!(rev.len() >= 7 && head.starts_with(&rev), "host.git_rev {rev:?} vs {head}");
        }
    }
}

/// Runs `asbr_tool explore ARGS` in `dir` and parses the PARETO document
/// it writes to `out`.
fn explore_in(dir: &tempfile::NamedTempPath, out: &str, args: &[&str]) -> Value {
    let run = tool()
        .args(["explore", "--samples", "400", "--out", out])
        .args(args)
        .current_dir(dir.path())
        .output()
        .unwrap();
    assert!(run.status.success(), "{args:?}: {}", String::from_utf8_lossy(&run.stderr));
    json::parse(&std::fs::read_to_string(dir.path().join(out)).unwrap()).unwrap()
}

/// The labels of a PARETO document's front, in front order.
fn front_labels(doc: &Value) -> Vec<&str> {
    let front = doc.get("front").and_then(Value::as_arr).unwrap();
    front.iter().map(|p| p.get("label").and_then(Value::as_str).unwrap()).collect()
}

#[test]
fn explore_enumerates_the_default_space_and_a_warm_rerun_hits_every_point() {
    let dir = tempfile::NamedTempPath::dir();
    let cold = explore_in(&dir, "cold.json", &[]);
    let warm = explore_in(&dir, "warm.json", &[]);
    assert_eq!(cold.get("schema").and_then(Value::as_str), Some("asbr-pareto v1"));
    let front = cold.get("front").and_then(Value::as_arr).unwrap();
    assert!(!front.is_empty(), "exploration found an empty front");
    let objectives = |p: &Value| -> Vec<f64> {
        let values = p.get("objectives").and_then(Value::as_arr).unwrap();
        values.iter().map(|v| v.as_f64().unwrap()).collect()
    };
    for a in front {
        assert_eq!(a.get("feasible").and_then(Value::as_bool), Some(true), "{a:?}");
        // The space minimizes every objective, so dominance is the plain
        // all-<=/one-< test on the reported vectors.
        for b in front {
            let (x, y) = (objectives(a), objectives(b));
            let dominates =
                x.iter().zip(&y).all(|(x, y)| x <= y) && x.iter().zip(&y).any(|(x, y)| x < y);
            assert!(!dominates, "front point {a:?} dominates {b:?}");
        }
    }
    for doc in [&cold, &warm] {
        let field = |key: &str| doc.get(key).and_then(Value::as_u64);
        assert_eq!((field("evaluations"), field("space_size")), (Some(432), Some(432)));
    }
    // Cold, all but one run per machine is served from an equivalent one:
    // 8 simulations for 432 points.
    let rate = |doc: &Value| doc.get("cache_hit_rate").and_then(Value::as_f64).unwrap();
    assert!(rate(&cold) >= 0.98, "cold hit rate {}", rate(&cold));
    assert_eq!(rate(&warm), 1.0, "warm hit rate");
    assert_eq!(front_labels(&warm), front_labels(&cold), "the cache changed the front");

    // Every point has its own entry name, directly in the cache root, and
    // the names are hard links to one file per simulated machine.
    let mut names = 0;
    let mut inodes = std::collections::BTreeSet::new();
    for entry in std::fs::read_dir(dir.path().join("results/cache")).unwrap() {
        let entry = entry.unwrap();
        let meta = entry.metadata().unwrap();
        assert!(!meta.is_dir(), "cache root holds directory {:?}", entry.path());
        if entry.path().extension().is_some_and(|e| e == "run") {
            names += 1;
            inodes.insert(std::os::unix::fs::MetadataExt::ino(&meta));
        }
    }
    assert_eq!(names, 432, "{names} cache names for 432 points");
    assert!(inodes.len() <= 16, "{} entry files for 432 points", inodes.len());
}

#[test]
fn trace_counters_attribute_every_cycle() {
    let dir = tempfile::NamedTempPath::dir();
    let path = dir.path().join("trace.json");
    let out = tool()
        .args(["trace", "adpcm-encode", "--samples", "400", "--asbr", "--out"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
    let counters: Vec<&Value> =
        events.iter().filter(|e| e.get("ph").and_then(Value::as_str) == Some("C")).collect();
    assert!(!counters.is_empty(), "trace has no counter snapshots");
    let mut total = 0;
    for e in &counters {
        let Some(Value::Obj(buckets)) = e.get("args") else { panic!("{e:?}") };
        total += buckets.iter().map(|(_, n)| n.as_u64().unwrap()).sum::<u64>();
    }
    let cycles = doc.get("metadata").and_then(|m| m.get("total_cycles")).and_then(Value::as_u64);
    assert_eq!(Some(total), cycles, "bucket counts {total} != total_cycles");
}
