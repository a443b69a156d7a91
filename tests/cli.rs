//! Integration tests for the `asbr_tool` command-line front end.

use std::io::Write as _;
use std::process::Command;

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

        pub fn path(&self) -> &std::path::Path {
            &self.0
        }
    }

    impl Drop for NamedTempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
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
    let dir = std::env::temp_dir().join(format!("asbr-cli-wcet-{}", std::process::id()));
    let path = dir.join("wcet.json");
    let out = tool().args(["wcet", "--samples", "40", "--out"]).arg(&path).output().unwrap();
    let written = std::fs::read_to_string(&path);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = json::parse(&written.unwrap()).unwrap();
    let runs = doc.get("runs").and_then(Value::as_arr).unwrap();
    assert_eq!(runs.len(), 2 * Workload::ALL.len());
    let mut range_only = 0;
    for r in runs {
        let field = |key: &str| r.get(key).and_then(Value::as_u64).unwrap();
        assert!(field("bound") >= field("cycles"), "{r:?}");
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
    ] {
        let out = tool().args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
    }
}

#[test]
fn tables_prints_the_figure_and_writes_its_json() {
    let dir = std::env::temp_dir().join(format!("asbr-cli-tables-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = tool()
        .args(["tables", "fig6", "--samples", "40", "--no-cache"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let written = std::fs::read_to_string(dir.join("results/fig6.json"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("=== Figure 6"), "{text}");
    let rows = json::parse(&written.unwrap()).unwrap();
    assert!(rows.as_arr().is_some_and(|r| !r.is_empty()), "{rows:?}");
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
