//! Host machine metadata stamped into benchmark artifacts.
//!
//! Wall-clock benchmark numbers (`PARETO_*.json`, perfbench's records)
//! are only interpretable next to the machine that produced them: a
//! 2.1 GHz shared CI runner and a desktop disagree by integers, not
//! percentages. [`HostInfo::gather`] records the CPU model,
//! core count, compiler, and source revision alongside every benchmark so
//! committed artifacts and CI uploads are self-describing.
//!
//! Gathering spawns no process: the compiler version is captured when
//! this crate is built (`build.rs`), and the revision is read from the
//! checkout's `.git` files. Every field degrades to `"unknown"` rather
//! than failing — metadata must never break a measurement.

use std::fs;
use std::path::Path;

/// Host metadata block of a benchmark artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInfo {
    /// CPU model string from `/proc/cpuinfo` (`"unknown"` off Linux).
    pub cpu_model: String,
    /// Logical cores available to this process.
    pub cores: usize,
    /// `rustc --version` of the compiler that built this binary, captured
    /// at build time.
    pub rustc: String,
    /// Short (7-digit) revision of the git checkout containing the
    /// current directory, read from its `.git` files (`"unknown"` outside
    /// a checkout or when the refs are not plain files).
    pub git_rev: String,
    /// Worker threads the benchmark was configured with.
    pub threads: usize,
    /// Intra-run threads per run, as the caller reports them: always `1`,
    /// since every run is one pipeline on one thread. The field stays so
    /// the artifacts keep their schema.
    pub shards: usize,
}

impl HostInfo {
    /// Collects the metadata, degrading any unavailable field to
    /// `"unknown"`. Callers pass `shards = 1` (see [`HostInfo::shards`]).
    #[must_use]
    pub fn gather(threads: usize, shards: usize) -> HostInfo {
        let unknown = || "unknown".to_owned();
        HostInfo {
            cpu_model: cpu_model().unwrap_or_else(unknown),
            cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            rustc: option_env!("ASBR_RUSTC_VERSION").unwrap_or("unknown").to_owned(),
            git_rev: std::env::current_dir()
                .ok()
                .and_then(|dir| git_rev_in(&dir))
                .unwrap_or_else(unknown),
            threads,
            shards: shards.max(1),
        }
    }
}

crate::impl_to_json!(HostInfo { cpu_model, cores, rustc, git_rev, threads, shards });

fn cpu_model() -> Option<String> {
    let text = fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = text.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_owned())
}

/// The first 7 hex digits of `HEAD` in the git checkout containing
/// `dir` (what `git rev-parse --short HEAD` prints), or `None` when there
/// is no checkout or it cannot be read as plain files.
///
/// `.git` is searched upward from `dir`. It is either the git directory
/// or a file holding `gitdir: <path>` (a linked worktree or submodule),
/// whose refs live in the directory named by its `commondir`. A
/// symbolic `HEAD` resolves through the loose ref file first, then
/// `packed-refs`; a reftable repository has neither and gives `None`.
pub(crate) fn git_rev_in(dir: &Path) -> Option<String> {
    let dot_git = dir.ancestors().map(|d| d.join(".git")).find(|p| p.exists())?;
    let git_dir = if dot_git.is_dir() {
        dot_git
    } else {
        let text = fs::read_to_string(&dot_git).ok()?;
        // A relative `gitdir` is relative to the directory holding `.git`.
        dot_git.parent()?.join(text.strip_prefix("gitdir:")?.trim())
    };
    let common = match fs::read_to_string(git_dir.join("commondir")) {
        Ok(text) => git_dir.join(text.trim()),
        Err(_) => git_dir.clone(),
    };
    let head = fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let hash = match head.strip_prefix("ref:") {
        None => head.trim().to_owned(),
        Some(name) => resolve_ref(&common, name.trim())?,
    };
    let is_hash = matches!(hash.len(), 40 | 64) && hash.bytes().all(|b| b.is_ascii_hexdigit());
    is_hash.then(|| hash[..7].to_owned())
}

/// The hash `name` (`refs/...`) points at: its loose ref file, else its
/// `packed-refs` line.
fn resolve_ref(common: &Path, name: &str) -> Option<String> {
    if !name.starts_with("refs/") {
        return None;
    }
    if let Ok(text) = fs::read_to_string(common.join(name)) {
        return Some(text.trim().to_owned());
    }
    let packed = fs::read_to_string(common.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, r) = line.split_once(' ')?;
        (r == name).then(|| hash.to_owned())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ToJson;

    const HASH_LINE: &str = "0123456789abcdef0123456789abcdef01234567\n";

    #[test]
    fn gather_never_fails_and_renders_json() {
        let h = HostInfo::gather(3, 2);
        assert!(h.cores >= 1);
        assert_eq!(h.threads, 3);
        assert_eq!(h.shards, 2);
        assert!(!h.cpu_model.is_empty());
        assert!(h.rustc.starts_with("rustc "), "{}", h.rustc);
        let doc = crate::json::parse(&h.to_json().pretty()).unwrap();
        assert_eq!(doc.get("threads").and_then(crate::json::Value::as_u64), Some(3));
        assert_eq!(doc.get("shards").and_then(crate::json::Value::as_u64), Some(2));
        assert!(doc.get("cpu_model").and_then(crate::json::Value::as_str).is_some());
        assert!(doc.get("rustc").is_some() && doc.get("git_rev").is_some());
    }

    /// `git_rev_in` of `sub` in a fresh temp directory holding `files`
    /// (relative path, contents).
    fn rev_of(tag: &str, files: &[(&str, &str)], sub: &str) -> Option<String> {
        let name = format!("asbr-host-test-{tag}-{}", std::process::id());
        let root = std::env::temp_dir().join(name);
        let _ = fs::remove_dir_all(&root);
        for (path, contents) in files {
            let path = root.join(path);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, contents).unwrap();
        }
        fs::create_dir_all(root.join(sub)).unwrap();
        let rev = git_rev_in(&root.join(sub));
        let _ = fs::remove_dir_all(&root);
        rev
    }

    #[test]
    fn symbolic_head_resolves_through_the_loose_ref() {
        let files = [
            (".git/HEAD", "ref: refs/heads/main\n"),
            (".git/refs/heads/main", HASH_LINE),
            // A stale packed entry must lose to the loose file.
            (".git/packed-refs", "ffffffffffffffffffffffffffffffffffffffff refs/heads/main\n"),
        ];
        // Found from a subdirectory, as `git` would.
        assert_eq!(rev_of("loose", &files, "a/b").as_deref(), Some("0123456"));
    }

    #[test]
    fn symbolic_head_falls_back_to_packed_refs() {
        let packed = "# pack-refs with: peeled fully-peeled sorted \n\
                      ffffffffffffffffffffffffffffffffffffffff refs/heads/other\n\
                      0123456789abcdef0123456789abcdef01234567 refs/heads/main\n\
                      ^eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee\n";
        let files = [(".git/HEAD", "ref: refs/heads/main\n"), (".git/packed-refs", packed)];
        assert_eq!(rev_of("packed", &files, "").as_deref(), Some("0123456"));
    }

    #[test]
    fn detached_head_is_read_directly() {
        assert_eq!(rev_of("detached", &[(".git/HEAD", HASH_LINE)], "").as_deref(), Some("0123456"));
    }

    #[test]
    fn gitdir_file_resolves_refs_through_commondir() {
        let files = [
            ("wt/.git", "gitdir: ../main/.git/worktrees/wt\n"),
            ("main/.git/worktrees/wt/HEAD", "ref: refs/heads/feature\n"),
            ("main/.git/worktrees/wt/commondir", "../..\n"),
            ("main/.git/refs/heads/feature", HASH_LINE),
        ];
        assert_eq!(rev_of("worktree", &files, "wt").as_deref(), Some("0123456"));
    }

    #[test]
    fn no_repository_or_garbage_head_is_none() {
        // The temp dir itself must not sit inside a checkout for the
        // first case to mean anything.
        if git_rev_in(&std::env::temp_dir()).is_none() {
            assert_eq!(rev_of("none", &[("src/x", "")], "src"), None);
        }
        assert_eq!(rev_of("garbage", &[(".git/HEAD", "not a hash\n")], ""), None);
        assert_eq!(rev_of("dangling", &[(".git/HEAD", "ref: refs/heads/gone\n")], ""), None);
        assert_eq!(rev_of("escape", &[(".git/HEAD", "ref: ../HEAD\n")], ""), None);
    }
}
