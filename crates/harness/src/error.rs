//! The one public error type of the harness.
//!
//! Every fallible harness entry point — [`crate::RunSpec::execute`], the
//! [`crate::Executor`] batch API, exploration, the cost model loader, the
//! result cache and [`crate::json::write`] — returns [`HarnessError`]. A
//! single enum carries the failure and every variant renders a one-line
//! human message via [`std::fmt::Display`].
//!
//! The type is `Clone` by construction (I/O errors are captured as kind +
//! message) because one simulated machine's result fans out to every job
//! that machine serves.

use core::fmt;
use std::io;

use asbr_sim::SimError;

/// Any failure the harness can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HarnessError {
    /// The simulator rejected or aborted the run.
    Sim(SimError),
    /// The ASBR customization unit could not be built for the selected
    /// branches (a [`crate::RunSpec`] naming uninstallable branch PCs).
    Unit(String),
    /// A result-cache file operation failed (the batch executor degrades
    /// to uncached operation instead of surfacing this; it is returned by
    /// the strict cache API).
    CacheIo {
        /// What the cache was doing (`"store"`, `"load"`).
        op: &'static str,
        /// The failing path.
        path: String,
        /// [`io::Error::kind`] of the underlying error.
        kind: io::ErrorKind,
        /// Rendered message of the underlying error.
        message: String,
    },
    /// A cache entry exists but does not parse; `line` is 1-based within
    /// the entry file. The tolerant loader treats this as a miss; the
    /// strict loader surfaces it.
    CacheEntry {
        /// 1-based line of the first offense.
        line: usize,
        /// What was wrong there.
        message: String,
    },
    /// An artifact could not be written: its directory could not be
    /// created or the file itself could not be written.
    Write {
        /// The failing path.
        path: String,
        /// Rendered message of the underlying error.
        message: String,
    },
    /// An input is semantically invalid: a cost model with a missing
    /// field, a wrong schema tag or an unrecognized key, or an
    /// exploration with no objectives or no points.
    Spec(String),
    /// A JSON input — the area/power cost model — failed to parse;
    /// positions are 1-based within its text.
    SpecParse {
        /// 1-based line of the offense.
        line: usize,
        /// 1-based column of the offense.
        col: usize,
        /// What was wrong there.
        message: String,
    },
}

impl HarnessError {
    /// Builds a [`HarnessError::CacheIo`] from a live [`io::Error`].
    #[must_use]
    pub fn cache_io(op: &'static str, path: impl Into<String>, e: &io::Error) -> HarnessError {
        HarnessError::CacheIo { op, path: path.into(), kind: e.kind(), message: e.to_string() }
    }
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Sim(e) => write!(f, "{e}"),
            HarnessError::Unit(msg) => write!(f, "ASBR unit construction failed: {msg}"),
            HarnessError::CacheIo { op, path, message, .. } => {
                write!(f, "result cache {op} failed for {path}: {message}")
            }
            HarnessError::CacheEntry { line, message } => {
                write!(f, "corrupt cache entry at line {line}: {message}")
            }
            HarnessError::Write { path, message } => write!(f, "cannot write {path}: {message}"),
            HarnessError::Spec(msg) => write!(f, "invalid spec: {msg}"),
            HarnessError::SpecParse { line, col, message } => {
                write!(f, "spec parse error at line {line}, column {col}: {message}")
            }
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for HarnessError {
    fn from(e: SimError) -> HarnessError {
        HarnessError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_one_line_and_positioned() {
        let e = HarnessError::SpecParse { line: 3, col: 14, message: "expected `:`".into() };
        let text = e.to_string();
        assert!(text.contains("line 3"), "{text}");
        assert!(text.contains("column 14"), "{text}");
        assert!(!text.contains('\n'));
    }

    #[test]
    fn sim_errors_convert_and_chain() {
        let e: HarnessError = SimError::Limit { limit: 10 }.into();
        assert!(matches!(e, HarnessError::Sim(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
