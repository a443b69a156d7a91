//! Diagnostics: severity levels, source locations, and rendering as
//! text. The JSON form (`asbr_tool lint --json`) is asbr-harness's
//! `ToJson` impl, rendered by `asbr_harness::json`, the workspace's one
//! codec.

use core::fmt;

use asbr_asm::Program;

/// Diagnostic severity, ordered `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; never gates.
    Info,
    /// Suspicious construct; gates under `--deny warn`.
    Warning,
    /// A soundness or structural defect; always gates.
    Error,
}

impl Severity {
    /// Lower-case label used in text and JSON output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Parses a `--deny` argument (`info`, `warn`/`warning`, `error`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "info" => Some(Severity::Info),
            "warn" | "warning" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One finding of the verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code (e.g. `E001`, `ASBR02`, `SCHED03`).
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Address of the offending instruction, when the finding has one.
    pub pc: Option<u32>,
    /// 1-based source line of `pc` in the assembled file, when known.
    pub line: Option<u32>,
    /// Nearest label at or before `pc`, rendered `label+0x8`, when known.
    pub symbol: Option<String>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic without a location.
    #[must_use]
    pub fn global(code: &'static str, severity: Severity, message: String) -> Diagnostic {
        Diagnostic { code, severity, pc: None, line: None, symbol: None, message }
    }

    /// Builds a diagnostic anchored at `pc`, resolving its source line and
    /// nearest symbol from `program`.
    #[must_use]
    pub fn at(
        program: &Program,
        pc: u32,
        code: &'static str,
        severity: Severity,
        message: String,
    ) -> Diagnostic {
        let symbol = program.nearest_symbol(pc).map(|(name, off)| {
            if off == 0 {
                name.to_owned()
            } else {
                format!("{name}+{off:#x}")
            }
        });
        Diagnostic { code, severity, pc: Some(pc), line: program.line_of(pc), symbol, message }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(pc) = self.pc {
            write!(f, " {pc:#010x}")?;
        }
        match (&self.symbol, self.line) {
            (Some(s), Some(l)) => write!(f, " ({s}, line {l})")?,
            (Some(s), None) => write!(f, " ({s})")?,
            (None, Some(l)) => write!(f, " (line {l})")?,
            (None, None) => {}
        }
        write!(f, ": {}", self.message)
    }
}

/// All findings for one checked program.
#[derive(Debug, Clone, Default)]
pub struct Report {
    name: String,
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Creates an empty report for the program called `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Report {
        Report { name: name.into(), diagnostics: Vec::new() }
    }

    /// The checked program's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records a finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// All findings, in discovery order.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// The most severe finding, or `None` for a clean report.
    #[must_use]
    pub fn worst(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Number of findings at or above `severity`.
    #[must_use]
    pub fn count_at_least(&self, severity: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity >= severity).count()
    }

    /// Renders the report as human-readable text, one finding per line.
    #[must_use]
    pub fn render_text(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.name);
        if self.diagnostics.is_empty() {
            let _ = writeln!(out, "clean");
            return out;
        }
        for d in &self.diagnostics {
            let _ = writeln!(out, "{d}");
        }
        let _ = writeln!(
            out,
            "{} error(s), {} warning(s), {} note(s)",
            self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count(),
            self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count(),
            self.diagnostics.iter().filter(|d| d.severity == Severity::Info).count(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asbr_asm::assemble;

    #[test]
    fn severity_orders_and_parses() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::parse("warn"), Some(Severity::Warning));
        assert_eq!(Severity::parse("error"), Some(Severity::Error));
        assert_eq!(Severity::parse("fatal"), None);
    }

    #[test]
    fn diagnostic_resolves_location() {
        let p = assemble("main: nop\nbr: nop\nhalt").unwrap();
        let pc = p.symbol("br").unwrap() + 4;
        let d = Diagnostic::at(&p, pc, "E001", Severity::Error, "boom".into());
        assert_eq!(d.symbol.as_deref(), Some("br+0x4"));
        assert_eq!(d.line, Some(3));
        let rendered = d.to_string();
        assert!(rendered.contains("error[E001]"), "{rendered}");
        assert!(rendered.contains("br+0x4"), "{rendered}");
    }

    #[test]
    fn report_counts_and_worst() {
        let mut r = Report::new("t");
        assert_eq!(r.worst(), None);
        r.push(Diagnostic::global("I001", Severity::Info, "a".into()));
        r.push(Diagnostic::global("W001", Severity::Warning, "b".into()));
        assert_eq!(r.worst(), Some(Severity::Warning));
        assert_eq!(r.count_at_least(Severity::Warning), 1);
        assert_eq!(r.count_at_least(Severity::Info), 2);
        assert!(r.render_text().contains("1 warning(s)"));
    }
}
