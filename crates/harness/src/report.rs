//! The JSON form of `asbr-check`'s lint report, as `asbr_tool lint
//! --json` prints it. The impls live here because `asbr-check` sits
//! below the codec.

use asbr_check::{Diagnostic, Report};

use crate::json::{ToJson, Value};

/// A lint report: its `name` and one object per finding, whose `pc`,
/// `line` and `symbol` keys appear only when the finding has them.
impl ToJson for Report {
    fn to_json(&self) -> Value {
        Value::obj([("name", self.name().to_json()), ("diagnostics", self.diagnostics().to_json())])
    }
}

impl ToJson for Diagnostic {
    fn to_json(&self) -> Value {
        let Diagnostic { code, severity, pc, line, symbol, message } = self;
        let mut fields = vec![("code", code.to_json()), ("severity", severity.label().to_json())];
        fields.extend(pc.map(|pc| ("pc", pc.to_json())));
        fields.extend(line.map(|line| ("line", line.to_json())));
        fields.extend(symbol.as_ref().map(|symbol| ("symbol", symbol.to_json())));
        fields.push(("message", message.to_json()));
        Value::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use asbr_check::Severity;

    use super::*;

    // The full schema, optional `pc`/`line`/`symbol` keys included, is
    // pinned by `tests/static_check.rs::lint_json_schema_matches_the_golden`.
    #[test]
    fn json_escapes_and_shapes() {
        let mut r = Report::new("a \"b\"");
        r.push(Diagnostic::global("X001", Severity::Error, "line1\nline2".into()));
        assert_eq!(
            r.to_json().compact(),
            r#"{"name":"a \"b\"","diagnostics":[{"code":"X001","severity":"error","message":"line1\nline2"}]}"#
        );
    }
}
