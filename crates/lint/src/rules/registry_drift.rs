//! R9 — registry drift: the cross-file direction of the registry
//! checks. R4 guarantees wire words are *defined* once; this rule
//! checks they are *used* — and that interned metric names are
//! documented.
//!
//! * Every `ops::`/`kinds::` constant must be referenced at least twice
//!   outside the registry modules (once to encode, once to decode — a
//!   word with fewer references is dead or half-wired, and the missing
//!   side is where drift starts).
//! * Every interned `*_total`/`*_us` metric name passed to
//!   `.counter(` / `.gauge(` / `.histogram(` must appear in the
//!   DESIGN.md §9 table — the code-to-docs direction; R5 already checks
//!   docs-to-code.

use crate::model::{Finding, Rule};
use crate::walk::Workspace;

/// Where the wire registry lives.
const REGISTRY_FILE: &str = "crates/service/src/protocol.rs";

/// Metric registration calls whose names must be documented.
const METRIC_CALLS: [&str; 3] = [".counter", ".gauge", ".histogram"];

/// Run the rule.
pub fn check(workspace: &Workspace, findings: &mut Vec<Finding>) {
    check_constant_references(workspace, findings);
    check_metric_names(workspace, findings);
}

/// Each registry constant needs ≥ 2 qualified references
/// (`ops::SUBMIT`) in live code outside the registry modules.
fn check_constant_references(workspace: &Workspace, findings: &mut Vec<Finding>) {
    let Some(protocol) = workspace.file(REGISTRY_FILE) else {
        return;
    };
    for module in ["ops", "kinds"] {
        let Some((mod_start, mod_end)) = super::protocol::module_block(protocol, module) else {
            continue; // R4 reports the missing module
        };
        for (name, name_at) in const_names(protocol, mod_start, mod_end) {
            let path = format!("{module}::{name}");
            let mut refs = 0usize;
            for file in &workspace.files {
                for at in file.code_occurrences(&path) {
                    // Qualified paths cannot occur inside the module
                    // (definitions are unqualified), but be precise.
                    if file.rel_path == REGISTRY_FILE && at >= mod_start && at < mod_end {
                        continue;
                    }
                    refs += 1;
                }
            }
            if refs >= 2 {
                continue;
            }
            let line = protocol.line_of(name_at);
            if protocol.allowed(Rule::RegistryDrift, line) {
                continue;
            }
            findings.push(protocol.finding(
                Rule::RegistryDrift,
                name_at,
                format!(
                    "wire word constant `{path}` is referenced {refs} time(s) outside the \
                     registry; both the encode and decode paths must name it (a word with \
                     fewer references is dead or half-wired)"
                ),
            ));
        }
    }
}

/// `(name, offset)` of each `const NAME` inside `[start, end)`.
fn const_names(file: &crate::model::SourceFile, start: usize, end: usize) -> Vec<(String, usize)> {
    let bytes = file.text.as_bytes();
    let mut out = Vec::new();
    for at in file.code_occurrences("const") {
        if at < start || at >= end {
            continue;
        }
        let mut i = at + "const".len();
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        let name_at = i;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        if i > name_at {
            out.push((file.text[name_at..i].to_string(), name_at));
        }
    }
    out
}

/// Interned `*_total` / `*_us` names must be in the DESIGN.md §9 table.
fn check_metric_names(workspace: &Workspace, findings: &mut Vec<Finding>) {
    let design_path = workspace.root.join("DESIGN.md");
    let Ok(design) = std::fs::read_to_string(&design_path) else {
        return; // fixture trees have no DESIGN.md
    };
    let documented: Vec<String> = super::telemetry::section9_names(&design)
        .into_iter()
        .map(|(_, name)| name)
        .collect();
    for file in &workspace.files {
        for call in METRIC_CALLS {
            for at in file.code_occurrences(call) {
                let after = at + call.len();
                let rest = file.text[after..].trim_start();
                if !rest.starts_with('(') {
                    continue;
                }
                let paren_at = after + (file.text[after..].len() - rest.len());
                let arg_at = skip_ws(&file.text, paren_at + 1);
                let Some(lit) = file.lexed.strings.iter().find(|s| s.start == arg_at) else {
                    continue; // dynamic name: not checkable textually
                };
                if !(lit.value.ends_with("_total") || lit.value.ends_with("_us")) {
                    continue;
                }
                if documented.contains(&lit.value) {
                    continue;
                }
                let line = file.line_of(at);
                if file.allowed(Rule::RegistryDrift, line) {
                    continue;
                }
                findings.push(file.finding(
                    Rule::RegistryDrift,
                    at,
                    format!(
                        "interned metric name {:?} is not documented in the DESIGN.md §9 \
                         table; add the row (dashboards key on that table)",
                        lit.value
                    ),
                ));
            }
        }
    }
}

fn skip_ws(text: &str, mut i: usize) -> usize {
    let bytes = text.as_bytes();
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceFile;

    fn workspace_of(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            root: std::path::PathBuf::from("/nonexistent"),
            files: files
                .iter()
                .map(|(p, t)| SourceFile::new(p.to_string(), t.to_string()))
                .collect(),
        }
    }

    const REGISTRY: &str = "
pub mod ops {
    pub const SUBMIT: &str = \"submit\";
    pub const PING: &str = \"ping\";
}
pub mod kinds {
    pub const PONG: &str = \"pong\";
}
fn encode(r: &Request) -> Json { tag(ops::SUBMIT, ops::PING, kinds::PONG) }
fn decode(v: &Json) -> Request { untag(ops::SUBMIT, ops::PING, kinds::PONG) }
";

    #[test]
    fn fully_wired_constants_are_clean() {
        let ws = workspace_of(&[("crates/service/src/protocol.rs", REGISTRY)]);
        let mut findings = Vec::new();
        check(&ws, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn a_half_wired_constant_is_drift() {
        let registry = "
pub mod ops {
    pub const SUBMIT: &str = \"submit\";
    pub const STATS: &str = \"stats\";
}
pub mod kinds { pub const RESULT: &str = \"result\"; }
fn encode() { tag(ops::SUBMIT, ops::STATS, kinds::RESULT); }
fn decode() { untag(ops::SUBMIT, kinds::RESULT); }
";
        let ws = workspace_of(&[("crates/service/src/protocol.rs", registry)]);
        let mut findings = Vec::new();
        check(&ws, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("ops::STATS"));
        assert!(findings[0].message.contains("referenced 1 time(s)"));
        assert_eq!(findings[0].line, 4, "anchored at the constant");
    }

    #[test]
    fn references_from_other_crates_count() {
        let registry = "
pub mod ops { pub const GATEWAY: &str = \"gateway\"; }
pub mod kinds { pub const PONG: &str = \"pong\"; }
fn encode() { tag(ops::GATEWAY, kinds::PONG); }
fn more() { t(kinds::PONG); }
";
        let gateway = "use mosaic_service::protocol::ops;\nfn route(op: &str) -> bool { op == ops::GATEWAY }\n";
        let ws = workspace_of(&[
            ("crates/service/src/protocol.rs", registry),
            ("crates/gateway/src/gateway.rs", gateway),
        ]);
        let mut findings = Vec::new();
        check(&ws, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn test_file_references_do_not_count() {
        let registry = "
pub mod ops { pub const PING: &str = \"ping\"; }
pub mod kinds { pub const PONG: &str = \"pong\"; }
fn encode() { tag(ops::PING); t(kinds::PONG); u(kinds::PONG); }
";
        let test = "fn ping() { assert_eq!(ops::PING, \"ping\"); }\n";
        let ws = workspace_of(&[
            ("crates/service/src/protocol.rs", registry),
            ("crates/service/tests/wire.rs", test),
        ]);
        let mut findings = Vec::new();
        check(&ws, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("ops::PING"));
    }
}
