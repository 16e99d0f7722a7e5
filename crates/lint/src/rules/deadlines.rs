//! R8 — deadline propagation: a function that takes a `Deadline` must
//! hand it to every callee that takes one too, and actually consult it —
//! otherwise the bound silently evaporates somewhere down the pipeline
//! and the service's `job_deadline_ms` promise is fiction.
//!
//! A callee counts as bounded when the semantic model resolves it to a
//! function with a `Deadline` parameter, whatever its name (so
//! `augment(…, &Deadline)` is checked like any `*_bounded` fn), or when
//! its name promises a bound.
//!
//! Checks, in order of severity:
//! * a `*_bounded` function with no `Deadline` parameter (deny) — the
//!   name promises a bound the signature cannot keep;
//! * a call to a bounded callee that does not pass the caller's
//!   deadline parameter — the deadline is dropped (deny);
//! * a `Deadline` parameter never referenced in the body (deny);
//! * a `Deadline`-taking function whose loops never poll it (warn) —
//!   row/sweep loops are where a bound must be observable.

use crate::model::{Finding, Rule};
use crate::semantic::{CallSite, FnDef, Model};

/// Does this function name promise a bound? (The helper itself avoids
/// the naming convention it enforces.)
fn promises_deadline(name: &str) -> bool {
    name.ends_with("_bounded") || name.contains("_bounded_")
}

/// Must this call receive the caller's deadline? Yes when the callee
/// resolves to a function with a `Deadline` parameter, or its name
/// promises a bound.
fn callee_takes_deadline(model: &Model<'_>, call: &CallSite, from: usize) -> bool {
    promises_deadline(&call.name)
        || model
            .resolve(call, from)
            .is_some_and(|callee| model.fns[callee].deadline_param.is_some())
}

/// Run the rule over the prebuilt semantic model.
pub fn check(model: &Model<'_>, findings: &mut Vec<Finding>) {
    for (index, f) in model.fns.iter().enumerate() {
        let file = model.file_of(f);
        let fn_line = file.line_of(f.name_at);

        if promises_deadline(&f.name) && f.deadline_param.is_none() {
            if !file.allowed(Rule::DeadlinePropagation, fn_line) {
                findings.push(file.finding(
                    Rule::DeadlinePropagation,
                    f.name_at,
                    format!(
                        "`{}` is *_bounded-named but takes no Deadline parameter; \
                         accept and forward the deadline or rename the function",
                        f.name
                    ),
                ));
            }
            continue;
        }
        let Some(param) = &f.deadline_param else {
            continue;
        };

        let refs = references_in(f, model, param);
        if refs.is_empty() {
            if !file.allowed(Rule::DeadlinePropagation, fn_line) {
                findings.push(file.finding(
                    Rule::DeadlinePropagation,
                    f.name_at,
                    format!(
                        "`{}` accepts Deadline `{param}` but never consults or forwards it — \
                         the bound is dead on arrival",
                        f.name
                    ),
                ));
            }
            continue;
        }

        for call in &f.calls {
            if !callee_takes_deadline(model, call, index) {
                continue;
            }
            if word_in(&call.args, param) {
                continue;
            }
            let line = file.line_of(call.at);
            if file.allowed(Rule::DeadlinePropagation, line) {
                continue;
            }
            findings.push(file.finding(
                Rule::DeadlinePropagation,
                call.at,
                format!(
                    "call to bounded `{}` drops the deadline: pass `{param}` through \
                     instead of letting the callee run unbounded",
                    call.name
                ),
            ));
        }

        if !f.loops.is_empty()
            && !refs.iter().any(|&at| inside_any(at, &f.loops))
            && !file.allowed(Rule::DeadlinePropagation, fn_line)
        {
            findings.push(
                file.finding(
                    Rule::DeadlinePropagation,
                    f.name_at,
                    format!(
                        "`{}` loops without polling `{param}`; check the deadline inside \
                         row/sweep loops so the bound stays observable",
                        f.name
                    ),
                )
                .warn(),
            );
        }
    }
}

/// Byte offsets of every live-code reference to `param` inside the body.
fn references_in(f: &FnDef, model: &Model<'_>, param: &str) -> Vec<usize> {
    model
        .file_of(f)
        .code_occurrences(param)
        .into_iter()
        .filter(|&at| at > f.body.0 && at < f.body.1)
        .collect()
}

fn inside_any(at: usize, ranges: &[(usize, usize)]) -> bool {
    ranges.iter().any(|&(s, e)| at > s && at < e)
}

/// Whole-word containment (`deadline` in `&deadline, x` but not in
/// `self.deadline_ms`).
fn word_in(haystack: &str, word: &str) -> bool {
    let bytes = haystack.as_bytes();
    let mut from = 0;
    while let Some(rel) = haystack[from..].find(word) {
        let at = from + rel;
        from = at + 1;
        let before_ok = at == 0 || !ident_byte(bytes[at - 1]);
        let after = at + word.len();
        let after_ok = after >= bytes.len() || !ident_byte(bytes[after]);
        let not_field = at == 0 || bytes[at - 1] != b'.';
        if before_ok && after_ok && not_field {
            return true;
        }
    }
    false
}

fn ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceFile;
    use crate::walk::Workspace;

    fn findings_for(text: &str) -> Vec<Finding> {
        let ws = Workspace {
            root: std::path::PathBuf::from("/nonexistent"),
            files: vec![SourceFile::new(
                "crates/demo/src/lib.rs".to_string(),
                text.to_string(),
            )],
        };
        let model = Model::build(&ws);
        let mut findings = Vec::new();
        check(&model, &mut findings);
        findings
    }

    #[test]
    fn a_bounded_function_without_a_deadline_is_flagged() {
        let text = "pub fn generate_bounded(cfg: &Config) -> Result<(), Error> { run(cfg) }\n";
        let findings = findings_for(text);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("no Deadline parameter"));
    }

    #[test]
    fn dropping_the_deadline_at_a_bounded_callee_is_flagged() {
        let text = "pub fn outer_bounded(cfg: &Config, deadline: &Deadline) -> R {\n\
                    \x20   deadline.check()?;\n\
                    \x20   inner_bounded(cfg)\n\
                    }\n\
                    pub fn inner_bounded(cfg: &Config) -> R { todo(cfg) }\n";
        let findings = findings_for(text);
        // line 3: the dropped forward; line 5: inner_bounded itself has
        // no Deadline parameter.
        let drop = findings
            .iter()
            .find(|f| f.message.contains("drops the deadline"))
            .expect("drop finding");
        assert_eq!(drop.line, 3);
        assert!(drop.message.contains("inner_bounded"));
        assert_eq!(findings.len(), 2, "{findings:?}");
    }

    #[test]
    fn forwarding_and_polling_is_clean() {
        let text = "pub fn outer_bounded(cfg: &Config, deadline: &Deadline) -> R {\n\
                    \x20   for row in 0..cfg.rows {\n\
                    \x20       if deadline.expired() { return Err(cancelled()); }\n\
                    \x20       inner_bounded(cfg, row, deadline)?;\n\
                    \x20   }\n\
                    \x20   Ok(())\n\
                    }\n\
                    pub fn inner_bounded(cfg: &Config, row: usize, deadline: &Deadline) -> R {\n\
                    \x20   deadline.check()\n\
                    }\n";
        assert!(findings_for(text).is_empty(), "{:?}", findings_for(text));
    }

    #[test]
    fn an_unused_deadline_parameter_is_dead_on_arrival() {
        let text = "pub fn run_bounded(cfg: &Config, deadline: &Deadline) -> R { run(cfg) }\n";
        let findings = findings_for(text);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("never consults"));
    }

    #[test]
    fn loops_that_never_poll_warn() {
        let text = "pub fn sweep_bounded(cfg: &Config, deadline: &Deadline) -> R {\n\
                    \x20   deadline.check()?;\n\
                    \x20   for row in 0..cfg.rows {\n\
                    \x20       process(row);\n\
                    \x20   }\n\
                    \x20   Ok(())\n\
                    }\n";
        let findings = findings_for(text);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].severity, crate::model::Severity::Warn);
        assert!(findings[0].message.contains("loops without polling"));
    }

    /// Boundedness is keyed on the resolved callee's signature, not its
    /// name: a plain-named search that takes a `Deadline` is checked too.
    #[test]
    fn dropping_the_deadline_at_a_plain_named_deadline_taker_is_flagged() {
        let text = "pub fn step3_bounded(m: &M, deadline: &Deadline) -> R {\n\
                    \x20   deadline.check()?;\n\
                    \x20   augment(m, 7, &Deadline::NONE)\n\
                    }\n\
                    pub fn augment(m: &M, row: usize, deadline: &Deadline) -> R {\n\
                    \x20   deadline.check()\n\
                    }\n";
        let findings = findings_for(text);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 3);
        assert!(findings[0].message.contains("`augment`"));
        assert!(findings[0].message.contains("drops the deadline"));
    }

    /// A plain-named callee without a `Deadline` parameter has nothing
    /// to forward to.
    #[test]
    fn plain_callees_without_a_deadline_parameter_are_not_checked() {
        let text = "pub fn outer(m: &M, deadline: &Deadline) -> R {\n\
                    \x20   deadline.check()?;\n\
                    \x20   helper(m)\n\
                    }\n\
                    pub fn helper(m: &M) -> R { run(m) }\n";
        assert!(findings_for(text).is_empty(), "{:?}", findings_for(text));
    }

    /// A call the model cannot resolve is still checked by its name.
    #[test]
    fn unresolved_bounded_names_are_still_checked() {
        let text = "pub fn outer(m: &M, deadline: &Deadline) -> R {\n\
                    \x20   deadline.check()?;\n\
                    \x20   external::solve_bounded(m)\n\
                    }\n";
        let findings = findings_for(text);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("solve_bounded"));
    }

    #[test]
    fn unbounded_wrappers_passing_deadline_none_are_exempt() {
        let text = "pub fn generate(cfg: &Config) -> R {\n\
                    \x20   generate_bounded(cfg, &Deadline::NONE)\n\
                    }\n\
                    pub fn generate_bounded(cfg: &Config, deadline: &Deadline) -> R {\n\
                    \x20   deadline.check()\n\
                    }\n";
        assert!(findings_for(text).is_empty(), "{:?}", findings_for(text));
    }
}
