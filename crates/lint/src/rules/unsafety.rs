//! R3 — unsafe hygiene: every `unsafe` block carries a `// SAFETY:`
//! comment immediately above it, and every compilation target that is
//! free of `unsafe` declares `#![forbid(unsafe_code)]` so it stays
//! that way under refactoring.

use crate::model::{Finding, Rule, SourceFile};
use crate::walk::{crate_prefix, is_library_code, is_target_root, Workspace};

/// How many lines above an `unsafe` the `// SAFETY:` comment may sit.
const SAFETY_COMMENT_WINDOW: usize = 3;

/// Run the rule.
pub fn check(workspace: &Workspace, findings: &mut Vec<Finding>) {
    for file in &workspace.files {
        for at in file.code_occurrences("unsafe") {
            let line = file.line_of(at);
            if file.allowed(Rule::UnsafeHygiene, line) {
                continue;
            }
            if !has_safety_comment(file, line) {
                findings.push(file.finding(
                    Rule::UnsafeHygiene,
                    at,
                    format!(
                        "unsafe without a // SAFETY: comment within the {SAFETY_COMMENT_WINDOW} \
                         preceding lines"
                    ),
                ));
            }
        }
    }

    for file in &workspace.files {
        if !is_target_root(&file.rel_path) {
            continue;
        }
        if target_has_unsafe(workspace, file) {
            continue;
        }
        let has_attr = file.code_occurrences("forbid").iter().any(|&at| {
            file.text[at..]
                .trim_start_matches("forbid")
                .trim_start()
                .starts_with("(unsafe_code)")
        });
        if !has_attr && !file.allowed(Rule::UnsafeHygiene, 1) {
            findings.push(Finding {
                rule: Rule::UnsafeHygiene,
                severity: Rule::UnsafeHygiene.default_severity(),
                file: file.rel_path.clone(),
                line: 1,
                message: "unsafe-free target must declare #![forbid(unsafe_code)]".to_string(),
                snippet: String::from("(crate attributes)"),
            });
        }
    }

    check_unsafe_pin(workspace, findings);
}

/// The committed workspace unsafe-site count. Every new `unsafe`
/// occurrence (a SIMD intrinsic site, a transmute, an `unsafe impl`)
/// must bump this pin in the same change that adds it — drift in either
/// direction is a finding, so deletions are accounted for too.
///
/// Current sites: 1 in `mosaic-pool` (the lane-lifetime transmute in
/// `with_lanes`), 7 in `mosaic-image` (3 `unsafe fn` AVX2 kernels, 2
/// dispatch wrappers, 2 `Pixel::row_bytes` layout casts),
/// and 8 in `mosaic-service` (the epoll shim: the raw `syscall4`
/// asm thunk plus its seven call sites — epoll_create1, epoll_ctl,
/// epoll_wait, eventfd2, eventfd read/write, close).
const EXPECTED_UNSAFE_SITES: usize = 16;

/// The pin only applies to the real workspace, recognized by the crate
/// that owns today's unsafe sites; fixture trees are exempt.
const PIN_SENTINEL: &str = "crates/pool/src/lib.rs";

/// Count live `unsafe` occurrences across the workspace and compare
/// against [`EXPECTED_UNSAFE_SITES`].
fn check_unsafe_pin(workspace: &Workspace, findings: &mut Vec<Finding>) {
    if workspace.file(PIN_SENTINEL).is_none() {
        return;
    }
    let count: usize = workspace
        .files
        .iter()
        .map(|f| f.code_occurrences("unsafe").len())
        .sum();
    if count == EXPECTED_UNSAFE_SITES {
        return;
    }
    findings.push(Finding {
        rule: Rule::UnsafeHygiene,
        severity: Rule::UnsafeHygiene.default_severity(),
        file: String::from("(workspace)"),
        line: 1,
        message: format!(
            "workspace has {count} live unsafe site(s) but the committed pin expects \
             {EXPECTED_UNSAFE_SITES}; audit the added/removed sites and update \
             EXPECTED_UNSAFE_SITES in crates/lint/src/rules/unsafety.rs"
        ),
        snippet: String::from("(unsafe-site pin)"),
    });
}

/// A `// SAFETY:` comment on the same line or within the window above.
fn has_safety_comment(file: &SourceFile, line: usize) -> bool {
    file.lexed.comments.iter().any(|c| {
        if !c.text.contains("SAFETY:") {
            return false;
        }
        let comment_line = file.line_of(c.start);
        comment_line <= line && line <= comment_line + SAFETY_COMMENT_WINDOW
    })
}

/// Does the compilation target rooted at `root_file` contain live
/// `unsafe`? A crate `lib.rs` covers every library file of its crate;
/// a binary or example is a single file.
fn target_has_unsafe(workspace: &Workspace, root_file: &SourceFile) -> bool {
    let single_file = !root_file.rel_path.ends_with("/lib.rs");
    if single_file {
        return !root_file.code_occurrences("unsafe").is_empty();
    }
    let prefix = crate_prefix(&root_file.rel_path);
    workspace.files.iter().any(|f| {
        crate_prefix(&f.rel_path) == prefix
            && is_library_code(&f.rel_path)
            && !f.code_occurrences("unsafe").is_empty()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceFile;

    fn findings_for(files: &[(&str, &str)]) -> Vec<Finding> {
        let ws = Workspace {
            root: std::path::PathBuf::from("."),
            files: files
                .iter()
                .map(|(p, t)| SourceFile::new(p.to_string(), t.to_string()))
                .collect(),
        };
        let mut findings = Vec::new();
        check(&ws, &mut findings);
        findings
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let text = "#![forbid(unsafe_code)]\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        // (forbid + unsafe cannot actually coexist, but the lint checks
        // text, and the missing SAFETY comment is the finding.)
        let findings = findings_for(&[("crates/demo/src/util.rs", text)]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("SAFETY"));
    }

    #[test]
    fn safety_comment_satisfies_the_rule() {
        let text = "fn f(p: *const u8) -> u8 {\n    // SAFETY: p is non-null, produced by Box::into_raw above\n    unsafe { *p }\n}\n";
        let findings = findings_for(&[("crates/demo/src/util.rs", text)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unsafe_free_targets_need_the_forbid_attribute() {
        let lib = "pub fn f() {}\n";
        let findings = findings_for(&[("crates/demo/src/lib.rs", lib)]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("forbid(unsafe_code)"));

        let lib_ok = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(findings_for(&[("crates/demo/src/lib.rs", lib_ok)]).is_empty());
    }

    #[test]
    fn targets_with_unsafe_are_not_asked_to_forbid_it() {
        let lib = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        let util = "pub fn g(p: *const u8) -> u8 {\n    // SAFETY: caller contract\n    unsafe { *p }\n}\n";
        // lib.rs's target includes util.rs, which has unsafe — so the
        // (contradictory) forbid requirement is waived for the crate;
        // remove lib.rs's attribute and nothing should fire.
        let lib_no_attr = "pub fn f() {}\n";
        let findings = findings_for(&[
            ("crates/demo/src/lib.rs", lib_no_attr),
            ("crates/demo/src/util.rs", util),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
        let findings = findings_for(&[
            ("crates/demo/src/lib.rs", lib),
            ("crates/demo/src/util.rs", util),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn non_root_files_do_not_need_the_attribute() {
        let findings = findings_for(&[("crates/demo/src/helper.rs", "pub fn f() {}\n")]);
        assert!(findings.is_empty());
    }

    #[test]
    fn the_unsafe_site_pin_catches_drift_in_both_directions() {
        // A stand-in pool lib.rs with exactly the pinned number of
        // sites, each with its SAFETY comment, is clean.
        let site = "// SAFETY: documented invariant\nunsafe { op() };\n";
        let pinned = format!("fn f() {{\n{}\n}}\n", site.repeat(EXPECTED_UNSAFE_SITES));
        let findings = findings_for(&[("crates/pool/src/lib.rs", &pinned)]);
        assert!(findings.is_empty(), "{findings:?}");

        // One extra site anywhere in the workspace trips the pin.
        let extra = "pub fn g(p: *const u8) -> u8 {\n    // SAFETY: caller contract\n    unsafe { *p }\n}\n";
        let findings = findings_for(&[
            ("crates/pool/src/lib.rs", &pinned),
            ("crates/demo/src/helper.rs", extra),
        ]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("unsafe site(s)"));

        // One fewer site trips it too: deletions must update the pin.
        let short = format!(
            "fn f() {{\n{}\n}}\n",
            site.repeat(EXPECTED_UNSAFE_SITES - 1)
        );
        let findings = findings_for(&[("crates/pool/src/lib.rs", &short)]);
        assert_eq!(findings.len(), 1, "{findings:?}");

        // Fixture trees without the sentinel file are exempt.
        let findings = findings_for(&[("crates/demo/src/helper.rs", extra)]);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
