//! Fixture-driven rule tests: each fixture file under `tests/fixtures/`
//! is fed to the analyzer under a library-crate path, and the findings
//! are asserted down to the exact rule, file, and line.

use mosaic_lint::{analyze_sources, Finding, Rule};

/// Path the fixtures are analyzed under: library code, not a target
/// root, so only the rule under test fires (no crate-attribute checks).
const LIB_PATH: &str = "crates/fixture/src/util.rs";

fn analyze_fixture(text: &str) -> Vec<Finding> {
    analyze_sources(vec![(LIB_PATH.to_string(), text.to_string())])
}

fn lines_of(findings: &[Finding], rule: Rule) -> Vec<usize> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .inspect(|f| assert_eq!(f.file, LIB_PATH))
        .map(|f| f.line)
        .collect()
}

#[test]
fn lock_fixture_findings_are_exact() {
    let findings = analyze_fixture(include_str!("fixtures/lock_violations.rs"));
    assert_eq!(
        lines_of(&findings, Rule::LockDiscipline),
        vec![13, 19, 20],
        "raw .lock() x2 plus one inline PoisonError recovery: {findings:?}"
    );
    // The .unwrap() chained onto the first raw lock is a separate
    // panic-free finding; nothing else fires.
    assert_eq!(lines_of(&findings, Rule::PanicFree), vec![13]);
    assert_eq!(findings.len(), 4, "{findings:?}");
}

#[test]
fn panic_fixture_findings_are_exact() {
    let findings = analyze_fixture(include_str!("fixtures/panic_violations.rs"));
    assert_eq!(
        lines_of(&findings, Rule::PanicFree),
        vec![5, 7, 16],
        "panic!, bare .unwrap(), and the reasonless allow's site: {findings:?}"
    );
    // The justified site (line 12) is suppressed; the reasonless
    // lint:allow on line 16 is itself a finding.
    assert_eq!(lines_of(&findings, Rule::Suppression), vec![16]);
    assert_eq!(findings.len(), 4, "{findings:?}");
}

#[test]
fn unsafe_fixture_findings_are_exact() {
    let findings = analyze_fixture(include_str!("fixtures/unsafe_violations.rs"));
    assert_eq!(
        lines_of(&findings, Rule::UnsafeHygiene),
        vec![11],
        "only the undocumented unsafe block: {findings:?}"
    );
    assert_eq!(findings.len(), 1, "{findings:?}");
}

#[test]
fn deadlock_fixture_names_both_acquisition_sites() {
    let findings = analyze_fixture(include_str!("fixtures/deadlock_violations.rs"));
    assert_eq!(
        lines_of(&findings, Rule::LockOrder),
        vec![6, 12],
        "the alpha-then-beta hold and the beta-then-alpha hold: {findings:?}"
    );
    let ab = findings.iter().find(|f| f.line == 6).expect("ab finding");
    assert!(
        ab.message.contains("util.rs:7") && ab.message.contains("util.rs:12"),
        "both halves of the cycle are named: {}",
        ab.message
    );
    assert_eq!(findings.len(), 2, "{findings:?}");
}

#[test]
fn blocking_fixture_flags_the_recv_under_the_guard() {
    let findings = analyze_fixture(include_str!("fixtures/blocking_violations.rs"));
    assert_eq!(
        lines_of(&findings, Rule::BlockingUnderLock),
        vec![7],
        "the channel recv while the queue guard is live: {findings:?}"
    );
    let f = &findings[0];
    assert!(
        f.message.contains("fixture/util.queue") && f.message.contains("line 6"),
        "the finding names the lock and its acquisition line: {}",
        f.message
    );
    assert_eq!(findings.len(), 1, "{findings:?}");
}

#[test]
fn deadline_fixture_flags_the_dropped_forward() {
    let findings = analyze_fixture(include_str!("fixtures/deadline_violations.rs"));
    assert_eq!(
        lines_of(&findings, Rule::DeadlinePropagation),
        vec![9, 12, 18],
        "the two unforwarded calls and the parameterless bounded callee: {findings:?}"
    );
    for (line, callee) in [(9, "`inner_bounded`"), (18, "`solve_jv_bounded`")] {
        let dropped = findings
            .iter()
            .find(|f| f.line == line)
            .expect("drop finding");
        assert!(
            dropped.message.contains("drops the deadline") && dropped.message.contains(callee),
            "{}",
            dropped.message
        );
    }
    assert_eq!(findings.len(), 3, "{findings:?}");
}

#[test]
fn registry_drift_fixture_flags_the_half_wired_constant() {
    // This fixture must sit at the registry's real path: R9 only reads
    // the wire registry from `crates/service/src/protocol.rs`.
    let findings = analyze_sources(vec![(
        "crates/service/src/protocol.rs".to_string(),
        include_str!("fixtures/registry_drift.rs").to_string(),
    )]);
    let drift: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::RegistryDrift)
        .collect();
    assert_eq!(drift.len(), 1, "{findings:?}");
    assert_eq!(drift[0].line, 8);
    assert!(
        drift[0].message.contains("ops::CANCEL"),
        "{}",
        drift[0].message
    );
}

#[test]
fn fixtures_under_tests_are_invisible_to_the_real_scan() {
    // The same fixture text analyzed under its actual tests/ path
    // produces nothing: whole-file test exemption.
    let findings = analyze_sources(vec![(
        "crates/lint/tests/fixtures/lock_violations.rs".to_string(),
        include_str!("fixtures/lock_violations.rs").to_string(),
    )]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn unknown_tags_are_flagged() {
    let findings = analyze_fixture(
        "pub fn f() {\n    // lint:allow(warp) tags must come from the rule set\n    let _ = 1;\n}\n",
    );
    assert_eq!(lines_of(&findings, Rule::Suppression), vec![2]);
    assert_eq!(findings.len(), 1, "{findings:?}");
}
