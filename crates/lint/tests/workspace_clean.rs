//! The lint's own acceptance test: the real workspace has zero
//! non-baselined findings (deny *and* warn), the JSON report
//! round-trips through the workspace's own `Json` reader, and the
//! semantic model actually sees the workspace's functions and locks —
//! a silently empty call graph would make the interprocedural rules
//! vacuously "clean".

use mosaic_lint::semantic::Model;
use mosaic_lint::{analyze, report_json, Baseline, Severity, Workspace};
use photomosaic::Json;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn the_workspace_is_lint_clean() {
    let root = workspace_root();
    let findings = analyze(&root).expect("workspace sources are readable");
    let baseline_text = std::fs::read_to_string(root.join("lint-baseline.json"))
        .expect("lint-baseline.json is committed at the workspace root");
    let baseline = Baseline::parse(&baseline_text).expect("committed baseline parses");
    let (fresh, _grandfathered) = baseline.partition(findings);
    let deny: Vec<_> = fresh
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .collect();
    assert!(
        deny.is_empty(),
        "non-baselined deny findings:\n{}",
        mosaic_lint::render_text(&fresh)
    );
    // Hold the bar at zero warns too: a warn that should stay must be
    // baselined or suppressed with a written reason, not accumulated.
    assert!(
        fresh.is_empty(),
        "non-baselined warn findings:\n{}",
        mosaic_lint::render_text(&fresh)
    );
}

#[test]
fn the_semantic_model_sees_the_real_workspace() {
    let root = workspace_root();
    let workspace = Workspace::load(&root).expect("workspace sources are readable");
    let model = Model::build(&workspace);
    assert!(
        model.fns.len() > 100,
        "expected hundreds of indexed functions, got {}",
        model.fns.len()
    );
    let acquires: usize = model.fns.iter().map(|f| f.acquires.len()).sum();
    assert!(
        acquires >= 10,
        "expected the workspace's lock_unpoisoned sites to be modeled, got {acquires}"
    );
    // The known mutexes resolve to their canonical identities.
    let locks: std::collections::BTreeSet<&str> = model
        .fns
        .iter()
        .flat_map(|f| f.acquires.iter().map(|a| a.lock.as_str()))
        .collect();
    for expected in [
        "pool/lib.state",
        "service/queue.inner",
        "service/cache.inner",
    ] {
        assert!(locks.contains(expected), "missing {expected} in {locks:?}");
    }
    // Deadline threading is visible: bounded pipeline entry points carry
    // their parameter.
    assert!(
        model
            .fns
            .iter()
            .any(|f| f.name == "generate_bounded_in" && f.deadline_param.is_some()),
        "generate_bounded_in's Deadline parameter should be modeled"
    );
}

#[test]
fn the_report_parses_with_the_workspace_json_reader() {
    let root = workspace_root();
    let findings = analyze(&root).expect("workspace sources are readable");
    let count = findings.len();
    let report = report_json(&findings, &[], 0, 12).encode();
    let back = Json::parse(&report).expect("LINT.json shape parses");
    assert_eq!(
        back.get("summary")
            .and_then(|s| s.get("findings"))
            .and_then(Json::as_u64),
        Some(count as u64)
    );
    assert_eq!(
        back.get("summary")
            .and_then(|s| s.get("analysis_ms"))
            .and_then(Json::as_u64),
        Some(12)
    );
    assert_eq!(
        back.get("findings")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(count)
    );
}
