//! R6 — lock ordering: propagate per-function lock-acquisition sets
//! along the call graph into a global lock-order graph and report every
//! cycle as a potential AB-BA deadlock, naming both acquisition sites.
//!
//! An edge `A → B` means: somewhere, a guard for `A` is lexically held
//! while `B` is acquired — directly, or transitively through a resolved
//! callee (the callee's `may_acquire` set). A cycle in that graph means
//! two threads can block on each other's held mutex. A self-edge
//! (`A → A`) is the degenerate case: re-acquiring a non-reentrant
//! `Mutex` on the same thread deadlocks unconditionally.

use crate::model::{Finding, Rule};
use crate::semantic::{Model, SiteRef};
use std::collections::{BTreeMap, BTreeSet};

/// Run the rule over the prebuilt semantic model.
pub fn check(model: &Model<'_>, findings: &mut Vec<Finding>) {
    // (held lock, acquired lock) → (outer site, inner site), first wins.
    let mut edges: BTreeMap<(String, String), (SiteRef, SiteRef)> = BTreeMap::new();

    for (i, f) in model.fns.iter().enumerate() {
        for acquire in &f.acquires {
            let outer = SiteRef {
                file: f.file,
                at: acquire.at,
            };
            // Direct nested acquisitions inside this guard's hold.
            for other in &f.acquires {
                if other.at > acquire.hold.0 && other.at < acquire.hold.1 {
                    let inner = SiteRef {
                        file: f.file,
                        at: other.at,
                    };
                    edges
                        .entry((acquire.lock.clone(), other.lock.clone()))
                        .or_insert((outer, inner));
                }
            }
            // Transitive: calls under the hold bring in the callee's
            // whole may-acquire set. Calls on the guard binding itself
            // (`guard.push(..)`) are container methods, not lock users.
            for call in &f.calls {
                if call.at <= acquire.hold.0 || call.at >= acquire.hold.1 {
                    continue;
                }
                if let (Some(receiver), Some(binding)) = (&call.receiver, &acquire.binding) {
                    if receiver.split('.').next() == Some(binding.as_str()) {
                        continue;
                    }
                }
                let Some(j) = model.resolve(call, i) else {
                    continue;
                };
                for (lock, site) in &model.may_acquire[j] {
                    edges
                        .entry((acquire.lock.clone(), lock.clone()))
                        .or_insert((outer, *site));
                }
            }
        }
    }

    // Reachability closure over the acquired-while-held graph.
    let locks: BTreeSet<&String> = edges.keys().flat_map(|(a, b)| [a, b]).collect();
    let mut reach: BTreeMap<&String, BTreeSet<&String>> = BTreeMap::new();
    for &lock in &locks {
        let mut seen: BTreeSet<&String> = BTreeSet::new();
        let mut frontier = vec![lock];
        while let Some(cur) = frontier.pop() {
            for ((from, to), _) in edges.iter() {
                if from == cur && seen.insert(to) {
                    frontier.push(to);
                }
            }
        }
        reach.insert(lock, seen);
    }

    for ((from, to), (outer, inner)) in &edges {
        let cyclic = if from == to {
            true
        } else {
            reach.get(to).is_some_and(|set| set.contains(from))
        };
        if !cyclic {
            continue;
        }
        let outer_file = &model.workspace.files[outer.file];
        let inner_file = &model.workspace.files[inner.file];
        let line = outer_file.line_of(outer.at);
        if outer_file.allowed(Rule::LockOrder, line) {
            continue;
        }
        let message = if from == to {
            format!(
                "lock {from} is re-acquired at {}:{} while the guard taken at {}:{} \
                 is still held — a non-reentrant Mutex self-deadlock",
                inner_file.rel_path,
                inner_file.line_of(inner.at),
                outer_file.rel_path,
                line,
            )
        } else {
            // Name the acquisition site of the return path's first hop
            // so both halves of the AB-BA pair are in the message.
            let back = edges
                .iter()
                .find(|((f2, t2), _)| f2 == to && (t2 == from || reach[t2].contains(from)))
                .map(|(_, (o2, _))| {
                    let f = &model.workspace.files[o2.file];
                    format!("{}:{}", f.rel_path, f.line_of(o2.at))
                })
                .unwrap_or_else(|| "an unresolved path".to_string());
            format!(
                "lock order cycle: {from} (held from {}:{}) is held while acquiring {to} \
                 at {}:{}, but {to} is also held while (transitively) acquiring {from} \
                 (via the hold at {back}) — potential AB-BA deadlock",
                outer_file.rel_path,
                line,
                inner_file.rel_path,
                inner_file.line_of(inner.at),
            )
        };
        findings.push(outer_file.finding(Rule::LockOrder, outer.at, message));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceFile;
    use crate::walk::Workspace;

    fn findings_for(files: &[(&str, &str)]) -> Vec<Finding> {
        let ws = Workspace {
            root: std::path::PathBuf::from("/nonexistent"),
            files: files
                .iter()
                .map(|(p, t)| SourceFile::new(p.to_string(), t.to_string()))
                .collect(),
        };
        let model = Model::build(&ws);
        let mut findings = Vec::new();
        check(&model, &mut findings);
        findings
    }

    // Lock identity is file-qualified (`demo/lib.alpha`), matching the
    // workspace convention that each mutex has one home file — so the
    // fixtures keep both acquisition orders in one file.
    const AB: &str = "pub fn transfer(s: &S) {\n\
                      \x20   let a = lock_unpoisoned(&s.alpha);\n\
                      \x20   let b = lock_unpoisoned(&s.beta);\n\
                      \x20   use_both(&a, &b);\n\
                      }\n";
    const BA: &str = "pub fn settle(s: &S) {\n\
                      \x20   let b = lock_unpoisoned(&s.beta);\n\
                      \x20   let a = lock_unpoisoned(&s.alpha);\n\
                      \x20   use_both(&a, &b);\n\
                      }\n";

    #[test]
    fn an_ab_ba_pair_is_a_cycle_with_both_sites_named() {
        let text = format!("{AB}{BA}");
        let findings = findings_for(&[("crates/demo/src/lib.rs", &text)]);
        assert_eq!(findings.len(), 2, "{findings:?}");
        let ab = findings.iter().find(|f| f.line == 2).expect("ab finding");
        assert!(ab.message.contains("lib.rs:3"), "{}", ab.message);
        assert!(ab.message.contains("lib.rs:7"), "{}", ab.message);
        assert!(findings.iter().any(|f| f.line == 7), "{findings:?}");
    }

    #[test]
    fn consistent_ordering_is_clean() {
        let same_order = "pub fn settle(s: &S) {\n\
                          \x20   let a = lock_unpoisoned(&s.alpha);\n\
                          \x20   let b = lock_unpoisoned(&s.beta);\n\
                          \x20   use_both(&a, &b);\n\
                          }\n";
        let text = format!("{AB}{same_order}");
        let findings = findings_for(&[("crates/demo/src/lib.rs", &text)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn cycles_through_a_callee_are_detected() {
        let text = format!(
            "pub fn outer(s: &S) {{\n\
             \x20   let a = lock_unpoisoned(&s.alpha);\n\
             \x20   helper(s);\n\
             \x20   drop(a);\n\
             }}\n\
             fn helper(s: &S) {{ let _b = lock_unpoisoned(&s.beta); }}\n\
             {BA}"
        );
        let findings = findings_for(&[("crates/demo/src/lib.rs", &text)]);
        assert!(
            findings.iter().any(|f| f.line == 2),
            "the alpha hold that transitively takes beta: {findings:?}"
        );
    }

    #[test]
    fn sequential_acquisition_after_drop_is_not_nesting() {
        let sequential = "pub fn two_phase(s: &S) {\n\
                          \x20   let b = lock_unpoisoned(&s.beta);\n\
                          \x20   drop(b);\n\
                          \x20   let a = lock_unpoisoned(&s.alpha);\n\
                          \x20   use_it(&a);\n\
                          }\n";
        let text = format!("{AB}{sequential}");
        let findings = findings_for(&[("crates/demo/src/lib.rs", &text)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn reentrant_self_acquisition_is_a_self_deadlock() {
        let text = "pub fn oops(s: &S) {\n\
                    \x20   let a = lock_unpoisoned(&s.state);\n\
                    \x20   let b = lock_unpoisoned(&s.state);\n\
                    \x20   use_both(&a, &b);\n\
                    }\n";
        let findings = findings_for(&[("crates/demo/src/lib.rs", text)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("self-deadlock"));
        assert!(
            findings[0].message.contains("lib.rs:3"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn a_justified_allow_suppresses_the_cycle() {
        let allowed = "pub fn settle(s: &S) {\n\
                       \x20   // lint:allow(lock-order) startup-only path, single-threaded\n\
                       \x20   let b = lock_unpoisoned(&s.beta);\n\
                       \x20   let a = lock_unpoisoned(&s.alpha);\n\
                       \x20   use_both(&a, &b);\n\
                       }\n";
        let text = format!("{AB}{allowed}");
        let findings = findings_for(&[("crates/demo/src/lib.rs", &text)]);
        // The settle half is suppressed; the transfer half still reports
        // the cycle (each direction needs its own justification).
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 2);
    }
}
