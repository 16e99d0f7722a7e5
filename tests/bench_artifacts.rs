//! The committed benchmark expositions at the workspace root must stay
//! present and well-formed: `BENCH_search.json` is the PR-facing evidence
//! that Algorithm 2 on the pool's gang is no slower than one thread, and
//! CI gates on it (scripts/verify.sh), so a refactor that breaks the bench harness's
//! artifact writing — or a rename of the histogram names downstream
//! tooling keys on — should fail here, not after the numbers go stale.
//!
//! Regenerate with `cargo run --release -p mosaic-bench --bin bench -- \
//! --suite search` (the harness writes `out/` and copies to the root).

use photomosaic::Json;
use std::path::PathBuf;

fn root_artifact(name: &str) -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} must be committed at the workspace root: {e}", name));
    Json::parse(&text).unwrap_or_else(|e| panic!("{name} is not valid JSON: {e:?}"))
}

fn histogram<'a>(doc: &'a Json, name: &str) -> &'a Json {
    doc.get("histograms")
        .and_then(|h| h.get(name))
        .unwrap_or_else(|| panic!("exposition lost histogram {name:?}"))
}

fn min_us(doc: &Json, name: &str) -> u64 {
    let value = histogram(doc, name)
        .get("min")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("histogram {name:?} has no integer min"));
    assert!(value > 0, "{name} recorded a zero-length run");
    value
}

#[test]
fn search_exposition_exists_and_parses() {
    let doc = root_artifact("BENCH_search.json");
    let samples = doc
        .get("counters")
        .and_then(|c| c.get("bench_search_samples_total"))
        .and_then(Json::as_u64)
        .expect("sample counter missing");
    assert!(samples > 0, "exposition holds no samples");
}

#[test]
fn search_exposition_covers_both_strategies_at_both_scales() {
    let doc = root_artifact("BENCH_search.json");
    for s in [256u32, 1024] {
        for suffix in ["", "_sweep"] {
            let mut names = vec![format!("bench_search_reference{suffix}_s{s}_us")];
            for t in [2u32, 4] {
                names.push(format!("bench_search_pool{suffix}_s{s}_t{t}_us"));
            }
            for name in names {
                let count = histogram(&doc, &name)
                    .get("count")
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
                assert!(count > 0, "{name} has no recorded samples");
            }
        }
    }
}

#[test]
fn published_numbers_show_the_pool_no_slower_than_the_reference() {
    // The acceptance bar for Algorithm 2 on the pool's gang: at S = 1024
    // the 2-lane search (the bench host's CPU count) must not lose to
    // the single-thread reference it is bit-identical to. Compare
    // best-case (min) samples — the robust statistic the table prints,
    // immune to a noisy outlier inflating either side.
    let doc = root_artifact("BENCH_search.json");
    let pool = min_us(&doc, "bench_search_pool_s1024_t2_us");
    let reference = min_us(&doc, "bench_search_reference_s1024_us");
    assert!(
        pool <= reference,
        "the 2-lane gang search ({pool} us) lost to one thread ({reference} us) at S=1024"
    );
}

#[test]
fn tilelib_exposition_shows_pruning_beating_the_dense_solve() {
    // The PR-7 evidence: at every published library size the clustered
    // top-k pruning must solve faster than scoring-plus-solving the
    // dense rectangular instance, and the published pruned-vs-optimal
    // cost ratio must stay close to the dense optimum. Regenerate with
    // `cargo run --release -p mosaic-bench --bin bench -- --suite tilelib`.
    let doc = root_artifact("BENCH_tilelib.json");
    for t in [256u32, 512, 1024] {
        let sparse = min_us(&doc, &format!("bench_tilelib_solve_sparse_t{t}_us"));
        let dense = min_us(&doc, &format!("bench_tilelib_solve_dense_t{t}_us"));
        assert!(
            sparse <= dense,
            "pruned solve ({sparse} us) lost to the dense solve ({dense} us) at T={t}"
        );
        let ratio = min_us(&doc, &format!("bench_tilelib_cost_ratio_permille_t{t}_us"));
        assert!(
            (1000..2000).contains(&ratio),
            "pruned cost ratio {ratio} permille at T={t} is outside [1000, 2000)"
        );
    }
}

#[test]
fn error_matrix_exposition_shows_simd_beating_the_scalar_oracle() {
    // The PR-9 evidence: the runtime-dispatched SIMD kernel layer must
    // not lose to the forced-scalar oracle on the serial builder at
    // either published scale (S = 256 → M = 16 tiles, S = 1024 → M = 8).
    // Equality is allowed: a scalar-only host publishes identical arms.
    // Regenerate with `cargo run --release -p mosaic-bench --bin bench
    // -- --suite error_matrix`.
    let doc = root_artifact("BENCH_error_matrix.json");
    for s in [256u32, 1024] {
        let simd = min_us(&doc, &format!("bench_error_matrix_simd_s{s}_us"));
        let scalar = min_us(&doc, &format!("bench_error_matrix_scalar_s{s}_us"));
        assert!(
            simd <= scalar,
            "dispatched kernel ({simd} us) lost to the scalar oracle ({scalar} us) at S={s}"
        );
    }
}

#[test]
fn every_published_suite_exposition_parses() {
    for suite in [
        "error_matrix",
        "rearrange",
        "solvers",
        "ablations",
        "search",
        "tilelib",
    ] {
        let doc = root_artifact(&format!("BENCH_{suite}.json"));
        assert!(
            doc.get("histograms").is_some(),
            "BENCH_{suite}.json lost its histograms section"
        );
    }
}
