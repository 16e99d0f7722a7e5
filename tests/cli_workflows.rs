//! Integration tests driving the `mosaic` CLI end-to-end (library entry
//! point, no subprocess): synth → generate → compare workflows on real
//! files.

use std::path::PathBuf;

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mosaic_cli_workflows").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    mosaic_cli::run(&argv).map_err(|e| e.to_string())
}

#[test]
fn synth_generate_compare_workflow() {
    let dir = workdir("full");
    let input = dir.join("input.pgm");
    let target = dir.join("target.pgm");
    let out = dir.join("mosaic.pgm");

    run(&[
        "synth",
        "--scene",
        "portrait",
        "--size",
        "64",
        "--seed",
        "1",
        "--out",
        input.to_str().unwrap(),
    ])
    .unwrap();
    run(&[
        "synth",
        "--scene",
        "regatta",
        "--size",
        "64",
        "--seed",
        "2",
        "--out",
        target.to_str().unwrap(),
    ])
    .unwrap();

    let msg = run(&[
        "generate",
        "--input",
        input.to_str().unwrap(),
        "--target",
        target.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--grid",
        "8",
        "--backend",
        "serial",
    ])
    .unwrap();
    assert!(msg.contains("error="), "summary missing: {msg}");
    assert!(out.exists());

    // The mosaic must be closer to the target than the raw input is.
    let mosaic_vs_target =
        run(&["compare", out.to_str().unwrap(), target.to_str().unwrap()]).unwrap();
    let input_vs_target =
        run(&["compare", input.to_str().unwrap(), target.to_str().unwrap()]).unwrap();
    let sad = |s: &str| -> u64 {
        s.lines()
            .find(|l| l.starts_with("SAD"))
            .and_then(|l| l.split('=').nth(1))
            .unwrap()
            .trim()
            .parse()
            .unwrap()
    };
    assert!(sad(&mosaic_vs_target) < sad(&input_vs_target));
}

#[test]
fn every_algorithm_flag_works_end_to_end() {
    let dir = workdir("algorithms");
    let input = dir.join("in.pgm");
    let target = dir.join("tg.pgm");
    run(&[
        "synth",
        "--scene",
        "plasma",
        "--size",
        "32",
        "--out",
        input.to_str().unwrap(),
    ])
    .unwrap();
    run(&[
        "synth",
        "--scene",
        "fur",
        "--size",
        "32",
        "--out",
        target.to_str().unwrap(),
    ])
    .unwrap();
    for algorithm in ["optimal", "local", "parallel", "greedy"] {
        let out = dir.join(format!("{algorithm}.pgm"));
        run(&[
            "generate",
            "--input",
            input.to_str().unwrap(),
            "--target",
            target.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--grid",
            "4",
            "--algorithm",
            algorithm,
            "--backend",
            "serial",
        ])
        .unwrap_or_else(|e| panic!("{algorithm}: {e}"));
        assert!(out.exists(), "{algorithm} produced no file");
    }
}

#[test]
fn geometry_errors_surface_cleanly() {
    let dir = workdir("errors");
    let small = dir.join("small.pgm");
    let big = dir.join("big.pgm");
    run(&[
        "synth",
        "--scene",
        "fur",
        "--size",
        "32",
        "--out",
        small.to_str().unwrap(),
    ])
    .unwrap();
    run(&[
        "synth",
        "--scene",
        "fur",
        "--size",
        "64",
        "--out",
        big.to_str().unwrap(),
    ])
    .unwrap();
    let err = run(&[
        "generate",
        "--input",
        small.to_str().unwrap(),
        "--target",
        big.to_str().unwrap(),
        "--out",
        dir.join("x.pgm").to_str().unwrap(),
        "--backend",
        "serial",
    ])
    .unwrap_err();
    assert!(err.contains("layout error"), "got: {err}");
    // Grid that does not divide the image.
    let err = run(&[
        "generate",
        "--input",
        small.to_str().unwrap(),
        "--target",
        small.to_str().unwrap(),
        "--out",
        dir.join("x.pgm").to_str().unwrap(),
        "--grid",
        "5",
        "--backend",
        "serial",
    ])
    .unwrap_err();
    assert!(err.contains("layout error"), "got: {err}");
}

#[test]
fn help_documents_every_subcommand() {
    let usage = run(&["help"]).unwrap();
    for word in [
        "generate",
        "--library",
        "ingest",
        "synth",
        "serve",
        "gateway",
        "fleet",
        "submit",
        "compare",
        "info",
        "--clusters",
        "--top-clusters",
        "--feature-grid",
    ] {
        assert!(usage.contains(word), "usage lost {word:?}");
    }
    // An argument error points back at the same usage text.
    assert_eq!(run(&["--help"]).unwrap(), usage);
}

#[test]
fn ingest_library_workflow() {
    let dir = workdir("library");
    let photos = dir.join("photos");
    std::fs::create_dir_all(&photos).unwrap();
    for (i, scene) in ["portrait", "regatta", "fur", "drapery", "plasma", "checker"]
        .iter()
        .cycle()
        .take(24)
        .enumerate()
    {
        run(&[
            "synth",
            "--scene",
            scene,
            "--size",
            "8",
            "--seed",
            &i.to_string(),
            "--out",
            photos.join(format!("p{i}.pgm")).to_str().unwrap(),
        ])
        .unwrap();
    }
    let store = dir.join("store");
    let _ = std::fs::remove_dir_all(&store);
    let msg = run(&[
        "ingest",
        "--store",
        store.to_str().unwrap(),
        "--from",
        photos.to_str().unwrap(),
        "--tile",
        "8",
    ])
    .unwrap();
    assert!(msg.contains("new tiles"), "{msg}");

    // Re-ingest: every file dedups by hash. Adopting the store with the
    // default tile edge (16) must fail loudly instead of mixing sizes.
    let err = run(&[
        "ingest",
        "--store",
        store.to_str().unwrap(),
        "--from",
        photos.to_str().unwrap(),
    ])
    .unwrap_err();
    assert!(err.contains("tile size"), "{err}");
    let msg = run(&[
        "ingest",
        "--store",
        store.to_str().unwrap(),
        "--from",
        photos.to_str().unwrap(),
        "--tile",
        "8",
    ])
    .unwrap();
    assert!(msg.contains("ingested 0 new tiles"), "{msg}");

    let target = dir.join("target.pgm");
    run(&[
        "synth",
        "--scene",
        "portrait",
        "--size",
        "32",
        "--out",
        target.to_str().unwrap(),
    ])
    .unwrap();
    let out = dir.join("mosaic.pgm");
    let msg = run(&[
        "generate",
        "--library",
        store.to_str().unwrap(),
        "--target",
        target.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--grid",
        "4",
        "--clusters",
        "6",
        "--top-clusters",
        "2",
    ])
    .unwrap();
    assert!(msg.contains("16 cells"), "{msg}");
    let info = run(&["info", out.to_str().unwrap()]).unwrap();
    assert!(info.contains("32x32"), "{info}");
}
