//! Drives the `cube` CLI over files produced by the real measurement
//! pipeline: tool output → .cube files → shell-style algebra →
//! inspection. This is the workflow a CUBE user runs day to day.

use std::path::PathBuf;

use cube_model::aggregate::{metric_total, MetricSelection};
use cube_suite::expert::{analyze, AnalyzeOptions};
use cube_suite::simmpi::apps::{pescan, PescanConfig};
use cube_suite::simmpi::{simulate, EpilogTracer, MachineModel};
use cube_xml::{read_experiment_file, write_experiment_file};

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cube_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn produce(barriers: bool, file: &str) -> String {
    let program = pescan(&PescanConfig {
        ranks: 8,
        iterations: 10,
        barriers,
        ..PescanConfig::default()
    });
    let mut tracer = EpilogTracer::new("cluster", 2);
    simulate(&program, &MachineModel::default(), &mut tracer).unwrap();
    let exp = analyze(&tracer.into_trace(), &AnalyzeOptions::default()).unwrap();
    let path = workdir().join(file);
    write_experiment_file(&exp, &path).unwrap();
    path.to_string_lossy().into_owned()
}

fn cube(parts: &[&str]) -> cube_cli::Outcome {
    let args: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
    cube_cli::run(&args).expect("cube invocation succeeds")
}

#[test]
fn full_session_diff_view_stat() {
    let original = produce(true, "original.cube");
    let optimized = produce(false, "optimized.cube");
    let diff_path = workdir().join("diff.cube").to_string_lossy().into_owned();

    // cube diff original.cube optimized.cube -o diff.cube
    let out = cube(&["diff", &original, &optimized, "-o", &diff_path]);
    assert_eq!(out.code, 0);

    // The derived file is a complete experiment...
    let diff = read_experiment_file(&diff_path).unwrap();
    diff.validate().unwrap();
    assert!(diff.provenance().is_derived());
    let wab = diff.metadata().find_metric("Wait at Barrier").unwrap();
    assert!(metric_total(&diff, MetricSelection::inclusive(wab)) > 0.0);

    // ... and every inspection subcommand accepts it like an original.
    let info = cube(&["info", &diff_path]);
    assert!(info.stdout.contains("derived:    yes"));
    let stat = cube(&["stat", &diff_path]);
    assert!(stat.stdout.contains("Wait at Barrier"));
    let view = cube(&[
        "view",
        &diff_path,
        "--expand-all",
        "--metric",
        "Wait at Barrier",
        "--normalize",
        &original,
    ]);
    assert!(view.stdout.contains("normalized"));
    assert!(view.stdout.contains("Wait at Barrier"));
}

#[test]
fn series_min_matches_library_result() {
    // Build a small series, reduce with the CLI, compare to the library.
    let files: Vec<String> = (0..3)
        .map(|i| {
            let program = pescan(&PescanConfig {
                ranks: 4,
                iterations: 3,
                ..PescanConfig::default()
            });
            let model = MachineModel {
                noise: cube_suite::simmpi::NoiseModel {
                    amplitude: 0.2,
                    seed: i,
                },
                ..MachineModel::default()
            };
            let mut tracer = EpilogTracer::new("cluster", 2);
            simulate(&program, &model, &mut tracer).unwrap();
            let exp = analyze(&tracer.into_trace(), &AnalyzeOptions::default()).unwrap();
            let path = workdir().join(format!("run{i}.cube"));
            write_experiment_file(&exp, &path).unwrap();
            path.to_string_lossy().into_owned()
        })
        .collect();

    let min_path = workdir().join("min.cube").to_string_lossy().into_owned();
    cube(&["min", &files[0], &files[1], &files[2], "-o", &min_path]);

    let runs: Vec<_> = files
        .iter()
        .map(|f| read_experiment_file(f).unwrap())
        .collect();
    let expected = cube_algebra::ops::min(&runs.iter().collect::<Vec<_>>()).unwrap();
    let got = read_experiment_file(&min_path).unwrap();
    assert!(got.approx_eq(&expected, 1e-12));
}

#[test]
fn composite_pipeline_through_files() {
    // mean of two runs, then diff against a third — all through files,
    // exercising closure at the file-format level.
    let a = produce(true, "ca.cube");
    let b = produce(true, "cb.cube");
    let c = produce(false, "cc.cube");
    let mean_path = workdir().join("cmean.cube").to_string_lossy().into_owned();
    let final_path = workdir().join("cfinal.cube").to_string_lossy().into_owned();
    cube(&["mean", &a, &b, "-o", &mean_path]);
    cube(&["diff", &mean_path, &c, "-o", &final_path]);
    let e = read_experiment_file(&final_path).unwrap();
    e.validate().unwrap();
    assert!(e.provenance().label().starts_with("difference(mean("));
}

#[test]
fn cmp_detects_equality_and_difference() {
    let a = produce(true, "eq_a.cube");
    let out = cube(&["cmp", &a, &a]);
    assert_eq!(out.code, 0);
    let b = produce(false, "eq_b.cube");
    let out = cube(&["cmp", &a, &b]);
    assert_eq!(out.code, 1);
}

/// Regression: a severity-first `.cube` followed by 200,000 nested
/// elements aborted `cube lint`, `cube info` and `cube repair` with a
/// stack overflow. Each must now stop cleanly at the depth limit. The
/// nesting follows complete metadata, so repair recovers the severity
/// rows as a partial recovery, as it does for the same damage in a
/// metadata-first file.
#[test]
fn severity_first_deep_nesting_fails_cleanly() {
    let minimal = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/valid/minimal.cube"),
    )
    .unwrap();
    let start = minimal.find("  <severity>").unwrap();
    let end = minimal.find("</cube>").unwrap();
    let open = minimal.find("<metrics>").unwrap() - 2;
    let doc = format!(
        "{}{}{}  {}{}\n</cube>\n",
        &minimal[..open],
        &minimal[start..end],
        &minimal[open..start],
        "<x>".repeat(200_000),
        "</x>".repeat(200_000)
    );
    let path = workdir().join("severity_first_deep.cube");
    std::fs::write(&path, doc).unwrap();
    let path = path.to_string_lossy().into_owned();

    let out = cube(&["lint", &path]);
    assert_eq!(out.code, 1, "{}", out.stdout);
    assert!(out.stdout.contains("E201"), "{}", out.stdout);
    let args = |parts: &[&str]| parts.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let err = cube_cli::run(&args(&["info", &path])).unwrap_err();
    assert!(err.contains("depth"), "{err}");
    let repaired = workdir().join("severity_first_deep.repaired.cube");
    let out = cube(&["repair", &path, &repaired.to_string_lossy()]);
    assert_eq!(out.code, 1, "{}", out.stdout);
    assert!(out.stdout.contains("nesting depth"), "{}", out.stdout);
    assert!(out.stdout.contains("rows recovered: 1"), "{}", out.stdout);
}
