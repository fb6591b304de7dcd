//! Golden corpus for the lint rule engine.
//!
//! Every file under `tests/fixtures/malformed/` triggers a specific
//! rule code; the sibling `.expect` file lists the exact set of codes
//! the linter must report (usually one — fixtures are crafted so no
//! incidental rule fires). `tests/fixtures/valid/` must stay fully
//! clean. The same corpus drives the CLI exit-code contract used by
//! `ci/check.sh`. Damaged `.cubec` fixtures under
//! `tests/fixtures/corrupt/` that are named after a rule (`e201_*`)
//! carry the same kind of `.expect` and are checked here too.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn fixture_dir(kind: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(kind)
}

fn cube_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "cube"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no fixtures in {}", dir.display());
    files
}

fn reported_codes(path: &Path) -> BTreeSet<String> {
    cube_xml::lint_file(path)
        .codes()
        .iter()
        .map(|c| c.as_str().to_string())
        .collect()
}

fn expected_codes(cube: &Path) -> BTreeSet<String> {
    let expect = cube.with_extension("expect");
    std::fs::read_to_string(&expect)
        .unwrap_or_else(|e| panic!("missing snapshot {}: {e}", expect.display()))
        .split_whitespace()
        .map(str::to_string)
        .collect()
}

#[test]
fn malformed_corpus_reports_exactly_the_documented_codes() {
    for cube in cube_files(&fixture_dir("malformed")) {
        let expected = expected_codes(&cube);
        let reported = reported_codes(&cube);
        assert_eq!(
            reported,
            expected,
            "{}:\n{}",
            cube.display(),
            cube_xml::lint_file(&cube)
        );
    }
}

#[test]
fn malformed_corpus_covers_every_file_reachable_rule() {
    // The union of the snapshots is the documented file-reachable rule
    // set; growing the rule catalogue without a fixture fails here.
    let covered: BTreeSet<String> = cube_files(&fixture_dir("malformed"))
        .iter()
        .flat_map(|c| expected_codes(c))
        .collect();
    for code in [
        "E003", "E004", "E005", "E006", "E007", "E013", "E014", "E016", "E017", "E018", "E101",
        "E102", "E103", "E104", "W001", "W002", "W003", "W004", "W005", "W006", "W007", "W008",
        "W009", "W010",
    ] {
        assert!(covered.contains(code), "no fixture triggers {code}");
        assert!(
            cube_model::RuleCode::from_str_opt(code).is_some(),
            "{code} is not a documented rule"
        );
    }
}

#[test]
fn valid_fixtures_are_clean() {
    for cube in cube_files(&fixture_dir("valid")) {
        let report = cube_xml::lint_file(&cube);
        assert!(report.is_clean(), "{}:\n{report}", cube.display());
    }
}

#[test]
fn cli_deny_warnings_exit_codes_match_corpus() {
    for cube in cube_files(&fixture_dir("malformed")) {
        let path = cube.to_string_lossy().into_owned();
        let out = cube_cli::run(&[
            "lint".into(),
            path.clone(),
            "--deny".into(),
            "warnings".into(),
        ])
        .unwrap();
        assert_eq!(out.code, 1, "{path} should be denied:\n{}", out.stdout);
        // Every expected code appears verbatim in the human output.
        for code in expected_codes(&cube) {
            assert!(out.stdout.contains(&code), "{path}: missing {code}");
        }
    }
    for cube in cube_files(&fixture_dir("valid")) {
        let path = cube.to_string_lossy().into_owned();
        let out = cube_cli::run(&[
            "lint".into(),
            path.clone(),
            "--deny".into(),
            "warnings".into(),
        ])
        .unwrap();
        assert_eq!(out.code, 0, "{path} should be clean:\n{}", out.stdout);
    }
}

#[test]
fn cli_json_output_carries_codes() {
    let dir = fixture_dir("malformed");
    let cube = dir.join("e016_nan_severity.cube");
    let out = cube_cli::run(&[
        "lint".into(),
        cube.to_string_lossy().into_owned(),
        "--format".into(),
        "json".into(),
    ])
    .unwrap();
    assert_eq!(out.code, 1);
    assert!(out.stdout.contains("\"code\":\"E016\""), "{}", out.stdout);
    assert!(out.stdout.contains("\"level\":\"error\""), "{}", out.stdout);
    assert!(out.stdout.contains("\"ok\":false"), "{}", out.stdout);
}

#[test]
fn corrupt_store_fixtures_report_the_rule_they_are_named_after() {
    let dir = fixture_dir("corrupt");
    let mut named: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "cubec"))
        .filter(|p| {
            let stem = p.file_stem().unwrap().to_string_lossy();
            let b = stem.as_bytes();
            b.len() > 4
                && matches!(b[0], b'e' | b'w')
                && b[1..4].iter().all(u8::is_ascii_digit)
                && b[4] == b'_'
        })
        .collect();
    named.sort();
    assert!(
        !named.is_empty(),
        "no rule-named fixtures in {}",
        dir.display()
    );
    for cubec in named {
        let reported: BTreeSet<String> = cube_store::lint_file(&cubec)
            .codes()
            .iter()
            .map(|c| c.as_str().to_string())
            .collect();
        assert_eq!(reported, expected_codes(&cubec), "{}", cubec.display());
        let path = cubec.to_string_lossy().into_owned();
        let out = cube_cli::run(&["lint".into(), path.clone()]).unwrap();
        assert_eq!(out.code, 1, "{path}:\n{}", out.stdout);
    }
}
