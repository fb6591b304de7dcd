//! Golden corpus for the salvage/repair pipeline.
//!
//! Every file under `tests/fixtures/corrupt/` is a damaged `.cube`
//! XML document or `.cubec` columnar store. Fixtures with a sibling
//! `.expect` file must repair *partially* (`cube repair` exit code 1)
//! and the repaired output must be byte-identical to the snapshot —
//! the longest valid prefix (XML) or the intact pages with damaged
//! chunks zeroed (store), checksummed and marked `recovered`. Fixtures
//! without a snapshot are unrecoverable (exit code 2, nothing
//! written). Fixtures named after a lint rule (`e201_*`) are
//! unrecoverable too; their `.expect` lists the rule codes `cube lint`
//! reports instead of a repaired snapshot (checked in
//! `tests/lint_corpus.rs`). The same corpus drives the recovery gate
//! in `ci/check.sh`.

use std::path::{Path, PathBuf};

use cube_model::Experiment;

fn corrupt_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/corrupt")
}

fn cube_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "cube" || x == "cubec"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no fixtures in {}", dir.display());
    files
}

/// Strict read of a repaired output in whichever format its extension
/// names — repairs must survive the unforgiving reader of their own
/// backend.
fn read_strict(path: &Path) -> Experiment {
    if path.extension().is_some_and(|x| x == "cubec") {
        cube_store::read_store_file(path).unwrap()
    } else {
        cube_xml::read_experiment_file(path).unwrap()
    }
}

/// Whether `path` is named after a lint rule code, like `e201_*`: its
/// `.expect` then lists lint codes, not a repaired snapshot.
fn names_a_rule(path: &Path) -> bool {
    let stem = path.file_stem().unwrap_or_default().to_string_lossy();
    let b = stem.as_bytes();
    b.len() > 4
        && matches!(b[0], b'e' | b'w')
        && b[1..4].iter().all(u8::is_ascii_digit)
        && b[4] == b'_'
}

fn repair(input: &Path, output: &Path) -> cube_cli::Outcome {
    let args: Vec<String> = [
        "repair",
        &input.to_string_lossy(),
        &output.to_string_lossy(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    cube_cli::run(&args).expect("repair of a readable file never usage-errors")
}

#[test]
fn corrupt_corpus_repairs_to_the_documented_prefixes() {
    let tmp = std::env::temp_dir().join(format!("cube_recovery_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    for cube in cube_files(&corrupt_dir()) {
        let expect = cube.with_extension("expect");
        let out = tmp.join(cube.file_name().unwrap());
        let _ = std::fs::remove_file(&out);
        let outcome = repair(&cube, &out);
        if expect.exists() && !names_a_rule(&cube) {
            assert_eq!(outcome.code, 1, "{}: {}", cube.display(), outcome.stdout);
            let got = std::fs::read(&out)
                .unwrap_or_else(|e| panic!("{}: no repaired output: {e}", cube.display()));
            let want = std::fs::read(&expect).unwrap();
            assert_eq!(
                got,
                want,
                "{}: repaired bytes diverge from the snapshot",
                cube.display()
            );
            // The repaired prefix must itself be a clean, strictly
            // readable experiment with recovered provenance.
            let exp = read_strict(&out);
            assert!(exp.provenance().is_recovered(), "{}", cube.display());
            assert_eq!(exp.lint().num_errors(), 0, "{}", cube.display());
        } else {
            assert_eq!(outcome.code, 2, "{}: {}", cube.display(), outcome.stdout);
            assert!(
                !out.exists(),
                "{}: unrecoverable input must not produce output",
                cube.display()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn valid_fixtures_repair_fully() {
    let tmp = std::env::temp_dir().join(format!("cube_recovery_full_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let valid = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/valid");
    for cube in cube_files(&valid) {
        let out = tmp.join(cube.file_name().unwrap());
        let outcome = repair(&cube, &out);
        assert_eq!(outcome.code, 0, "{}: {}", cube.display(), outcome.stdout);
        let exp = cube_xml::read_experiment_file(&out).unwrap();
        assert!(!exp.provenance().is_recovered(), "{}", cube.display());
    }
    let _ = std::fs::remove_dir_all(&tmp);
}
