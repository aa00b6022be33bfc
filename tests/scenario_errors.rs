//! Malformed-scenario corpus: every file under `scenarios/invalid/`
//! must fail with *exactly* the error pinned in its `expected.json`
//! manifest. Error paths like `scenario.traffic.rate: expected number in
//! (0,1]` are part of the frontend's public contract — scripts and CI
//! match on them — so any wording drift is a breaking change and must
//! show up here.
//!
//! Most entries fail at parse; a few (cyclic DAG, sparse partition map)
//! are only detectable against a built fabric and fail at run time. The
//! harness accepts either: parse, and if that unexpectedly succeeds,
//! run — one of the two must produce the pinned error.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use wsdf::json::{read, Value};
use wsdf::scenario::{self, Scenario};

const MANIFEST: &str = "expected.json";

fn invalid_dir() -> PathBuf {
    scenario::corpus_dir().join("invalid")
}

/// Parse the `file → expected error` manifest.
fn manifest(dir: &Path) -> BTreeMap<String, String> {
    let path = dir.join(MANIFEST);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let v = Value::parse(&text).unwrap_or_else(|e| panic!("{MANIFEST}: {e}"));
    let members = read::obj(&v, "expected").unwrap_or_else(|e| panic!("{MANIFEST}: {e}"));
    members
        .iter()
        .map(|(file, err)| {
            let err = err
                .as_str()
                .unwrap_or_else(|| panic!("{MANIFEST}: {file}: expected string"));
            (file.clone(), err.to_string())
        })
        .collect()
}

/// The manifest and the directory list exactly the same files — no
/// orphan fixture, no dangling manifest entry.
#[test]
fn manifest_matches_the_fixture_files() {
    let dir = invalid_dir();
    let expected = manifest(&dir);
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.ends_with(".json") && name != MANIFEST)
        .collect();
    files.sort();
    let listed: Vec<String> = expected.keys().cloned().collect();
    assert_eq!(files, listed, "scenarios/invalid/ vs {MANIFEST} mismatch");
    assert!(
        expected.len() >= 15,
        "malformed corpus shrank to {} files; keep it at 15+",
        expected.len()
    );
}

/// Every malformed scenario fails with exactly its pinned error string.
#[test]
fn every_invalid_scenario_fails_with_its_pinned_error() {
    let dir = invalid_dir();
    for (file, want) in manifest(&dir) {
        let path = dir.join(&file);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let got = match Scenario::from_json_str(&text) {
            Err(e) => e,
            Ok(s) => s
                .run()
                .err()
                .unwrap_or_else(|| panic!("{file}: parsed and ran cleanly, expected \"{want}\"")),
        };
        assert_eq!(got, want, "{file}: error drift");
    }
}

/// A hostile, deeply nested document is a parse error, not a stack
/// overflow that takes the whole process down.
#[test]
fn deeply_nested_scenario_is_an_error_not_a_crash() {
    let hostile = "[".repeat(100_000);
    assert_eq!(
        Scenario::from_json_str(&hostile).unwrap_err(),
        "nesting deeper than 128 levels at byte 128"
    );
    assert!(Value::parse(&hostile).is_err());
}
