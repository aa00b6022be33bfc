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
use wsdf::json::{self, read, Value};
use wsdf::scenario::{self, Scenario};
use wsdf::sim::SplitMix64;
use wsdf::Session;

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
            Ok(s) => Session::scenario(&s)
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

// --- Mutation fuzzer -------------------------------------------------------

/// Every committed scenario, valid and malformed, as `(file, text)` in
/// file-name order.
fn corpus_texts() -> Vec<(String, String)> {
    let dir = scenario::corpus_dir();
    let mut out = Vec::new();
    for dir in [dir.clone(), dir.join("invalid")] {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
            .map(|entry| entry.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .filter(|p| !p.ends_with(scenario::DIGESTS_FILE) && !p.ends_with(MANIFEST))
            .collect();
        files.sort();
        for path in files {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            out.push((path.display().to_string(), text));
        }
    }
    out
}

/// Compact JSON text of `v`.
fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(x) => out.push_str(&json::num(*x)),
        Value::Str(s) => out.push_str(&format!("\"{}\"", json::escape(s))),
        Value::Arr(items) => {
            out.push('[');
            for (i, x) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(x, out);
            }
            out.push(']');
        }
        Value::Obj(members) => {
            out.push('{');
            for (i, (k, x)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":", json::escape(k)));
                write_value(x, out);
            }
            out.push('}');
        }
    }
}

/// The values a node may be swapped for: other JSON types, numbers at
/// the edges of the integer and float ranges, and every string and key
/// of the corpus (enum names of other sections among them).
fn swap_pool(docs: &[Value]) -> Vec<Value> {
    fn strings(v: &Value, out: &mut Vec<String>) {
        match v {
            Value::Str(s) => out.push(s.clone()),
            Value::Arr(items) => items.iter().for_each(|x| strings(x, out)),
            Value::Obj(members) => {
                for (k, x) in members {
                    out.push(k.clone());
                    strings(x, out);
                }
            }
            _ => {}
        }
    }
    let mut names = Vec::new();
    docs.iter().for_each(|d| strings(d, &mut names));
    names.sort();
    names.dedup();
    let mut pool = vec![
        Value::Null,
        Value::Bool(true),
        Value::Num(0.0),
        Value::Num(-1.0),
        Value::Num(0.5),
        Value::Num(1e300),
        Value::Num(4294967296.0),
        Value::Str(String::new()),
        Value::Arr(Vec::new()),
        Value::Obj(Vec::new()),
    ];
    pool.extend(names.into_iter().map(Value::Str));
    pool
}

/// Node `k` of `v` in pre-order, the root being node 0; `k` counts down
/// the nodes passed on the way.
fn nth_node<'a>(v: &'a mut Value, k: &mut usize) -> Option<&'a mut Value> {
    if *k == 0 {
        return Some(v);
    }
    *k -= 1;
    match v {
        Value::Arr(items) => items.iter_mut().find_map(|x| nth_node(x, k)),
        Value::Obj(members) => members.iter_mut().find_map(|(_, x)| nth_node(x, k)),
        _ => None,
    }
}

/// Nodes of `v`, itself included.
fn count_nodes(v: &Value) -> usize {
    1 + match v {
        Value::Arr(items) => items.iter().map(count_nodes).sum(),
        Value::Obj(members) => members.iter().map(|(_, x)| count_nodes(x)).sum(),
        _ => 0,
    }
}

/// One structural mutant of `doc`: a random node swapped for a pool
/// value, or a random object member deleted, added or duplicated, or a
/// random array grown by one element.
fn structural_mutant(doc: &Value, pool: &[Value], rng: &mut SplitMix64) -> String {
    let mut v = doc.clone();
    let mut k = rng.next_below(count_nodes(&v) as u64) as usize;
    let node = nth_node(&mut v, &mut k).expect("node index below the node count");
    let pick = |rng: &mut SplitMix64| pool[rng.next_below(pool.len() as u64) as usize].clone();
    match (rng.next_below(5), node) {
        (1, Value::Obj(members)) if !members.is_empty() => {
            members.remove(rng.next_below(members.len() as u64) as usize);
        }
        (2, Value::Obj(members)) => {
            let Value::Str(key) = pick(rng) else {
                return structural_mutant(doc, pool, rng);
            };
            members.push((key, pick(rng)));
        }
        (3, Value::Obj(members)) if !members.is_empty() => {
            let m = members[rng.next_below(members.len() as u64) as usize].clone();
            members.push(m);
        }
        (4, Value::Arr(items)) => {
            let x = match items.first() {
                Some(first) if rng.chance(0.5) => first.clone(),
                _ => pick(rng),
            };
            items.push(x);
        }
        (_, node) => *node = pick(rng),
    }
    let mut out = String::new();
    write_value(&v, &mut out);
    out
}

/// One text mutant of `text`: an ASCII byte replaced, the text cut
/// short, or a nesting bomb spliced in.
fn text_mutant(text: &str, rng: &mut SplitMix64) -> String {
    let at = rng.next_below(text.len() as u64 + 1) as usize;
    match rng.next_below(3) {
        0 if at < text.len() => {
            let mut bytes = text.as_bytes().to_vec();
            bytes[at] = rng.next_below(0x80) as u8;
            String::from_utf8(bytes).expect("the corpus is ASCII")
        }
        1 => text[..at].to_string(),
        _ => {
            let depth = [127, 128, 129, 4096][rng.next_below(4) as usize];
            let bomb = if rng.chance(0.5) { "[" } else { "{\"a\":" };
            format!("{}{}{}", &text[..at], bomb.repeat(depth), &text[at..])
        }
    }
}

/// Parse one mutant. It must not panic; an error must name a scenario
/// path or, for a syntax error, its byte offset; an accepted document's
/// canonical form must read back equal and be a fixed point.
fn check_mutant(text: &str) -> bool {
    let parsed = std::panic::catch_unwind(|| Scenario::from_json_str(text))
        .unwrap_or_else(|_| panic!("parse panicked on:\n{text}"));
    match parsed {
        Ok(s) => {
            let canonical = s.to_json();
            let back = Scenario::from_json_str(&canonical).unwrap_or_else(|e| {
                panic!("canonical form fails: {e}\n{canonical}\nfrom:\n{text}")
            });
            assert_eq!(back, s, "round-trip drift\n{canonical}");
            assert_eq!(back.to_json(), canonical, "not a fixed point");
            true
        }
        Err(e) => {
            let names_byte = e
                .rsplit_once(" at byte ")
                .is_some_and(|(_, at)| at.parse::<usize>().is_ok());
            assert!(
                e.starts_with("scenario") || names_byte,
                "error names no path or byte: {e}\n{text}"
            );
            false
        }
    }
}

/// SplitMix64-driven mutants of the committed corpus (valid and
/// malformed files) never panic, fail with a path or byte offset, and
/// when accepted round-trip through the canonical form.
#[test]
fn corpus_mutants_fail_with_a_path_or_round_trip() {
    let texts = corpus_texts();
    // Syntax fixtures under `invalid/` are not JSON, so they get text
    // mutants only; every other file must parse.
    let invalid = invalid_dir();
    let docs: Vec<Value> = texts
        .iter()
        .filter_map(|(file, text)| match Value::parse(text) {
            Ok(doc) => Some(doc),
            Err(e)
                if Path::new(file).parent() == Some(invalid.as_path())
                    && e.contains(" at byte ") =>
            {
                None
            }
            Err(e) => panic!("{file}: {e}"),
        })
        .collect();
    let pool = swap_pool(&docs);
    let mut rng = SplitMix64::new(0x5EED_F022);
    let mut accepted = 0;
    for _ in 0..40_000 {
        let i = rng.next_below(docs.len() as u64) as usize;
        accepted += check_mutant(&structural_mutant(&docs[i], &pool, &mut rng)) as usize;
    }
    for _ in 0..20_000 {
        let (_, text) = &texts[rng.next_below(texts.len() as u64) as usize];
        accepted += check_mutant(&text_mutant(text, &mut rng)) as usize;
    }
    // Mutants of valid files that keep them valid must show up, or the
    // round-trip property is never exercised.
    assert!(accepted > 1_000, "only {accepted} mutants parsed");
}
