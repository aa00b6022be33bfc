//! Runners behind `repro scenario <file>` and `repro corpus`.
//!
//! `scenario` executes one declarative scenario file
//! ([`wsdf::scenario::Scenario`]) and prints its report plus the report
//! digest; with `--check` the digest is compared against the pinned
//! entry in the file's directory (`digests.json`).
//!
//! `corpus` runs the whole golden corpus (every `*.json` under
//! `scenarios/`, see [`wsdf::scenario::corpus_dir`]) and diffs the
//! resulting digests against the pinned table; `--update` rewrites the
//! table instead. The diff is also emitted as a JSON artifact
//! (`corpus-digests`) so CI can upload it on failure.
//!
//! Scenario files pin their own simulation windows, so these runners
//! ignore the `--smoke/--full` effort flags: a corpus digest is a pure
//! function of the scenario file.

use crate::targets::TargetOutput;
use std::path::Path;
use wsdf::scenario::{self, Scenario};
use wsdf::Session;

/// Outcome of a corpus run: the rendered output plus how many files
/// disagreed with the pinned digest table (0 = clean).
pub struct CorpusRun {
    /// Rendered text and the `corpus-digests` JSON artifact.
    pub output: TargetOutput,
    /// Mismatched + unpinned + stale-pinned entry count.
    pub failures: usize,
}

/// Run one scenario file; with `check`, verify its digest against the
/// pinned table next to it.
pub fn run_scenario_file(file: &str, check: bool) -> Result<TargetOutput, String> {
    let path = Path::new(file);
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {file}: {e}"))?;
    let s = Scenario::from_json_str(&text)?;
    // The Session frontend honors the scenario's optional `telemetry`
    // section (trace captured in memory).
    let run = Session::scenario(&s).run()?;
    let outcome = run.report;
    let digest = outcome.digest();
    let mut out = TargetOutput::default();
    out.text.push_str(&outcome.render());
    out.text.push_str(&format!(
        "\nscenario {} [{}]: digest {digest}\n",
        s.name,
        outcome.kind()
    ));
    let trace_digest = run.trace.as_ref().map(|t| t.digest.clone());
    if let Some(t) = run.trace {
        out.text.push_str(&format!(
            "telemetry: {} record(s), trace digest {}\n",
            t.jsonl.lines().count(),
            t.digest,
        ));
        out.json.push((format!("{}-trace", s.name), t.jsonl));
    }
    out.json.push((s.name.clone(), outcome.report_json()));
    if check {
        let dir = path.parent().unwrap_or_else(|| Path::new("."));
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| file.to_string());
        let pinned = scenario::read_digests(dir)?;
        match pinned.iter().find(|(f, _)| *f == name) {
            None => {
                return Err(format!(
                    "{name}: no pinned digest in {}",
                    dir.join(scenario::DIGESTS_FILE).display()
                ))
            }
            Some((_, want)) if *want != digest => {
                return Err(format!(
                    "{name}: digest mismatch: pinned {want}, got {digest}"
                ))
            }
            Some(_) => out.text.push_str("digest check: OK\n"),
        }
        if let Some(got) = &trace_digest {
            let tname = format!("{name}::trace");
            match pinned.iter().find(|(f, _)| *f == tname) {
                None => {
                    return Err(format!(
                        "{tname}: no pinned trace digest in {}",
                        dir.join(scenario::DIGESTS_FILE).display()
                    ))
                }
                Some((_, want)) if want != got => {
                    return Err(format!(
                        "{tname}: trace digest mismatch: pinned {want}, got {got}"
                    ))
                }
                Some(_) => out.text.push_str("trace digest check: OK\n"),
            }
        }
    }
    Ok(out)
}

/// Run the golden corpus. With `update`, rewrite the pinned digest
/// table; otherwise diff against it. `Err` is reserved for
/// infrastructure problems (unreadable directory, unparsable scenario);
/// digest disagreements are reported via [`CorpusRun::failures`] so the
/// diff artifact still reaches the caller.
pub fn run_corpus(update: bool) -> Result<CorpusRun, String> {
    let dir = scenario::corpus_dir();
    run_corpus_in(&dir, update)
}

/// [`run_corpus`] against an explicit directory (tests).
pub fn run_corpus_in(dir: &Path, update: bool) -> Result<CorpusRun, String> {
    let entries = scenario::load_corpus(dir)?;
    if entries.is_empty() {
        return Err(format!("no scenarios found in {}", dir.display()));
    }
    let mut out = TargetOutput::default();
    let mut got: Vec<(String, String)> = Vec::with_capacity(entries.len());
    for e in &entries {
        let run = Session::scenario(&e.scenario)
            .run()
            .map_err(|err| format!("{}: {err}", e.file))?;
        let outcome = run.report;
        let digest = outcome.digest();
        out.text
            .push_str(&format!("{:<44} {:<11} {digest}\n", e.file, outcome.kind()));
        got.push((e.file.clone(), digest));
        // Telemetry-enabled scenarios pin the trace byte stream too, as a
        // separate `<file>::trace` entry — the report digest above is
        // unchanged by the telemetry section (observe-only contract).
        if let Some(td) = run.trace.map(|t| t.digest) {
            let tname = format!("{}::trace", e.file);
            out.text
                .push_str(&format!("{:<44} {:<11} {td}\n", tname, "trace"));
            got.push((tname, td));
        }
    }

    if update {
        let table = scenario::digests_json(&got);
        let path = dir.join(scenario::DIGESTS_FILE);
        std::fs::write(&path, &table)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        out.text.push_str(&format!(
            "updated {} ({} entries)\n",
            path.display(),
            got.len()
        ));
        out.json
            .push(("corpus-digests".into(), diff_json(dir, &got, &got)));
        return Ok(CorpusRun {
            output: out,
            failures: 0,
        });
    }

    let pinned = scenario::read_digests(dir)?;
    let mut failures = 0usize;
    for (file, digest) in &got {
        match pinned.iter().find(|(f, _)| f == file) {
            None => {
                failures += 1;
                out.text
                    .push_str(&format!("UNPINNED  {file}: run `repro corpus --update`\n"));
            }
            Some((_, want)) if want != digest => {
                failures += 1;
                out.text
                    .push_str(&format!("MISMATCH  {file}: pinned {want}, got {digest}\n"));
            }
            Some(_) => {}
        }
    }
    for (file, _) in &pinned {
        if !got.iter().any(|(f, _)| f == file) {
            failures += 1;
            out.text
                .push_str(&format!("STALE     {file}: pinned but no such scenario\n"));
        }
    }
    out.text.push_str(&format!(
        "corpus: {} scenario(s), {} failure(s)\n",
        got.len(),
        failures
    ));
    out.json
        .push(("corpus-digests".into(), diff_json(dir, &pinned, &got)));
    Ok(CorpusRun {
        output: out,
        failures,
    })
}

/// The `corpus-digests` artifact: per-file pinned/got digests with a
/// status (`ok`, `mismatch`, `unpinned`, `stale`).
fn diff_json(dir: &Path, pinned: &[(String, String)], got: &[(String, String)]) -> String {
    let mut files: Vec<&String> = pinned.iter().chain(got.iter()).map(|(f, _)| f).collect();
    files.sort();
    files.dedup();
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"dir\": \"{}\",\n  \"entries\": [\n",
        wsdf::json::escape(&dir.display().to_string())
    ));
    for (i, file) in files.iter().enumerate() {
        let p = pinned.iter().find(|(f, _)| f == *file).map(|(_, d)| d);
        let g = got.iter().find(|(f, _)| f == *file).map(|(_, d)| d);
        let status = match (p, g) {
            (Some(p), Some(g)) if p == g => "ok",
            (Some(_), Some(_)) => "mismatch",
            (None, Some(_)) => "unpinned",
            (Some(_), None) => "stale",
            (None, None) => unreachable!(),
        };
        let quote = |d: Option<&String>| match d {
            Some(d) => format!("\"{}\"", wsdf::json::escape(d)),
            None => "null".to_string(),
        };
        s.push_str(&format!(
            "    {{\"file\": \"{}\", \"status\": \"{status}\", \"pinned\": {}, \"got\": {}}}{}\n",
            wsdf::json::escape(file),
            quote(p),
            quote(g),
            if i + 1 < files.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
