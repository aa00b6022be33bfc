//! The `repro trace` target: a streaming-telemetry smoke over the
//! unified [`Session`] frontend.
//!
//! Two traced runs — an open-loop uniform sweep point (link/queue/latency
//! streams) and a multi-tenant serving mix (job admit/retire stream) —
//! capture their JSONL streams in memory, then the open-loop run is
//! repeated at a different partition count and the two byte streams are
//! compared: a digest mismatch is a telemetry-determinism regression and
//! fails the target. The streams are returned to the binary so CI can
//! upload them as artifacts.

use crate::targets::TargetOutput;
use crate::Effort;
use wsdf::routing::{RouteMode, VcScheme};
use wsdf::workload::tenancy::{ArrivalProcess, ServingSpec};
use wsdf::{Bench, PatternSpec, Session, TraceConfig};
use wsdf_sim::SimConfig;
use wsdf_topo::SlParams;

/// Outcome of the trace smoke: rendered text + summary artifact, plus the
/// raw JSONL streams (written next to the JSON artifacts by the binary).
pub struct TraceRun {
    /// Text and the `trace-summary` JSON artifact.
    pub output: TargetOutput,
    /// `(artifact file name, JSONL bytes)` for each traced run.
    pub streams: Vec<(String, String)>,
}

fn smoke_bench() -> Bench {
    // One radix-16 W-group: 32 chips — enough endpoints for the serving
    // mix's 8-participant class at every effort level.
    Bench::switchless(
        &SlParams::radix16().with_wgroups(1),
        RouteMode::Minimal,
        VcScheme::Baseline,
    )
}

fn sim(effort: Effort, partitions: usize) -> SimConfig {
    let scale = match effort {
        Effort::Smoke => 0.15,
        Effort::Standard => 0.5,
        Effort::Full => 1.0,
    };
    let mut cfg = SimConfig::default().scaled(scale);
    cfg.partitions = partitions;
    cfg
}

fn count_records(jsonl: &str, tag: &str) -> usize {
    let needle = format!("{{\"t\": \"{tag}\"");
    jsonl.lines().filter(|l| l.starts_with(&needle)).count()
}

/// Run the smoke. Errors are infrastructure problems; a cross-partition
/// trace-digest mismatch is also an `Err` (it is the regression this
/// target exists to catch).
pub fn run_trace_smoke(effort: Effort) -> Result<TraceRun, String> {
    let bench = smoke_bench();
    let cfg = TraceConfig {
        stride: 64,
        ..TraceConfig::default()
    };

    let open = |partitions: usize| -> Result<(String, String), String> {
        let pattern = bench.pattern(PatternSpec::Uniform, 0.1);
        let out = Session::bench(&bench)
            .sim(sim(effort, partitions))
            .trace(cfg.clone())
            .metrics(pattern.as_ref())?;
        let t = out.trace.expect("trace was configured");
        Ok((t.jsonl, t.digest))
    };
    let (open_jsonl, open_digest) = open(1)?;
    let (_, open_digest_p2) = open(2)?;
    if open_digest != open_digest_p2 {
        return Err(format!(
            "trace digest diverged across partition counts: p=1 {open_digest}, p=2 {open_digest_p2}"
        ));
    }

    let spec = ServingSpec {
        seed: 0x7ACE,
        arrivals: ArrivalProcess::Trace {
            cycles: (0..6).map(|k| k * 100).collect(),
        },
        max_jobs: 16,
        classes: crate::serving::serving_mix(
            8,
            match effort {
                Effort::Smoke => 800,
                _ => 6_400,
            },
        ),
    };
    let out = Session::bench(&bench)
        .sim(sim(effort, 1))
        .trace(cfg)
        .serving(&spec)?;
    let t = out.trace.expect("trace was configured");
    let (serving_jsonl, serving_digest) = (t.jsonl, t.digest);

    let mut output = TargetOutput::default();
    output.text.push_str("== streaming telemetry smoke ==\n");
    for (name, jsonl, digest) in [
        ("open-loop", &open_jsonl, &open_digest),
        ("serving", &serving_jsonl, &serving_digest),
    ] {
        output.text.push_str(&format!(
            "  {name:<10} {:>6} records (link {}, queue {}, lat {}, job {}/{})  digest {digest}\n",
            jsonl.lines().count(),
            count_records(jsonl, "link"),
            count_records(jsonl, "queue"),
            count_records(jsonl, "lat"),
            count_records(jsonl, "admit"),
            count_records(jsonl, "retire"),
        ));
    }
    output
        .text
        .push_str("  open-loop trace bit-identical across partitions {1, 2}\n");
    output.json.push((
        "trace-summary".into(),
        format!(
            "{{\n  \"open_loop\": {{\"records\": {}, \"digest\": \"{open_digest}\"}},\n  \
             \"serving\": {{\"records\": {}, \"digest\": \"{serving_digest}\"}}\n}}\n",
            open_jsonl.lines().count(),
            serving_jsonl.lines().count(),
        ),
    ));
    Ok(TraceRun {
        output,
        streams: vec![
            ("trace-open-loop.jsonl".into(), open_jsonl),
            ("trace-serving.jsonl".into(), serving_jsonl),
        ],
    })
}
