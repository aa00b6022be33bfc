//! Streaming-telemetry integration tests over the [`Session`] frontend.
//!
//! * **Bit-identity matrix.** The trace byte stream must be identical
//!   across partition counts {1, 2, 4} × worker counts {1, 4} ×
//!   dense/event-driven stepping — the same contract the summary report
//!   already carries, extended to the JSONL stream so trace files can be
//!   digest-pinned.
//! * **Reconciliation.** The `lat` stream is gated exactly like the
//!   summary report, so recomputing the latency aggregates from the
//!   trace must reproduce `Metrics::{packets_ejected, latency_sum,
//!   latency_max}` — on randomized topologies, rates and strides.

use wsdf::exec::BspPool;
use wsdf::json::{read, Value};
use wsdf::routing::{RouteMode, VcScheme};
use wsdf::sim::{SimConfig, SplitMix64};
use wsdf::topo::SlParams;
use wsdf::workload::tenancy::{ArrivalProcess, JobClass, Placement, ServingSpec};
use wsdf::{Bench, PatternSpec, Session, TraceConfig};

fn bench() -> Bench {
    Bench::switchless(
        &SlParams::radix16().with_wgroups(1),
        RouteMode::Minimal,
        VcScheme::Baseline,
    )
}

fn cfg(parts: usize, event: bool) -> SimConfig {
    SimConfig {
        warmup_cycles: 100,
        measure_cycles: 200,
        drain_cycles: 100,
        partitions: parts,
        event_driven: event,
        ..Default::default()
    }
}

fn trace_cfg() -> TraceConfig {
    TraceConfig {
        stride: 64,
        ..TraceConfig::default()
    }
}

/// The open-loop trace stream is bit-identical across every partition
/// count × worker count × stepping mode combination.
#[test]
fn open_loop_trace_bit_identical_across_matrix() {
    let bench = bench();
    let pattern = bench.pattern(PatternSpec::Uniform, 0.2);
    let pools = [BspPool::new(1), BspPool::new(4)];
    let mut baseline: Option<(String, String)> = None;
    for parts in [1usize, 2, 4] {
        for pool in &pools {
            for event in [false, true] {
                let out = Session::bench(&bench)
                    .sim(cfg(parts, event))
                    .pool(pool)
                    .trace(trace_cfg())
                    .metrics(pattern.as_ref())
                    .unwrap();
                let t = out.trace.expect("trace was configured");
                let (jsonl, digest) = (t.jsonl, t.digest);
                assert!(!jsonl.is_empty(), "trace stream should not be empty");
                let tag = format!("parts={parts} workers={} event={event}", pool.workers());
                match &baseline {
                    None => baseline = Some((jsonl, digest)),
                    Some((want_jsonl, want_digest)) => {
                        assert_eq!(&digest, want_digest, "{tag}: trace digest diverged");
                        assert_eq!(&jsonl, want_jsonl, "{tag}: trace bytes diverged");
                    }
                }
            }
        }
    }
}

/// The serving trace (job admit/retire stream included) is bit-identical
/// across partition counts, and every admitted job retires.
#[test]
fn serving_trace_bit_identical_across_partitions() {
    let bench = bench();
    let spec = ServingSpec {
        seed: 0x7E1E,
        arrivals: ArrivalProcess::Trace {
            cycles: vec![0, 100, 200, 300],
        },
        max_jobs: 8,
        classes: vec![
            JobClass {
                name: "train".into(),
                collective: "ring_allreduce".into(),
                flits: 8,
                microbatches: 1,
                participants: 6,
                placement: Placement::Block,
                slo_cycles: 40_000,
                weight: 2.0,
            },
            JobClass {
                name: "shard".into(),
                collective: "all_to_all".into(),
                flits: 4,
                microbatches: 1,
                participants: 4,
                placement: Placement::Overlapping,
                slo_cycles: 20_000,
                weight: 1.0,
            },
        ],
    };
    let mut baseline: Option<String> = None;
    for parts in [1usize, 2, 4] {
        let out = Session::bench(&bench)
            .sim(cfg(parts, false))
            .trace(trace_cfg())
            .serving(&spec)
            .unwrap();
        let jsonl = out.trace.unwrap().jsonl;
        let admits = jsonl
            .lines()
            .filter(|l| l.starts_with("{\"t\": \"admit\""))
            .count();
        let retires = jsonl
            .lines()
            .filter(|l| l.starts_with("{\"t\": \"retire\""))
            .count();
        assert_eq!(admits, 4, "parts={parts}: one admit per arrival");
        assert_eq!(retires, 4, "parts={parts}: every job retires");
        match &baseline {
            None => baseline = Some(jsonl),
            Some(want) => assert_eq!(&jsonl, want, "parts={parts}: serving trace diverged"),
        }
    }
}

/// Randomized reconciliation: latency aggregates recomputed from the
/// trace stream equal the summary report's, case after case.
#[test]
fn lat_stream_reconciles_with_summary_metrics() {
    const CASES: usize = 8;
    let mut rng = SplitMix64::new(0x7E1E_ACE5);
    for case in 0..CASES {
        // Random small-but-valid switch-less fabric.
        let (params, rate, stride) = loop {
            let m = 2 + rng.next_below(3) as u32; // 2..=4
            let a = 1 + rng.next_below(2) as u32; // 1..=2
            let b = 1 + rng.next_below(2) as u32; // 1..=2
            let mut p = SlParams {
                a,
                b,
                m,
                chiplet: 1,
                wgroups: 1,
                mesh_width: 1,
                nodes_per_chip: 1.0,
            };
            if p.ab() > p.k() {
                continue;
            }
            p.wgroups = 1 + (rng.next_below(3) as u32 % p.max_wgroups().min(3));
            if p.validate().is_err() {
                continue;
            }
            let rate = 0.05 + 0.3 * (rng.next_below(1000) as f64 / 1000.0);
            let stride = [32u64, 64, 128, 256][rng.next_below(4) as usize];
            break (p, rate, stride);
        };
        let bench = Bench::switchless(&params, RouteMode::Minimal, VcScheme::Baseline);
        let pattern = bench.pattern(PatternSpec::Uniform, rate);
        let parts = 1 + rng.next_below(3) as usize;
        let out = Session::bench(&bench)
            .sim(cfg(parts, rng.next_below(2) == 1))
            .trace(TraceConfig {
                stride,
                ..TraceConfig::default()
            })
            .metrics(pattern.as_ref())
            .unwrap();
        let m = &out.report;
        let jsonl = &out.trace.as_ref().unwrap().jsonl;
        let (mut n, mut sum, mut max) = (0u64, 0u64, 0u64);
        for line in jsonl.lines().filter(|l| l.starts_with("{\"t\": \"lat\"")) {
            let v = Value::parse(line).unwrap();
            let field = |k: &str| v.get(k).and_then(read::as_u64).unwrap();
            n += field("n");
            sum += field("sum");
            max = max.max(field("max"));
        }
        let tag = format!("case {case}: {params:?} rate={rate} stride={stride} parts={parts}");
        assert_eq!(n, m.packets_ejected, "{tag}: Σ lat.n");
        assert_eq!(sum, m.latency_sum, "{tag}: Σ lat.sum");
        assert_eq!(max, m.latency_max, "{tag}: max lat.max");
    }
}
