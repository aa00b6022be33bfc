//! Engine microbenchmarks: router-cycle throughput, topology construction,
//! and small end-to-end simulations.

use criterion::{criterion_group, criterion_main, Bencher, BenchmarkId, Criterion};
use wsdf::routing::{DetourOracle, RouteMode, VcScheme};
use wsdf::workload::tenancy::ServingSpec;
use wsdf::{
    Bench, PartitionerKind, Partitioning, PatternSpec, ServingReport, Session, Workload,
    WorkloadReport, WorkloadUnits,
};
use wsdf_sim::{Metrics, SimConfig, Simulation, TrafficPattern};
use wsdf_topo::{FaultSet, FaultSpec, SlParams, SwParams, SwitchFabric, SwitchlessFabric};

fn quick_cfg() -> SimConfig {
    SimConfig {
        warmup_cycles: 50,
        measure_cycles: 200,
        drain_cycles: 0,
        ..Default::default()
    }
}

// Session-backed one-liners so every sample times the same frontend the
// harness uses (trace disabled — the zero-cost claim is part of what the
// baselines pin).
fn run(bench: &Bench, cfg: &SimConfig, pat: &dyn TrafficPattern) -> Metrics {
    Session::bench(bench)
        .sim(cfg.clone())
        .metrics(pat)
        .unwrap()
        .report
}

/// Time the stepping of one `quick_cfg` open-loop run alone. The config
/// is resolved once, as `Session::metrics` resolves it (the oracle's VC
/// count, the locality partition map); each sample then compiles a fresh
/// `Simulation` in the untimed setup, and the timed routine runs it. The
/// oracle is the bench's enum, matched on every route call, where a
/// session matches it once per run. One untimed run is checked against
/// `run`, so the row times the harness's simulation.
fn step_only(b: &mut Bencher, bench: &Bench, pat: &dyn TrafficPattern) {
    let mut cfg = quick_cfg();
    cfg.num_vcs = cfg.num_vcs.max(bench.num_vcs());
    Partitioning::Auto {
        partitions: cfg.partitions as u64,
        partitioner: PartitionerKind::Locality,
    }
    .apply(bench, &mut cfg)
    .unwrap();
    let pool = wsdf::exec::global_pool();
    let compile = || {
        Simulation::with_faults(bench.fabric.net(), &cfg, &bench.oracle, bench.fault_map()).unwrap()
    };
    assert_eq!(
        format!("{:?}", compile().run_on(pool, pat).unwrap()),
        format!("{:?}", run(bench, &quick_cfg(), pat)),
        "the compiled simulation differs from the session's"
    );
    b.iter_batched(compile, |mut sim| sim.run_on(pool, pat).unwrap());
}

fn run_workload(
    bench: &Bench,
    cfg: &SimConfig,
    wl: &Workload,
    units: &WorkloadUnits,
) -> WorkloadReport {
    Session::bench(bench)
        .sim(cfg.clone())
        .workload(wl, units)
        .unwrap()
        .report
}

fn run_serving(bench: &Bench, cfg: &SimConfig, spec: &ServingSpec) -> ServingReport {
    Session::bench(bench)
        .sim(cfg.clone())
        .serving(spec)
        .unwrap()
        .report
}

fn bench_topology_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("topology_build");
    g.sample_size(20);
    g.bench_function("switchless_radix16_full", |b| {
        let p = SlParams::radix16();
        b.iter(|| SwitchlessFabric::build(&p));
    });
    g.bench_function("switchbased_radix16_full", |b| {
        let p = SwParams::radix16();
        b.iter(|| SwitchFabric::build(&p));
    });
    g.finish();
}

/// Stepping alone: every sample compiles its `Simulation` untimed
/// (`step_only`).
fn bench_simulation_cycles(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulation");
    g.sample_size(10);
    for load in [0.2f64, 0.6] {
        g.bench_with_input(
            BenchmarkId::new("wgroup_uniform", format!("{load}")),
            &load,
            |b, &load| {
                let p = SlParams::radix16().with_wgroups(1);
                let bench = Bench::switchless(&p, RouteMode::Minimal, VcScheme::Baseline);
                let pat = bench.pattern(PatternSpec::Uniform, load);
                step_only(b, &bench, pat.as_ref());
            },
        );
    }
    g.bench_function("mesh4x4_uniform_0.5", |b| {
        let bench = Bench::single_mesh(4, 2, 1);
        let pat = bench.pattern(PatternSpec::Uniform, 0.5);
        step_only(b, &bench, pat.as_ref());
    });
    // The switch-based baseline's radix-16 switch: 16 ports × 16 VCs =
    // 256 input VCs, the router `serving_mix` runs, under a load that
    // keeps the switches busy.
    g.meta("load", 0.6);
    g.bench_function("switchbased_uniform", |b| {
        let bench = Bench::switchbased(&SwParams::radix16().with_groups(2), RouteMode::Minimal);
        let pat = bench.pattern(PatternSpec::Uniform, 0.6);
        step_only(b, &bench, pat.as_ref());
    });
    g.finish();
}

fn bench_parallel_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("bsp_partitions");
    g.sample_size(10);
    let p = SlParams::radix16().with_wgroups(5);
    let bench = Bench::switchless(&p, RouteMode::Minimal, VcScheme::Baseline);
    // All iterations share the one process-wide persistent executor
    // (wsdf_exec::global_pool), so this measures pure BSP cycle cost —
    // no thread creation is included in any sample.
    for parts in [1usize, 2, 4, 8] {
        g.meta("partitions", parts);
        g.bench_with_input(BenchmarkId::from_parameter(parts), &parts, |b, &parts| {
            let mut cfg = quick_cfg();
            cfg.partitions = parts;
            let pat = bench.pattern(PatternSpec::Uniform, 0.15);
            b.iter(|| run(&bench, &cfg, pat.as_ref()));
        });
    }
    g.finish();
}

fn bench_collectives(c: &mut Criterion) {
    let mut g = c.benchmark_group("collectives");
    g.sample_size(10);
    // One W-group of the radix-16 switch-less fabric, one participant per
    // chip — the same setup as `repro collectives`, at reduced payload.
    let p = SlParams::radix16().with_wgroups(1);
    let bench = Bench::switchless(&p, RouteMode::Minimal, VcScheme::Baseline);
    let participants: Vec<u32> = (0..bench.scope.num_chips())
        .map(|c| bench.scope.node_of(c, 0))
        .collect();
    let cases = [
        (
            "ring_allreduce_32x64",
            Workload::ring_allreduce(&participants, 64),
        ),
        ("all_to_all_32x4", Workload::all_to_all(&participants, 4)),
    ];
    for (name, wl) in cases {
        g.meta("workload", &wl.name);
        g.bench_function(name, |b| {
            let cfg = SimConfig::default();
            b.iter(|| run_workload(&bench, &cfg, &wl, &WorkloadUnits::default()));
        });
    }
    g.finish();
}

fn bench_resilience(c: &mut Criterion) {
    let mut g = c.benchmark_group("resilience");
    g.sample_size(10);
    // Same W-group as the simulation group; fraction 0 exercises the
    // pristine path through the fault-capable entry points (the zero-cost
    // claim), 0.1 the detour oracle + live-pattern filtering.
    let p = SlParams::radix16().with_wgroups(1);
    let bench = Bench::switchless(&p, RouteMode::Minimal, VcScheme::Baseline);
    for frac in [0.0f64, 0.1] {
        let fs = FaultSet::sample(
            bench.fabric.net(),
            &FaultSpec {
                link_fraction: frac,
                router_fraction: frac / 2.0,
                ..Default::default()
            },
        );
        let fb = bench.with_fault_set(&fs);
        g.meta("fault_fraction", frac);
        g.bench_with_input(
            BenchmarkId::new("wgroup_uniform_0.15", format!("{frac}")),
            &frac,
            |b, _| {
                let pat = fb.pattern(PatternSpec::Uniform, 0.15);
                b.iter(|| run(&fb, &quick_cfg(), pat.as_ref()));
            },
        );
    }
    g.finish();
}

fn bench_detour_build(c: &mut Criterion) {
    // The detour-oracle build alone, on the fabric and fault density of a
    // mid-sweep resilience point: every faulted point rebuilds it. The
    // switch-based fabric has few BFS levels and a high live degree.
    let net = SwitchlessFabric::build(&SlParams::radix16().with_wgroups(10)).net;
    let switched = SwitchFabric::build(&SwParams::radix16()).net;
    let spec = FaultSpec {
        link_fraction: 0.1,
        router_fraction: 0.05,
        ..Default::default()
    };
    let fs = FaultSet::sample(&net, &spec);
    let switched_fs = FaultSet::sample(&switched, &spec);
    let mut g = c.benchmark_group("routing");
    g.sample_size(20);
    g.meta("link_fraction", 0.1);
    g.bench_function("detour_build", |b| {
        b.iter(|| DetourOracle::build(&net, fs.map()));
    });
    g.bench_function("detour_build_switchbased", |b| {
        b.iter(|| DetourOracle::build(&switched, switched_fs.map()));
    });
    g.finish();
    // Sampling that fault set: link pairing, seeded draws and sealing.
    let mut g = c.benchmark_group("topo");
    g.sample_size(20);
    g.meta("link_fraction", 0.1);
    g.bench_function("fault_sample", |b| {
        b.iter(|| FaultSet::sample(&net, &spec));
    });
    g.finish();
}

fn bench_idle(c: &mut Criterion) {
    let mut g = c.benchmark_group("idle");
    g.sample_size(10);
    let p = SlParams::radix16().with_wgroups(1);
    let bench = Bench::switchless(&p, RouteMode::Minimal, VcScheme::Baseline);

    // Near-zero offered load over a long window: almost every cycle is
    // globally idle, so the event-driven engine fast-forwards across the
    // gaps between injections (the dense loop pays for every cycle). The
    // recorded busy/skipped split shows how much of the window was jumped.
    {
        let cfg = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 5000,
            drain_cycles: 300,
            ..SimConfig::default()
        };
        let pat = bench.pattern(PatternSpec::Uniform, 0.001);
        let m = run(&bench, &cfg, pat.as_ref());
        g.meta("busy_cycles", m.busy_cycles);
        g.meta("skipped_cycles", m.skipped_cycles);
        g.bench_function("zero_load_probe", |b| {
            b.iter(|| run(&bench, &cfg, pat.as_ref()));
        });
    }

    // Latency-bound closed-loop ring allreduce, one participant per
    // C-group: every ring hop crosses a latency-8 long-reach link, so
    // between a step's tail flit entering the link and its head arriving
    // the whole fabric goes quiet and the engine fast-forwards the gap.
    // (A ring over *adjacent chips* never records a skipped cycle: the
    // mesh-local pairs complete early and release their next step
    // immediately, keeping some agent's work due every single cycle —
    // that variant measures only the active-set win, not fast-forward.)
    {
        let participants: Vec<u32> = (0..bench.scope.num_chips())
            .step_by(bench.scope.chips_per_cgroup as usize)
            .map(|c| bench.scope.node_of(c, 0))
            .collect();
        let wl = Workload::ring_allreduce(&participants, 8);
        let cfg = SimConfig::default();
        let r = run_workload(&bench, &cfg, &wl, &WorkloadUnits::default());
        g.meta("busy_cycles", r.busy_cycles);
        g.meta("skipped_cycles", r.skipped_cycles);
        g.bench_function("drain_tail", |b| {
            b.iter(|| run_workload(&bench, &cfg, &wl, &WorkloadUnits::default()));
        });
    }

    // Heavy faults thin the live pairs out: what survives is sparse
    // traffic over a mostly idle fabric, the resilience sweep's common
    // case at the high-fraction end.
    {
        let fs = FaultSet::sample(
            bench.fabric.net(),
            &FaultSpec {
                link_fraction: 0.2,
                router_fraction: 0.1,
                ..Default::default()
            },
        );
        let fb = bench.with_fault_set(&fs);
        let cfg = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 2000,
            drain_cycles: 300,
            ..SimConfig::default()
        };
        let pat = fb.pattern(PatternSpec::Uniform, 0.02);
        let m = run(&fb, &cfg, pat.as_ref());
        g.meta("busy_cycles", m.busy_cycles);
        g.meta("skipped_cycles", m.skipped_cycles);
        g.bench_function("sparse_fault", |b| {
            b.iter(|| run(&fb, &cfg, pat.as_ref()));
        });
    }
    g.finish();
}

fn bench_serving(c: &mut Criterion) {
    use wsdf::workload::tenancy::{ArrivalProcess, ServingSpec};
    use wsdf_bench::serving::serving_mix;

    let mut g = c.benchmark_group("serving");
    g.sample_size(10);
    // Same W-group as the other groups; the `repro serving` class mix at
    // smoke payload. Light vs heavy Poisson pressure bounds the
    // multi-tenant scheduling overhead from a few in-flight jobs to an
    // admission-saturated fabric; the recorded job count pins what each
    // sample actually served.
    let p = SlParams::radix16().with_wgroups(1);
    let bench = Bench::switchless(&p, RouteMode::Minimal, VcScheme::Baseline);
    let cfg = SimConfig::default();
    for (name, rate) in [("light_arrival", 2.0f64), ("heavy_arrival", 20.0)] {
        let spec = ServingSpec {
            seed: 0x5E21,
            arrivals: ArrivalProcess::Poisson {
                rate_per_kcycle: rate,
                horizon: 1_500,
            },
            max_jobs: 16,
            classes: serving_mix(16, 6_400),
        };
        let r = run_serving(&bench, &cfg, &spec);
        g.meta(format!("jobs_{name}"), r.jobs.len());
        g.bench_function(name, |b| {
            b.iter(|| run_serving(&bench, &cfg, &spec));
        });
    }
    // The same fixed-trace mix on a 2%-degraded fabric: placements over
    // live endpoints plus detour routing under multi-tenant load.
    {
        let fs = FaultSet::sample(bench.fabric.net(), &FaultSpec::links(0.02, 13));
        let fb = bench.with_fault_set(&fs);
        let spec = ServingSpec {
            seed: 0x5E21,
            arrivals: ArrivalProcess::Trace {
                cycles: (0..12).map(|k| k * 200).collect(),
            },
            max_jobs: 64,
            classes: serving_mix(16, 6_400),
        };
        let r = run_serving(&fb, &cfg, &spec);
        g.meta("jobs_faulted", r.jobs.len());
        g.bench_function("faulted_trace", |b| {
            b.iter(|| run_serving(&fb, &cfg, &spec));
        });
    }
    g.finish();
}

fn bench_workload(c: &mut Criterion) {
    use wsdf::workload::tenancy::{build_jobs, ArrivalProcess, JobClass, Placement};

    let mut g = c.benchmark_group("workload");
    // perfbench's `serving_mix` at its seed 1 (arrival seed 104746): 200
    // jobs, one every 50 cycles, over the 1312 chips of the full radix-16
    // switch-based fabric, in three 16-chip classes. A sample
    // materializes the job set and validates every job, the workload
    // set-up a serving run does before its first cycle, and drops it.
    let bench = Bench::switchbased(&SwParams::radix16(), RouteMode::Minimal);
    let (chips, endpoints) = (bench.live_chips(), bench.endpoints());
    let class = |name: &str, collective: &str, flits, microbatches, placement| JobClass {
        name: name.into(),
        collective: collective.into(),
        flits,
        microbatches,
        participants: 16,
        placement,
        slo_cycles: 0,
        weight: 1.0,
    };
    let spec = ServingSpec {
        seed: 104_746,
        arrivals: ArrivalProcess::Trace {
            cycles: (0..200).map(|j| j * 50).collect(),
        },
        max_jobs: 200,
        classes: vec![
            class("allreduce", "ring_allreduce", 64, 1, Placement::Block),
            class("pipeline", "pipeline", 32, 4, Placement::Strided),
            class("shuffle", "all_to_all", 8, 1, Placement::Overlapping),
        ],
    };
    let materialize = || {
        let jobs = build_jobs(&spec, &chips).unwrap();
        for job in &jobs {
            job.workload.validate(endpoints).unwrap();
        }
        jobs
    };
    let messages: usize = materialize().iter().map(|j| j.workload.len()).sum();
    g.meta("messages", messages);
    g.bench_function("materialize_serving_mix", |b| b.iter(materialize));
    g.finish();
}

fn bench_exchange(c: &mut Criterion) {
    let mut g = c.benchmark_group("exchange");
    g.sample_size(10);
    // The largest fabric the locality partitioner strictly wins on in the
    // quality suite: radix-16 at 5 W-groups, 8 partitions. Same traffic,
    // same partition count — only the router→partition assignment (and
    // with it the sparse-exchange adjacency and boundary volume) differs,
    // so the timing delta is the barrier cost of the extra cut channels.
    let p = SlParams::radix16().with_wgroups(5);
    let bench = Bench::switchless(&p, RouteMode::Minimal, VcScheme::Baseline);
    let net = bench.fabric.net();
    let parts = 8usize;
    let schemes: Vec<(&str, Vec<u32>)> = vec![
        ("blocks", wsdf_topo::contiguous_blocks(net, parts)),
        ("locality", wsdf_topo::locality_partition(net, parts, None)),
    ];
    for (name, assign) in schemes {
        let stats = wsdf_topo::partition_stats(net, &assign, None);
        g.meta(format!("cut_channels_{name}"), stats.cut_channels);
        let mut cfg = quick_cfg();
        cfg.partition_map = Some(std::sync::Arc::new(assign));
        g.bench_with_input(BenchmarkId::new("uniform_0.15_p8", name), &cfg, |b, cfg| {
            let pat = bench.pattern(PatternSpec::Uniform, 0.15);
            b.iter(|| run(&bench, cfg, pat.as_ref()));
        });
    }
    g.finish();
}

fn bench_partition_quality(c: &mut Criterion) {
    let mut g = c.benchmark_group("partition_quality");
    g.sample_size(10);
    // Partitioner compile cost on the quality suite's large fabric, with
    // the achieved cut recorded next to the blocks baseline. This is
    // network-compile-time work (runs once per simulation), so the bar is
    // "cheap relative to a run", not "cheap per cycle".
    let p = SlParams::radix16().with_wgroups(5);
    let net = SwitchlessFabric::build(&p).net;
    for parts in [2usize, 8] {
        let blocks = wsdf_topo::contiguous_blocks(&net, parts);
        let locality = wsdf_topo::locality_partition(&net, parts, None);
        g.meta(
            format!("cut_blocks_p{parts}"),
            wsdf_topo::partition_stats(&net, &blocks, None).cut_channels,
        );
        g.meta(
            format!("cut_locality_p{parts}"),
            wsdf_topo::partition_stats(&net, &locality, None).cut_channels,
        );
        g.bench_with_input(BenchmarkId::new("locality", parts), &parts, |b, &parts| {
            b.iter(|| wsdf_topo::locality_partition(&net, parts, None));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_topology_build,
    bench_simulation_cycles,
    bench_parallel_scaling,
    bench_collectives,
    bench_resilience,
    bench_detour_build,
    bench_serving,
    bench_workload,
    bench_idle,
    bench_exchange,
    bench_partition_quality
);
criterion_main!(benches);
