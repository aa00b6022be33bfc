//! Per-figure-family benches at bounded scale: each paper experiment
//! family is exercised end-to-end (topology build → routing → simulation →
//! sweep) on configurations small enough for Criterion, so `cargo bench`
//! both times the engine on every workload shape and acts as a smoke test
//! for the whole harness. Full-scale regeneration lives in the `repro`
//! binary, not here.

use criterion::{criterion_group, criterion_main, Criterion};
use wsdf::routing::{RouteMode, VcScheme};
use wsdf::sim::SimConfig;
use wsdf::{AdaptiveConfig, Bench, PatternSpec, SaturationReport, Session, SweepPoint};
use wsdf_bench::{figures, Effort};
use wsdf_topo::{SlParams, SwParams};
use wsdf_traffic::{PermKind, RingDirection};

fn quick() -> SimConfig {
    SimConfig {
        partitions: 0,
        ..SimConfig::default()
    }
    .scaled(0.05)
}

fn sweep(bench: &Bench, spec: PatternSpec, rates: &[f64]) -> Vec<SweepPoint> {
    Session::bench(bench)
        .sim(quick())
        .sweep(spec, rates)
        .unwrap()
        .report
}

fn adaptive_sweep(bench: &Bench, spec: PatternSpec) -> SaturationReport {
    let cfg = AdaptiveConfig {
        start_chip: 0.2,
        ..Default::default()
    };
    Session::bench(bench)
        .sim(quick())
        .adaptive(&cfg, spec)
        .unwrap()
        .report
}

fn bench_small_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures_smoke");
    g.sample_size(10);
    g.bench_function("fig10ab", |b| b.iter(|| figures::fig10ab(Effort::Smoke)));
    g.bench_function("fig14", |b| b.iter(|| figures::fig14(Effort::Smoke)));
    g.finish();
}

fn bench_figure_families_reduced_scale(c: &mut Criterion) {
    // Fig. 11 family (global uniform) on a 5-W-group system.
    let mut g = c.benchmark_group("figure_families");
    g.sample_size(10);
    g.bench_function("global_uniform_5wg", |b| {
        let p = SlParams::radix16().with_wgroups(5);
        let bench = Bench::switchless(&p, RouteMode::Minimal, VcScheme::Baseline);
        b.iter(|| sweep(&bench, PatternSpec::Uniform, &[0.2, 0.4, 0.6]));
    });
    // Fig. 10(d) family: permutation traffic on one W-group.
    g.bench_function("local_bitreverse_1wg", |b| {
        let p = SlParams::radix16().with_wgroups(1);
        let bench = Bench::switchless(&p, RouteMode::Minimal, VcScheme::Baseline);
        b.iter(|| {
            sweep(
                &bench,
                PatternSpec::Permutation(PermKind::BitReverse),
                &[0.5, 1.0, 1.5],
            )
        });
    });
    // Fig. 13 family: worst-case + Valiant on 5 W-groups.
    g.bench_function("worstcase_valiant_5wg", |b| {
        let p = SlParams::radix16().with_wgroups(5);
        let bench = Bench::switchless(&p, RouteMode::Valiant, VcScheme::Baseline);
        b.iter(|| sweep(&bench, PatternSpec::WorstCase, &[0.15, 0.3]));
    });
    // Fig. 14 family: bidirectional W-group rings.
    g.bench_function("allreduce_bi_1wg", |b| {
        let p = SlParams::radix16().with_wgroups(1);
        let bench = Bench::switchless(&p, RouteMode::Minimal, VcScheme::Baseline);
        b.iter(|| {
            sweep(
                &bench,
                PatternSpec::RingWGroup(RingDirection::Bidirectional),
                &[0.6, 1.2],
            )
        });
    });
    // Baseline comparison path (switch-based Dragonfly).
    g.bench_function("switchbased_uniform_5grp", |b| {
        let p = SwParams::radix16().with_groups(5);
        let bench = Bench::switchbased(&p, RouteMode::Minimal);
        b.iter(|| sweep(&bench, PatternSpec::Uniform, &[0.3, 0.6]));
    });
    // Adaptive saturation search: the full two-phase driver (geometric
    // coarse scan + knee bisection) on one W-group — times the per-figure
    // cost of the grid-free workflow.
    g.bench_function("adaptive_saturation_1wg", |b| {
        let p = SlParams::radix16().with_wgroups(1);
        let bench = Bench::switchless(&p, RouteMode::Minimal, VcScheme::Baseline);
        b.iter(|| adaptive_sweep(&bench, PatternSpec::Uniform));
    });
    g.finish();
}

fn bench_vc_ablation(c: &mut Criterion) {
    // Baseline vs Reduced VC scheme at identical load: the engine-time
    // cost of the paper's VC reduction (the latency/throughput cost is
    // `repro ablation`).
    let mut g = c.benchmark_group("vc_ablation");
    g.sample_size(10);
    for (scheme, name) in [
        (VcScheme::Baseline, "baseline_4vc"),
        (VcScheme::Reduced, "reduced_3vc"),
    ] {
        g.bench_function(name, |b| {
            let p = SlParams::radix16().with_wgroups(1);
            let bench = Bench::switchless(&p, RouteMode::Minimal, scheme);
            b.iter(|| sweep(&bench, PatternSpec::Uniform, &[0.4, 0.8]));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_small_figures,
    bench_figure_families_reduced_scale,
    bench_vc_ablation
);
criterion_main!(benches);
