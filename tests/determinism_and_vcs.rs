//! Cross-crate invariants: BSP determinism on a real fabric, seed
//! stability, deadlock freedom of every routing discipline near
//! saturation, and flit conservation.

use wsdf::routing::{RouteMode, VcScheme};
use wsdf::sim::SimConfig;
use wsdf::sim::{Metrics, TrafficPattern};
use wsdf::topo::{SlParams, SwParams};
use wsdf::{AdaptiveConfig, Bench, PatternSpec, Session};

fn run(bench: &Bench, cfg: &SimConfig, pat: &dyn TrafficPattern) -> Metrics {
    Session::bench(bench)
        .sim(cfg.clone())
        .metrics(pat)
        .unwrap()
        .report
}

fn cfg(partitions: usize) -> SimConfig {
    SimConfig {
        warmup_cycles: 400,
        measure_cycles: 800,
        drain_cycles: 400,
        partitions,
        ..Default::default()
    }
}

/// The engine must produce bit-identical metrics no matter how the fabric
/// is partitioned (sequential, 3-way, 8-way).
#[test]
fn bsp_partitioning_is_invisible() {
    let p = SlParams::radix16().with_wgroups(2);
    let bench = Bench::switchless(&p, RouteMode::Minimal, VcScheme::Baseline);
    let pattern = bench.pattern(PatternSpec::Uniform, 0.15);
    let runs: Vec<_> = [1usize, 3, 8]
        .iter()
        .map(|&parts| run(&bench, &cfg(parts), pattern.as_ref()))
        .collect();
    for m in &runs[1..] {
        assert_eq!(m.packets_created, runs[0].packets_created);
        assert_eq!(m.packets_ejected, runs[0].packets_ejected);
        assert_eq!(m.latency_sum, runs[0].latency_sum);
        assert_eq!(m.class_hops.total(), runs[0].class_hops.total());
    }
}

/// Partition counts {1, 2, 4, 7} must produce bit-identical `Metrics` on
/// both evaluated topology families — the invariant the monomorphized
/// engine core and the per-partition delivery wheels must preserve. Every
/// counter is compared, including the optional per-endpoint/per-channel
/// vectors.
#[test]
fn partitions_bit_identical_on_both_topologies() {
    let benches: Vec<(&str, Bench, f64)> = vec![
        (
            "switchless",
            Bench::switchless(
                &SlParams::radix16().with_wgroups(2),
                RouteMode::Minimal,
                VcScheme::Baseline,
            ),
            0.12,
        ),
        (
            "switchbased",
            Bench::switchbased(&SwParams::radix16().with_groups(3), RouteMode::Minimal),
            0.25,
        ),
    ];
    for (name, bench, rate) in benches {
        let pattern = bench.pattern(PatternSpec::Uniform, rate);
        let run = |parts: usize| {
            let mut c = cfg(parts);
            c.per_endpoint_stats = true;
            c.per_channel_stats = true;
            run(&bench, &c, pattern.as_ref())
        };
        let base = run(1);
        assert!(base.packets_ejected > 0, "{name}: no traffic delivered");
        for parts in [2usize, 4, 7] {
            let m = run(parts);
            assert_eq!(m.packets_created, base.packets_created, "{name} p={parts}");
            assert_eq!(m.packets_ejected, base.packets_ejected, "{name} p={parts}");
            assert_eq!(m.latency_sum, base.latency_sum, "{name} p={parts}");
            assert_eq!(m.latency_max, base.latency_max, "{name} p={parts}");
            assert_eq!(
                m.flits_injected_measured, base.flits_injected_measured,
                "{name} p={parts}"
            );
            assert_eq!(
                m.flits_ejected_measured, base.flits_ejected_measured,
                "{name} p={parts}"
            );
            assert_eq!(
                m.class_hops.flit_hops, base.class_hops.flit_hops,
                "{name} p={parts}"
            );
            assert_eq!(
                m.ejected_per_endpoint, base.ejected_per_endpoint,
                "{name} p={parts}"
            );
            assert_eq!(
                m.flits_per_channel, base.flits_per_channel,
                "{name} p={parts}"
            );
            assert_eq!(m.latency_hist, base.latency_hist, "{name} p={parts}");
            assert_eq!(m.deadlocked, base.deadlocked, "{name} p={parts}");
        }
    }
}

/// The executor must be invisible too: partitions {1, 2, 4, 7} × worker
/// counts {1, 2, 4} must all produce bit-identical `Metrics` on both
/// topology families. Partition invariance is the BSP/mailbox contract;
/// worker invariance is the `BspPool` contract (a broadcast only hands out
/// slot indices — it never re-splits or re-orders work). Worker pools are
/// created explicitly so the matrix is exercised even on one-core CI boxes
/// (threads need not map to distinct cores for determinism).
#[test]
fn determinism_matrix_partitions_x_workers() {
    use wsdf::exec::BspPool;
    let pools: Vec<BspPool> = [1usize, 2, 4].into_iter().map(BspPool::new).collect();
    let benches: Vec<(&str, Bench, f64)> = vec![
        (
            "switchless",
            Bench::switchless(
                &SlParams::radix16().with_wgroups(2),
                RouteMode::Minimal,
                VcScheme::Baseline,
            ),
            0.12,
        ),
        (
            "switchbased",
            Bench::switchbased(&SwParams::radix16().with_groups(3), RouteMode::Minimal),
            0.25,
        ),
    ];
    // Shorter windows than the partition-only test: the matrix multiplies
    // run count by 12 and determinism does not need long measurements.
    let quick = |parts: usize| SimConfig {
        warmup_cycles: 150,
        measure_cycles: 300,
        drain_cycles: 150,
        partitions: parts,
        ..Default::default()
    };
    for (name, bench, rate) in benches {
        let pattern = bench.pattern(PatternSpec::Uniform, rate);
        let base = Session::bench(&bench)
            .sim(quick(1))
            .pool(&pools[0])
            .metrics(pattern.as_ref())
            .unwrap()
            .report;
        assert!(base.packets_ejected > 0, "{name}: no traffic delivered");
        for parts in [1usize, 2, 4, 7] {
            for pool in &pools {
                let w = pool.workers();
                let m = Session::bench(&bench)
                    .sim(quick(parts))
                    .pool(pool)
                    .metrics(pattern.as_ref())
                    .unwrap()
                    .report;
                assert_eq!(
                    m.packets_created, base.packets_created,
                    "{name} p={parts} w={w}"
                );
                assert_eq!(
                    m.packets_ejected, base.packets_ejected,
                    "{name} p={parts} w={w}"
                );
                assert_eq!(m.latency_sum, base.latency_sum, "{name} p={parts} w={w}");
                assert_eq!(m.latency_max, base.latency_max, "{name} p={parts} w={w}");
                assert_eq!(
                    m.flits_injected_measured, base.flits_injected_measured,
                    "{name} p={parts} w={w}"
                );
                assert_eq!(
                    m.flits_ejected_measured, base.flits_ejected_measured,
                    "{name} p={parts} w={w}"
                );
                assert_eq!(
                    m.class_hops.flit_hops, base.class_hops.flit_hops,
                    "{name} p={parts} w={w}"
                );
            }
        }
    }
}

/// Explicit router→partition maps are invisible: on both families and
/// both stepping modes, the bench default (the locality partitioner), an
/// explicit contiguous-blocks map, and an explicit locality map must all
/// reproduce the sequential baseline bit-for-bit at partition counts
/// {2, 4} × worker counts {1, 4}. This is the assignment-freedom half of
/// the BSP contract: `partitions_bit_identical_on_both_topologies` varies
/// the partition *count*, this test varies the *assignment* (and routes
/// it through the sparse exchange in a different adjacency every time).
#[test]
fn partition_maps_bit_identical() {
    use std::sync::Arc;
    use wsdf::exec::BspPool;
    use wsdf::topo::{contiguous_blocks, locality_partition};
    let pools: Vec<BspPool> = [1usize, 4].into_iter().map(BspPool::new).collect();
    let benches: Vec<(&str, Bench, f64)> = vec![
        (
            "switchless",
            Bench::switchless(
                &SlParams::radix16().with_wgroups(2),
                RouteMode::Minimal,
                VcScheme::Baseline,
            ),
            0.12,
        ),
        (
            "switchbased",
            Bench::switchbased(&SwParams::radix16().with_groups(3), RouteMode::Minimal),
            0.25,
        ),
    ];
    let quick = |parts: usize, event: bool| SimConfig {
        warmup_cycles: 100,
        measure_cycles: 200,
        drain_cycles: 100,
        partitions: parts,
        event_driven: event,
        ..Default::default()
    };
    for (name, bench, rate) in benches {
        let net = bench.fabric.net();
        let pattern = bench.pattern(PatternSpec::Uniform, rate);
        for event in [false, true] {
            let base = Session::bench(&bench)
                .sim(quick(1, event))
                .pool(&pools[0])
                .metrics(pattern.as_ref())
                .unwrap()
                .report;
            assert!(base.packets_ejected > 0, "{name}: no traffic delivered");
            for parts in [2usize, 4] {
                let maps: Vec<(&str, Option<Vec<u32>>)> = vec![
                    ("default", None),
                    ("blocks", Some(contiguous_blocks(net, parts))),
                    ("locality", Some(locality_partition(net, parts, None))),
                ];
                for (scheme, map) in maps {
                    for pool in &pools {
                        let w = pool.workers();
                        let mut c = quick(parts, event);
                        c.partition_map = map.clone().map(Arc::new);
                        let m = Session::bench(&bench)
                            .sim(c)
                            .pool(pool)
                            .metrics(pattern.as_ref())
                            .unwrap()
                            .report;
                        let tag = format!("{name} ev={event} p={parts} map={scheme} w={w}");
                        assert_eq!(m.packets_created, base.packets_created, "{tag}");
                        assert_eq!(m.packets_ejected, base.packets_ejected, "{tag}");
                        assert_eq!(m.latency_sum, base.latency_sum, "{tag}");
                        assert_eq!(m.latency_max, base.latency_max, "{tag}");
                        assert_eq!(
                            m.flits_injected_measured, base.flits_injected_measured,
                            "{tag}"
                        );
                        assert_eq!(
                            m.flits_ejected_measured, base.flits_ejected_measured,
                            "{tag}"
                        );
                        assert_eq!(m.class_hops.flit_hops, base.class_hops.flit_hops, "{tag}");
                        assert_eq!(m.latency_hist, base.latency_hist, "{tag}");
                    }
                }
            }
        }
    }
}

/// The adaptive bisection sweep must be bit-identical across partition
/// counts {1, 2, 4} on both topology families: the driver's rate
/// decisions depend only on merged metrics, which the BSP contract makes
/// partition-invariant — so the whole search trajectory (every probed
/// rate, every percentile, the final saturation estimate) must reproduce
/// exactly.
#[test]
fn adaptive_sweep_bit_identical_across_partitions() {
    let benches: Vec<(&str, Bench)> = vec![
        (
            "switchless",
            Bench::switchless(
                &SlParams::radix16().with_wgroups(1),
                RouteMode::Minimal,
                VcScheme::Baseline,
            ),
        ),
        (
            "switchbased",
            Bench::switchbased(&SwParams::radix16().with_groups(1), RouteMode::Minimal),
        ),
    ];
    for (name, bench) in benches {
        let run = |parts: usize| {
            let sim = SimConfig {
                partitions: parts,
                ..SimConfig::default()
            }
            .scaled(0.1);
            let cfg = AdaptiveConfig {
                start_chip: 0.2,
                max_points: 16,
                ..Default::default()
            };
            Session::bench(&bench)
                .sim(sim)
                .adaptive(&cfg, PatternSpec::Uniform)
                .unwrap()
                .report
        };
        let base = run(1);
        assert!(base.points.len() >= 3, "{name}: sweep too short");
        assert!(base.sat_chip > 0.0, "{name}: no saturation estimate");
        for parts in [2usize, 4] {
            let m = run(parts);
            assert_eq!(m, base, "{name} p={parts}: adaptive sweep diverged");
        }
    }
}

/// Different seeds give different (but sane) results; same seed repeats.
#[test]
fn seed_stability() {
    let p = SlParams::radix16().with_wgroups(1);
    let bench = Bench::switchless(&p, RouteMode::Minimal, VcScheme::Baseline);
    // Keep well below the knee: near saturation the latency estimate is
    // noisy at short windows and seed comparisons get meaningless.
    let pattern = bench.pattern(PatternSpec::Uniform, 0.08);
    let mut c1 = cfg(1);
    c1.seed = 1;
    let a = run(&bench, &c1, pattern.as_ref());
    let b = run(&bench, &c1, pattern.as_ref());
    assert_eq!(a.latency_sum, b.latency_sum, "same seed must repeat");
    let mut c2 = cfg(1);
    c2.seed = 2;
    let c = run(&bench, &c2, pattern.as_ref());
    assert_ne!(a.latency_sum, c.latency_sum, "different seed must differ");
    // But statistics must agree.
    let la = a.avg_latency().unwrap();
    let lc = c.avg_latency().unwrap();
    assert!((la - lc).abs() / la < 0.2, "{la} vs {lc}");
}

/// Every (mode, scheme) combination of the switch-less oracle survives a
/// near-saturation run with the deadlock watchdog armed. This is the
/// empirical arm of the paper's deadlock-freedom claims (the analytic arm
/// is the up*/down* legality test in wsdf-routing).
#[test]
fn no_deadlock_near_saturation_all_schemes() {
    let p = SlParams::radix16().with_wgroups(5);
    for (mode, scheme) in [
        (RouteMode::Minimal, VcScheme::Baseline),
        (RouteMode::Minimal, VcScheme::Reduced),
        (RouteMode::Valiant, VcScheme::Baseline),
        (RouteMode::Valiant, VcScheme::Reduced),
    ] {
        let bench = Bench::switchless(&p, mode, scheme);
        // Push well past saturation: source queues overflow but flits must
        // keep moving.
        let pattern = bench.pattern(PatternSpec::Uniform, 0.6);
        let m = Session::bench(&bench)
            .sim(cfg(0))
            .metrics(pattern.as_ref())
            .unwrap_or_else(|e| panic!("{mode:?}/{scheme:?}: {e}"))
            .report;
        assert!(!m.deadlocked, "{mode:?}/{scheme:?} deadlocked");
        assert!(m.packets_ejected > 0);
    }
}

/// Same for the switch-based baseline.
#[test]
fn no_deadlock_switchbased() {
    let p = SwParams::radix16().with_groups(5);
    for mode in [RouteMode::Minimal, RouteMode::Valiant] {
        let bench = Bench::switchbased(&p, mode);
        let pattern = bench.pattern(PatternSpec::WorstCase, 0.8);
        let m = run(&bench, &cfg(0), pattern.as_ref());
        assert!(!m.deadlocked);
    }
}

/// Flit conservation: below saturation with a drain phase, everything
/// created is delivered.
#[test]
fn flit_conservation_below_saturation() {
    let p = SlParams::radix16().with_wgroups(2);
    let bench = Bench::switchless(&p, RouteMode::Minimal, VcScheme::Baseline);
    let pattern = bench.pattern(PatternSpec::Uniform, 0.1);
    let mut c = cfg(1);
    c.drain_cycles = 20_000; // effectively unlimited; early-exits when empty
    let m = run(&bench, &c, pattern.as_ref());
    assert_eq!(
        m.packets_created, m.packets_ejected,
        "all measured packets must drain"
    );
}

/// The Reduced scheme really runs with fewer VCs (the paper's claim),
/// at some throughput cost quantified by the ablation bench.
#[test]
fn reduced_scheme_uses_fewer_vcs() {
    let p = SlParams::radix16().with_wgroups(2);
    let base = Bench::switchless(&p, RouteMode::Valiant, VcScheme::Baseline);
    let redu = Bench::switchless(&p, RouteMode::Valiant, VcScheme::Reduced);
    assert!(redu.num_vcs() < base.num_vcs());
    // 6 vs 4 deadlock classes, times the HOL spread of 2.
    assert_eq!(base.num_vcs(), 12);
    assert_eq!(redu.num_vcs(), 8);
}
