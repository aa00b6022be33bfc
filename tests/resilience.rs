//! Resilience-subsystem invariants at the full-stack level.
//!
//! The acceptance bar for fault injection: every [`wsdf::Session::resilience`]
//! report field must be bit-identical across BSP partition counts
//! {1, 2, 4} × worker counts {1, 2, 4} on both evaluated topology
//! families, the zero-fault point must match the pristine sweep exactly,
//! and the detour discipline must survive saturation without deadlocking.

mod common;

use common::families;
use wsdf::exec::BspPool;
use wsdf::routing::PathVerdict;
use wsdf::sim::SimConfig;
use wsdf::topo::{FaultSet, FaultSpec};
use wsdf::{PatternSpec, ResilienceConfig, ResilienceReport, Session};

fn quick() -> ResilienceConfig {
    ResilienceConfig {
        fractions: vec![0.0, 0.15],
        collective_flits: 16,
        ..Default::default()
    }
}

fn sim(partitions: usize) -> SimConfig {
    SimConfig {
        partitions,
        ..SimConfig::default()
    }
    .scaled(0.08)
}

/// The headline determinism matrix: partitions {1,2,4} × workers {1,2,4},
/// both families, every report field bit-identical.
#[test]
fn resilience_reports_bit_identical_across_partitions_and_workers() {
    for (name, bench) in families() {
        let mut base: Option<ResilienceReport> = None;
        for parts in [1usize, 2, 4] {
            for workers in [1usize, 2, 4] {
                let pool = BspPool::new(workers);
                let r = Session::bench(&bench)
                    .pool(&pool)
                    .sim(sim(parts))
                    .resilience(&quick(), PatternSpec::Uniform)
                    .unwrap()
                    .report;
                match &base {
                    None => base = Some(r),
                    Some(b) => assert_eq!(
                        &r, b,
                        "[{name}] p={parts} w={workers} diverged from p=1 w=1"
                    ),
                }
            }
        }
        let base = base.unwrap();
        assert!(base.points[0].completion_cycles > 0);
        assert!(
            base.points[1].dead_links > 0,
            "[{name}] 15% faults must kill links: {:?}",
            base.points[1]
        );
    }
}

/// The zero-fault point is the pristine path: identical to an ordinary
/// sweep at the same rate, on both families.
#[test]
fn zero_fault_point_matches_pristine_sweep_on_both_families() {
    for (name, bench) in families() {
        let cfg = quick();
        let pool = BspPool::new(1);
        let report = Session::bench(&bench)
            .pool(&pool)
            .sim(sim(1))
            .resilience(&cfg, PatternSpec::Uniform)
            .unwrap()
            .report;
        let p0 = &report.points[0];
        let q = Session::bench(&bench)
            .pool(&pool)
            .sim(sim(1))
            .sweep(PatternSpec::Uniform, &[cfg.rate_chip])
            .unwrap()
            .report
            .pop()
            .unwrap();
        assert_eq!(p0.accepted_chip, q.accepted_chip, "[{name}]");
        assert_eq!(p0.latency, q.latency, "[{name}]");
        assert_eq!(p0.p50, q.p50, "[{name}]");
        assert_eq!(p0.p99, q.p99, "[{name}]");
        assert_eq!(p0.delivered, q.delivered, "[{name}]");
    }
}

/// Saturating a degraded fabric must congest, not deadlock: the detour
/// discipline (up*/down* over the live graph, up-phase VC 0 → down-phase
/// VC 1) keeps the channel dependency graph acyclic at any load.
#[test]
fn degraded_fabric_saturates_without_deadlock() {
    let (_, bench) = families().swap_remove(0);
    let fs = FaultSet::sample(
        bench.fabric.net(),
        &FaultSpec {
            link_fraction: 0.15,
            router_fraction: 0.08,
            ..Default::default()
        },
    );
    assert!(!fs.is_empty());
    let fb = bench.with_fault_set(&fs);
    let mut sim = SimConfig::default().scaled(0.1);
    sim.drain_cycles = 100;
    // Far past saturation for a degraded W-group.
    let pattern = fb.pattern(PatternSpec::Uniform, 0.8);
    let m = Session::bench(&fb)
        .sim(sim)
        .metrics(pattern.as_ref())
        .expect("must not deadlock")
        .report;
    assert!(m.packets_ejected > 0);
    assert!(!m.deadlocked);
}

/// The detour oracle's verdicts agree with the reach map the patterns use:
/// a routable pair really walks, an unreachable one is flagged.
#[test]
fn verdicts_and_reach_map_agree_on_degraded_wgroup() {
    let (_, bench) = families().swap_remove(0);
    let fs = FaultSet::sample(
        bench.fabric.net(),
        &FaultSpec {
            router_fraction: 0.12,
            ..Default::default()
        },
    );
    let oracle = wsdf::routing::DetourOracle::build(bench.fabric.net(), fs.map());
    let reach = oracle.reach_map();
    let n = bench.endpoints();
    let mut unreachable = 0u64;
    for s in 0..n {
        for d in 0..n {
            if s == d {
                continue;
            }
            match oracle.verdict(s, d) {
                PathVerdict::Routed => assert!(reach.routable(s, d)),
                PathVerdict::Unreachable => {
                    assert!(!reach.routable(s, d));
                    unreachable += 1;
                }
            }
        }
    }
    assert_eq!(unreachable, reach.unreachable_pairs());
    assert!(unreachable > 0, "12% router faults must strand endpoints");
}
