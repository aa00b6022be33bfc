//! Dense vs event-driven stepping equivalence: the engine's event mode
//! (idle fast-forward, `SimConfig::event_driven`) must be a pure
//! scheduling optimization. Every metric — including the full latency
//! histogram and the optional per-endpoint/per-channel vectors — must be
//! bit-identical to the dense loop, across partition counts {1, 2, 4} ×
//! worker counts {1, 2, 4}, on both evaluated topology families, in both
//! the open-loop and the closed-loop (collective workload) schedules. The
//! only permitted divergence is the stepping accounting itself: dense
//! runs report `skipped_cycles == 0`, event runs split the same
//! `cycles_run` into busy + skipped — and that split is itself the same
//! in every partitions × workers cell.

mod common;

use std::sync::Arc;

use common::families;
use wsdf::exec::BspPool;
use wsdf::sim::{Metrics, SimConfig};
use wsdf::topo::contiguous_blocks;
use wsdf::{PatternSpec, Session, Workload, WorkloadUnits};

fn cfg(parts: usize, event: bool) -> SimConfig {
    SimConfig {
        warmup_cycles: 150,
        measure_cycles: 300,
        drain_cycles: 150,
        partitions: parts,
        per_endpoint_stats: true,
        per_channel_stats: true,
        event_driven: event,
        ..Default::default()
    }
}

/// Every observable metric must match; only the busy/skipped split may
/// differ, and it must satisfy its own invariants on both sides.
fn assert_equiv(dense: &Metrics, event: &Metrics, tag: &str) {
    assert_eq!(dense.cycles_run, event.cycles_run, "{tag}: cycles_run");
    assert_eq!(
        dense.measure_cycles, event.measure_cycles,
        "{tag}: measure_cycles"
    );
    assert_eq!(dense.endpoints, event.endpoints, "{tag}: endpoints");
    assert_eq!(
        dense.packets_created, event.packets_created,
        "{tag}: packets_created"
    );
    assert_eq!(
        dense.packets_ejected, event.packets_ejected,
        "{tag}: packets_ejected"
    );
    assert_eq!(dense.latency_sum, event.latency_sum, "{tag}: latency_sum");
    assert_eq!(dense.latency_max, event.latency_max, "{tag}: latency_max");
    assert_eq!(
        dense.latency_hist, event.latency_hist,
        "{tag}: latency_hist"
    );
    assert_eq!(
        dense.flits_injected_measured, event.flits_injected_measured,
        "{tag}: flits_injected_measured"
    );
    assert_eq!(
        dense.flits_ejected_measured, event.flits_ejected_measured,
        "{tag}: flits_ejected_measured"
    );
    assert_eq!(
        dense.class_hops.flit_hops, event.class_hops.flit_hops,
        "{tag}: class_hops"
    );
    assert_eq!(
        dense.ejected_per_endpoint, event.ejected_per_endpoint,
        "{tag}: ejected_per_endpoint"
    );
    assert_eq!(
        dense.flits_per_channel, event.flits_per_channel,
        "{tag}: flits_per_channel"
    );
    assert_eq!(dense.deadlocked, event.deadlocked, "{tag}: deadlocked");
    // Stepping accounting: the one permitted divergence.
    assert_eq!(dense.skipped_cycles, 0, "{tag}: dense must not skip");
    assert_eq!(
        dense.busy_cycles, dense.cycles_run,
        "{tag}: dense busy accounting"
    );
    assert_eq!(
        event.busy_cycles + event.skipped_cycles,
        event.cycles_run,
        "{tag}: event busy + skipped accounting"
    );
}

/// The event engine's `(busy_cycles, skipped_cycles)` split per
/// open-loop rate, for each family in [`families`]. It depends on neither
/// the partition nor the worker count.
fn open_loop_splits(name: &str) -> [(f64, (u64, u64)); 3] {
    match name {
        "switchless" => [(0.02, (99, 351)), (0.25, (515, 14)), (0.6, (595, 5))],
        "switchbased" => [(0.02, (59, 391)), (0.25, (454, 14)), (0.6, (471, 5))],
        _ => unreachable!("unknown family {name}"),
    }
}

/// Open-loop runs: dense and event metrics are bit-identical over the
/// full partitions × workers matrix on both topology families, at a
/// light load (idle stretches to fast-forward), a moderate one
/// (back-to-back work, most agents busy), and a saturating one
/// (exercises the storm regime: no fast-forward until the fabric
/// finally drains). The event split is pinned in every cell.
#[test]
fn open_loop_event_matches_dense_across_matrix() {
    let pools: Vec<BspPool> = [1usize, 2, 4].into_iter().map(BspPool::new).collect();
    for (name, bench) in families() {
        for (rate, split) in open_loop_splits(name) {
            let pattern = bench.pattern(PatternSpec::Uniform, rate);
            for parts in [1usize, 2, 4] {
                for pool in &pools {
                    let open_loop = |event: bool| {
                        Session::bench(&bench)
                            .sim(cfg(parts, event))
                            .pool(pool)
                            .metrics(pattern.as_ref())
                            .unwrap()
                            .report
                    };
                    let dense = open_loop(false);
                    let event = open_loop(true);
                    assert!(dense.packets_ejected > 0, "{name}: no traffic");
                    let tag = format!("{name} rate={rate} p={parts} w={}", pool.workers());
                    assert_equiv(&dense, &event, &tag);
                    assert_eq!(
                        (event.busy_cycles, event.skipped_cycles),
                        split,
                        "{tag}: event split"
                    );
                }
            }
        }
    }
}

/// At light open-loop load the event engine must actually fast-forward
/// over in-flight traffic — the optimization is observable through
/// `skipped_cycles`, not just a no-op flag. The load carries real packets,
/// so a jump that overshot pending work would change the split (or lose
/// the packets).
#[test]
fn light_load_actually_skips_cycles() {
    let (_, bench) = families().remove(0);
    let pattern = bench.pattern(PatternSpec::Uniform, 0.02);
    let m = Session::bench(&bench)
        .sim(cfg(1, true))
        .metrics(pattern.as_ref())
        .unwrap()
        .report;
    assert!(m.packets_ejected > 0, "no traffic at rate 0.02");
    assert_eq!(
        (m.busy_cycles, m.skipped_cycles),
        (99, 351),
        "busy/skipped split at light load"
    );
    assert_eq!(m.busy_cycles + m.skipped_cycles, m.cycles_run);
}

/// Closed-loop runs: the full `WorkloadReport` of a ring-allreduce — the
/// completion cycle above all — is bit-identical between dense and event
/// stepping over the same matrix, with multi-partition cells run under
/// the default locality map and under contiguous blocks. The stepping
/// counters are compared by their own invariants (they are the one
/// designed difference), and the event split is pinned in every cell.
#[test]
fn closed_loop_event_matches_dense_across_matrix() {
    let pools: Vec<BspPool> = [1usize, 2, 4].into_iter().map(BspPool::new).collect();
    for (name, bench) in families() {
        let split = match name {
            "switchless" => (645, 0),
            "switchbased" => (373, 2),
            _ => unreachable!("unknown family {name}"),
        };
        let participants: Vec<u32> = (0..bench.scope.num_chips())
            .map(|c| bench.scope.node_of(c, 0))
            .collect();
        let wl = Workload::ring_allreduce(&participants, 64);
        for parts in [1usize, 2, 4] {
            let mut maps = vec![("locality", None)];
            if parts > 1 {
                let blocks = contiguous_blocks(bench.fabric.net(), parts);
                maps.push(("blocks", Some(Arc::new(blocks))));
            }
            for (scheme, map) in &maps {
                for pool in &pools {
                    let run = |event: bool| {
                        Session::bench(&bench)
                            .sim(SimConfig {
                                partition_map: map.clone(),
                                ..cfg(parts, event)
                            })
                            .pool(pool)
                            .workload(&wl, &WorkloadUnits::default())
                            .unwrap()
                            .report
                    };
                    let dense = run(false);
                    let mut event = run(true);
                    let tag = format!(
                        "{name}/{} p={parts} map={scheme} w={}",
                        wl.name,
                        pool.workers()
                    );
                    assert!(dense.completion_cycles > 0, "{tag}: no completion");
                    assert_eq!(dense.busy_cycles, dense.completion_cycles, "{tag}");
                    assert_eq!(dense.skipped_cycles, 0, "{tag}");
                    assert_eq!(
                        event.busy_cycles + event.skipped_cycles,
                        event.completion_cycles,
                        "{tag}"
                    );
                    assert_eq!(
                        (event.busy_cycles, event.skipped_cycles),
                        split,
                        "{tag}: event split"
                    );
                    // Everything else must match exactly: normalize the
                    // stepping split and compare whole reports.
                    event.busy_cycles = dense.busy_cycles;
                    event.skipped_cycles = dense.skipped_cycles;
                    assert_eq!(event, dense, "{tag}: report diverged");
                }
            }
        }
    }
}
