//! Counter-backed audit of the sparse boundary exchange.
//!
//! The engine compiles one mailbox per *adjacent* directed partition pair
//! (pairs sharing a live boundary channel) instead of a dense P×P grid.
//! These tests pin that contract down from the outside: the edge set
//! reported by [`Simulation::exchange_edges`] must equal the adjacency
//! computed independently from the `NetworkDesc`, the per-edge lifetime
//! counters must conserve (`written == drained + pending`), and a
//! non-adjacent pair must have no exchange state at all — there is no
//! cell a message could even be misrouted into.

use std::collections::BTreeSet;
use std::sync::Arc;

use wsdf::routing::{RouteMode, VcScheme};
use wsdf::sim::{NetworkDesc, RouteOracle, SimConfig, Simulation};
use wsdf::topo::{contiguous_blocks, locality_partition, FaultSet, FaultSpec, SlParams};
use wsdf::{Bench, PatternSpec};

/// Directed partition pairs that share at least one live router-router
/// channel under `assign`, computed from the network description alone.
/// Each boundary channel carries flits home(src)→home(dst) and credits
/// home(dst)→home(src), so both directions are adjacency edges.
/// Endpoints are colocated with their attach router, so injection and
/// ejection channels never cross a partition boundary.
fn expected_adjacency(
    net: &NetworkDesc,
    assign: &[u32],
    dead: impl Fn(usize) -> bool,
) -> BTreeSet<(u32, u32)> {
    let mut set = BTreeSet::new();
    for (c, ch) in net.channels.iter().enumerate() {
        if dead(c) {
            continue;
        }
        if let (Some(a), Some(b)) = (ch.src.router(), ch.dst.router()) {
            let (pa, pb) = (assign[a as usize], assign[b as usize]);
            if pa != pb {
                set.insert((pa, pb));
                set.insert((pb, pa));
            }
        }
    }
    set
}

/// Run `bench` under an explicit partition map, once per stepping mode,
/// and audit the exchange: edge set equality, counter conservation, and
/// real boundary traffic. Returns the observed edge set for extra
/// per-test assertions.
fn audit(bench: &Bench, assign: &[u32], rate: f64) -> BTreeSet<(u32, u32)> {
    audit_stepping(bench, assign, rate, false);
    audit_stepping(bench, assign, rate, true)
}

fn audit_stepping(
    bench: &Bench,
    assign: &[u32],
    rate: f64,
    event_driven: bool,
) -> BTreeSet<(u32, u32)> {
    let net = bench.fabric.net();
    let mut cfg = SimConfig {
        warmup_cycles: 100,
        measure_cycles: 300,
        drain_cycles: 2_000,
        partitions: 1, // ignored: the explicit map below wins
        event_driven,
        ..Default::default()
    };
    cfg.num_vcs = cfg.num_vcs.max(bench.oracle.num_vcs());
    cfg.partition_map = Some(Arc::new(assign.to_vec()));
    let pattern = bench.pattern(PatternSpec::Uniform, rate);
    let faults = bench.fault_map();
    let mut sim = Simulation::with_faults(net, &cfg, &bench.oracle, faults).unwrap();
    let m = sim.run(pattern.as_ref()).unwrap();
    assert!(m.packets_ejected > 0, "no traffic delivered");

    let expected = expected_adjacency(net, assign, |c| {
        faults.is_some_and(|f| f.channel_dead(c as u32))
    });
    let edges = sim.exchange_edges();
    let observed: BTreeSet<(u32, u32)> = edges.iter().map(|e| (e.src, e.dst)).collect();
    assert_eq!(
        edges.len(),
        observed.len(),
        "duplicate (src, dst) exchange edges"
    );
    assert_eq!(
        observed, expected,
        "exchange edges != partition adjacency of the network"
    );

    let p = sim.partitions() as u32;
    for e in &edges {
        assert!(e.src < p && e.dst < p && e.src != e.dst, "malformed edge");
        assert_eq!(
            e.written,
            e.drained + e.pending,
            "edge ({}, {}): {} written but {} drained + {} pending",
            e.src,
            e.dst,
            e.written,
            e.drained,
            e.pending
        );
    }
    let total: u64 = edges.iter().map(|e| e.written).sum();
    assert!(total > 0, "no messages ever crossed a partition boundary");
    observed
}

/// Contiguous blocks on a standalone mesh form strips: partition 0 and
/// partition 3 share no channel, so the exchange must have no (0, 3)
/// edge — and the whole edge set must be strictly sparser than the dense
/// P×(P−1) grid the old mailbox walk allocated.
#[test]
fn mesh_blocks_exchange_is_adjacent_only() {
    let bench = Bench::single_mesh(8, 1, 1);
    let net = bench.fabric.net();
    let assign = contiguous_blocks(net, 4);
    let observed = audit(&bench, &assign, 0.1);
    assert!(
        observed.len() < 4 * 3,
        "strip partitioning must be sparse, got {} of 12 pairs",
        observed.len()
    );
    assert!(
        !observed.contains(&(0, 3)) && !observed.contains(&(3, 0)),
        "opposite strips are not adjacent but the exchange connects them"
    );
}

/// Same audit under the locality partitioner (quads on a square mesh are
/// also strictly sparse: diagonal quads share no channel).
#[test]
fn mesh_locality_exchange_is_adjacent_only() {
    let bench = Bench::single_mesh(8, 1, 1);
    let net = bench.fabric.net();
    let assign = locality_partition(net, 4, None);
    let observed = audit(&bench, &assign, 0.1);
    assert!(
        observed.len() < 4 * 3,
        "quad partitioning must be sparse, got {} of 12 pairs",
        observed.len()
    );
}

/// The switch-less fabric under both assignment schemes: whatever the
/// adjacency turns out to be, it must match the independent computation
/// and conserve counters (the audit does both).
#[test]
fn switchless_exchange_matches_adjacency_both_schemes() {
    let bench = Bench::switchless(
        &SlParams::radix16().with_wgroups(2),
        RouteMode::Minimal,
        VcScheme::Baseline,
    );
    let net = bench.fabric.net();
    for parts in [3usize, 5] {
        audit(&bench, &contiguous_blocks(net, parts), 0.12);
        audit(&bench, &locality_partition(net, parts, None), 0.12);
    }
}

/// An adversarial hand-built map — interleaved strips assigned 0,1,2,0 so
/// partition 0 is split across two far-apart regions — must still produce
/// exactly the adjacency the channels imply (the engine never assumes
/// partitions are contiguous or connected).
#[test]
fn disconnected_partition_map_still_audits_clean() {
    let bench = Bench::single_mesh(8, 1, 1);
    let net = bench.fabric.net();
    let nr = net.num_routers();
    let assign: Vec<u32> = (0..nr).map(|r| ((r * 4 / nr) % 3) as u32).collect();
    audit(&bench, &assign, 0.1);
}

/// The fault path: dead channels are compiled out of the exchange, so the
/// adjacency must be recomputed over *live* channels only, and the
/// locality partitioner's fault-aware map must audit clean end to end.
#[test]
fn faulted_exchange_matches_live_adjacency() {
    let pristine = Bench::switchless(
        &SlParams::radix16().with_wgroups(2),
        RouteMode::Minimal,
        VcScheme::Baseline,
    );
    let fs = FaultSet::sample(
        pristine.fabric.net(),
        &FaultSpec {
            link_fraction: 0.10,
            router_fraction: 0.05,
            ..Default::default()
        },
    );
    let bench = pristine.with_fault_set(&fs);
    let net = bench.fabric.net();
    let assign = locality_partition(net, 4, bench.fault_map());
    audit(&bench, &assign, 0.12);
}
