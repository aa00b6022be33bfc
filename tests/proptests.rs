//! Property-based tests over random configurations, traffic and routes.
//!
//! The build environment is offline, so instead of the `proptest` crate
//! these use a small deterministic sampling harness: every test draws a
//! fixed number of random cases from a seeded [`SplitMix64`] stream and
//! asserts the property on each. Failures print the offending case, and
//! runs are bit-reproducible.

use wsdf::routing::{PortMap, RouteMode, SlOracle, SwOracle, VcScheme, Walker};
use wsdf::sim::flit::NO_INTERMEDIATE;
use wsdf::sim::{LatencyHistogram, SimConfig, SplitMix64, TrafficPattern};
use wsdf::topo::{SlParams, SwParams, SwitchFabric, SwitchlessFabric};
use wsdf::traffic::{PermKind, PermutationPattern, RingAllReduce, RingDirection, Scope};
use wsdf::{Bench, PatternSpec};

/// Cases per property (mirrors the old `ProptestConfig::with_cases(24)`).
const CASES: usize = 24;

/// Draw until `gen` produces a valid case, with a sanity bound.
fn draw<T>(rng: &mut SplitMix64, mut gen: impl FnMut(&mut SplitMix64) -> Option<T>) -> T {
    for _ in 0..10_000 {
        if let Some(v) = gen(rng) {
            return v;
        }
    }
    panic!("case generator rejected 10000 draws in a row");
}

/// Random small-but-valid switch-less configurations.
fn sl_params(rng: &mut SplitMix64) -> Option<SlParams> {
    let m = 2 + rng.next_below(4) as u32; // 2..=5
    let a = 1 + rng.next_below(3) as u32; // 1..=3
    let b = 1 + rng.next_below(3) as u32; // 1..=3
    let wg_seed = 1 + rng.next_below(4) as u32; // 1..=4
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
        return None;
    }
    let max = p.max_wgroups();
    p.wgroups = 1 + (wg_seed % max.min(6));
    p.validate().ok()?;
    Some(p)
}

/// Random switch-based configurations.
fn sw_params(rng: &mut SplitMix64) -> Option<SwParams> {
    let t = 1 + rng.next_below(4) as u32; // 1..=4
    let l = 1 + rng.next_below(7) as u32; // 1..=7
    let g = rng.next_below(5) as u32; // 0..=4
    let grp_seed = 1 + rng.next_below(5) as u32; // 1..=5
    let mut p = SwParams {
        terminals: t,
        locals: l,
        globals: g,
        groups: 1,
    };
    let max = p.max_groups();
    p.groups = 1 + (grp_seed % max.min(6));
    if p.groups > 1 && g == 0 {
        return None;
    }
    p.validate().ok()?;
    Some(p)
}

/// Any valid switch-less config builds a structurally valid network whose
/// router/endpoint counts match the arithmetic.
#[test]
fn switchless_builds_consistently() {
    let mut rng = SplitMix64::new(0x5EED_0001);
    for _ in 0..CASES {
        let p = draw(&mut rng, sl_params);
        let f = SwitchlessFabric::build(&p);
        assert_eq!(f.net.num_routers() as u32, p.num_routers(), "{p:?}");
        assert_eq!(f.net.num_endpoints() as u32, p.num_endpoints(), "{p:?}");
        assert!(f.net.validate().is_ok(), "{p:?}");
    }
}

/// Minimal routing delivers random pairs on random fabrics, within the
/// Eq. (7) hop structure.
#[test]
fn switchless_minimal_routes_random_pairs() {
    let mut rng = SplitMix64::new(0x5EED_0002);
    for _ in 0..CASES {
        let p = draw(&mut rng, sl_params);
        let f = SwitchlessFabric::build(&p);
        let map = PortMap::new(&f.net);
        let o = SlOracle::minimal(&p);
        let walker = Walker::new(&map, &o);
        let n = p.num_endpoints();
        for _ in 0..16 {
            let s = rng.next_below(n as u64) as u32;
            let d = rng.next_below(n as u64) as u32;
            if s == d {
                continue;
            }
            let t = walker
                .walk(s, d, NO_INTERMEDIATE)
                .unwrap_or_else(|e| panic!("{p:?}: {e}"));
            assert!(
                t.hops_of(wsdf::sim::ChannelClass::LongReachGlobal) <= 1,
                "{p:?}"
            );
            assert!(
                t.hops_of(wsdf::sim::ChannelClass::LongReachLocal) <= 2,
                "{p:?}"
            );
        }
    }
}

/// Same for the Reduced scheme wherever it is applicable (h ≥ m).
#[test]
fn switchless_reduced_routes_random_pairs() {
    let mut rng = SplitMix64::new(0x5EED_0003);
    for _ in 0..CASES {
        let p = draw(&mut rng, |r| sl_params(r).filter(|p| p.h() >= p.m));
        let f = SwitchlessFabric::build(&p);
        let map = PortMap::new(&f.net);
        let o = SlOracle::new(&p, RouteMode::Minimal, VcScheme::Reduced);
        let walker = Walker::new(&map, &o);
        let n = p.num_endpoints();
        for _ in 0..12 {
            let s = rng.next_below(n as u64) as u32;
            let d = rng.next_below(n as u64) as u32;
            if s == d {
                continue;
            }
            walker
                .walk(s, d, NO_INTERMEDIATE)
                .unwrap_or_else(|e| panic!("{p:?}: {e}"));
        }
    }
}

/// Switch-based minimal routing: random fabrics, random pairs, ≤ 3 switch
/// hops.
#[test]
fn switchbased_minimal_routes_random_pairs() {
    let mut rng = SplitMix64::new(0x5EED_0004);
    for _ in 0..CASES {
        let p = draw(&mut rng, |r| {
            sw_params(r).filter(|p| p.num_endpoints() >= 2)
        });
        let f = SwitchFabric::build(&p);
        let map = PortMap::new(&f.net);
        let o = SwOracle::minimal(&p);
        let walker = Walker::new(&map, &o);
        let n = p.num_endpoints();
        for _ in 0..16 {
            let s = rng.next_below(n as u64) as u32;
            let d = rng.next_below(n as u64) as u32;
            if s == d {
                continue;
            }
            let t = walker
                .walk(s, d, NO_INTERMEDIATE)
                .unwrap_or_else(|e| panic!("{p:?}: {e}"));
            assert!(t.network_hops() <= 3, "{p:?}: {s} → {d}");
        }
    }
}

/// Permutation patterns always produce in-range, non-self destinations.
#[test]
fn permutations_produce_valid_destinations() {
    let mut rng = SplitMix64::new(0x5EED_0005);
    for _ in 0..CASES {
        let n = 2 + rng.next_below(510) as u32; // 2..512
        let kind = [
            PermKind::BitReverse,
            PermKind::BitShuffle,
            PermKind::BitTranspose,
        ][rng.next_below(3) as usize];
        let pat = PermutationPattern::new(kind, n, 0.5);
        for src in 0..n {
            if let Some(d) = pat.dest(src, 0, &mut rng) {
                assert!(d < n, "{kind:?} n={n} src={src} dst={d}");
                assert_ne!(d, src, "{kind:?} n={n}");
            } else {
                assert_eq!(pat.rate(src), 0.0, "{kind:?} n={n} src={src}");
            }
        }
    }
}

/// Ring patterns are permutations per direction: every endpoint has a
/// unique successor within its unit, at the same intra-chip position.
#[test]
fn ring_is_bijective() {
    let mut rng = SplitMix64::new(0x5EED_0006);
    for _ in 0..CASES {
        let p = draw(&mut rng, |r| {
            let mut p = sl_params(r).filter(|p| p.m % 2 == 0)?;
            p.chiplet = p.m / 2;
            p.nodes_per_chip = (p.chiplet * p.chiplet) as f64;
            p.validate().ok()?;
            let scope = Scope::switchless(&p);
            (scope.chips_per_cgroup >= 2).then_some(p)
        });
        let scope = Scope::switchless(&p);
        let ring = RingAllReduce::new(
            &scope,
            scope.chips_per_cgroup,
            RingDirection::Unidirectional,
            0.5,
        );
        let n = scope.endpoints();
        let mut seen = vec![false; n as usize];
        for ep in 0..n {
            let d = ring.successor(ep);
            assert!(!seen[d as usize], "{p:?}: duplicate successor {d}");
            seen[d as usize] = true;
            assert_eq!(ring.predecessor(d), ep, "{p:?}");
        }
    }
}

/// A random latency value drawn across the full magnitude range (uniform
/// in bit width, then uniform within it — stresses every bucket group).
fn any_latency(rng: &mut SplitMix64) -> u64 {
    let width = 1 + rng.next_below(64) as u32;
    rng.next_u64() >> (64 - width)
}

/// Every value lands in exactly one histogram bucket whose bounds contain
/// it, and the bucket's relative width respects the 1/SUBS quantization
/// guarantee.
#[test]
fn histogram_buckets_contain_their_values() {
    let mut rng = SplitMix64::new(0x5EED_0008);
    for _ in 0..CASES {
        for _ in 0..64 {
            let v = any_latency(&mut rng);
            let idx = LatencyHistogram::bucket_index(v);
            let lower = LatencyHistogram::bucket_lower(idx);
            assert!(lower <= v, "v={v}: below bucket {idx} lower {lower}");
            if idx + 1 < LatencyHistogram::BUCKETS {
                let next = LatencyHistogram::bucket_lower(idx + 1);
                assert!(v < next, "v={v}: at/above bucket {} lower {next}", idx + 1);
                // Bucket width ≤ max(1, lower/SUBS): the quantization bound.
                assert!(
                    next - lower <= (lower / LatencyHistogram::SUBS).max(1),
                    "bucket {idx} too wide: [{lower}, {next})"
                );
            }
        }
    }
}

/// Histogram merging is associative and commutative, and merging matches
/// recording the concatenated stream directly.
#[test]
fn histogram_merge_is_associative() {
    let mut rng = SplitMix64::new(0x5EED_0009);
    for _ in 0..CASES {
        let mut parts: Vec<LatencyHistogram> = Vec::new();
        let mut all = LatencyHistogram::default();
        for _ in 0..3 {
            let mut h = LatencyHistogram::default();
            for _ in 0..rng.next_below(40) {
                let v = any_latency(&mut rng);
                h.record(v);
                all.record(v);
            }
            parts.push(h);
        }
        let (a, b, c) = (&parts[0], &parts[1], &parts[2]);
        // (a ⊕ b) ⊕ c
        let mut ab_c = a.clone();
        ab_c.merge(b);
        ab_c.merge(c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "associativity");
        // b ⊕ a == a ⊕ b
        let mut ba = b.clone();
        ba.merge(a);
        let mut ab = a.clone();
        ab.merge(b);
        assert_eq!(ab, ba, "commutativity");
        assert_eq!(ab_c, all, "merge must equal the concatenated stream");
    }
}

/// Quantiles are monotone in q and bracket the exact order statistics:
/// `quantile(q)` is the lower bound of the bucket holding the true
/// nearest-rank sample.
#[test]
fn histogram_quantiles_are_monotone_and_tight() {
    let mut rng = SplitMix64::new(0x5EED_000A);
    for _ in 0..CASES {
        let n = 1 + rng.next_below(200) as usize;
        let mut values: Vec<u64> = Vec::with_capacity(n);
        let mut h = LatencyHistogram::default();
        for _ in 0..n {
            let v = any_latency(&mut rng);
            values.push(v);
            h.record(v);
        }
        values.sort_unstable();
        let mut prev = 0u64;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let got = h.quantile(q).unwrap();
            assert!(got >= prev, "quantile not monotone at q={q}");
            prev = got;
            // Exact nearest-rank reference value.
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let exact = values[rank - 1];
            assert_eq!(
                LatencyHistogram::bucket_index(got),
                LatencyHistogram::bucket_index(exact),
                "q={q}: reported {got} not in exact sample {exact}'s bucket"
            );
            assert!(got <= exact, "q={q}: lower bound {got} above exact {exact}");
        }
    }
}

/// Short simulations on random fabrics deliver traffic and never trip the
/// deadlock watchdog.
#[test]
fn random_fabric_simulations_deliver() {
    let mut rng = SplitMix64::new(0x5EED_0007);
    for _ in 0..CASES {
        let p = draw(&mut rng, |r| {
            sl_params(r).filter(|p| p.num_endpoints() <= 2000)
        });
        let bench = Bench::switchless(&p, RouteMode::Minimal, VcScheme::Baseline);
        let cfg = SimConfig {
            warmup_cycles: 150,
            measure_cycles: 350,
            drain_cycles: 150,
            ..Default::default()
        };
        let pattern = bench.pattern(PatternSpec::Uniform, 0.1);
        let m = wsdf::Session::bench(&bench)
            .sim(cfg)
            .metrics(pattern.as_ref())
            .unwrap()
            .report;
        assert!(!m.deadlocked, "{p:?}");
        assert!(m.packets_ejected > 0, "{p:?}");
    }
}

/// Boundary-message conservation on the sparse exchange: for random
/// fabrics of both families under random partition counts and assignment
/// schemes (contiguous blocks, the locality partitioner, and an
/// adversarial round-robin map that shreds locality entirely), every
/// (src, dst) exchange edge conserves messages — `written == drained +
/// pending` — and the edge set equals the partition adjacency computed
/// independently from the channel list, so the exchange provably never
/// touches a non-adjacent pair. (`pending` is almost always zero after
/// the drain; the exception is credits emitted on the very cycle the
/// early drain exit fires, which stay undelivered in the read buffer.)
#[test]
fn exchange_conserves_boundary_messages() {
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use wsdf::sim::Simulation;
    use wsdf::topo::{contiguous_blocks, locality_partition};
    let mut rng = SplitMix64::new(0x5EED_000B);
    for case in 0..8 {
        let (bench, rate) = if case % 2 == 0 {
            let p = draw(&mut rng, |r| {
                sl_params(r).filter(|p| (4..=1200).contains(&p.num_endpoints()))
            });
            let b = Bench::switchless(&p, RouteMode::Minimal, VcScheme::Baseline);
            (b, 0.1)
        } else {
            let p = draw(&mut rng, |r| {
                sw_params(r).filter(|p| (4..=1200).contains(&p.num_endpoints()) && p.groups >= 2)
            });
            (Bench::switchbased(&p, RouteMode::Minimal), 0.2)
        };
        let net = bench.fabric.net();
        let nr = net.num_routers();
        let parts = (2 + rng.next_below(7) as usize).min(nr);
        let assign: Vec<u32> = match rng.next_below(3) {
            0 => contiguous_blocks(net, parts),
            1 => locality_partition(net, parts, None),
            _ => (0..nr).map(|r| (r % parts) as u32).collect(),
        };
        let mut cfg = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 250,
            drain_cycles: 1_500,
            ..Default::default()
        };
        cfg.num_vcs = cfg.num_vcs.max(bench.num_vcs());
        cfg.partition_map = Some(Arc::new(assign.clone()));
        let pattern = bench.pattern(PatternSpec::Uniform, rate);
        let mut sim = Simulation::new(net, &cfg, &bench.oracle)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        let m = sim
            .run(pattern.as_ref())
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert!(m.packets_ejected > 0, "case {case}: no traffic");

        // Independent adjacency: both directions per cross-partition
        // router-router channel (flits one way, credits the other).
        let mut expected = BTreeSet::new();
        for ch in &net.channels {
            if let (Some(a), Some(b)) = (ch.src.router(), ch.dst.router()) {
                let (pa, pb) = (assign[a as usize], assign[b as usize]);
                if pa != pb {
                    expected.insert((pa, pb));
                    expected.insert((pb, pa));
                }
            }
        }
        let edges = sim.exchange_edges();
        let observed: BTreeSet<(u32, u32)> = edges.iter().map(|e| (e.src, e.dst)).collect();
        assert_eq!(edges.len(), observed.len(), "case {case}: duplicate edges");
        assert_eq!(observed, expected, "case {case}: adjacency mismatch");
        for e in &edges {
            assert_eq!(
                e.written,
                e.drained + e.pending,
                "case {case}: edge ({}, {}) leaked messages",
                e.src,
                e.dst
            );
        }
        if parts > 1 {
            let written: u64 = edges.iter().map(|e| e.written).sum();
            assert!(written > 0, "case {case}: no boundary traffic at P={parts}");
        } else {
            assert!(edges.is_empty(), "case {case}: edges at P=1");
        }
    }
}

/// Random closed-loop workload spec: a named collective half the time,
/// an explicit layered DAG otherwise.
fn any_workload_spec(rng: &mut SplitMix64) -> wsdf::scenario::WorkloadSpec {
    use wsdf::scenario::{Participants, WorkloadSpec};
    use wsdf::workload::{Message, Workload};
    if rng.chance(0.5) {
        let kinds = [
            "ring_allreduce",
            "rd_allreduce",
            "all_to_all",
            "broadcast",
            "reduce",
            "pipeline",
        ];
        let kind = kinds[rng.next_below(kinds.len() as u64) as usize];
        let participants = if rng.chance(0.5) {
            Participants::Chips
        } else {
            let stride = 1 + rng.next_below(4) as u32;
            let n = 2 + rng.next_below(6) as u32;
            Participants::List((0..n).map(|i| i * stride).collect())
        };
        WorkloadSpec::Collective {
            kind: kind.to_string(),
            participants,
            flits: 1 + rng.next_below(128),
            microbatches: if kind == "pipeline" {
                1 + rng.next_below(4) as u32
            } else {
                1
            },
        }
    } else {
        let mut wl = Workload::new("prop-dag");
        let phase = wl.phase("p0");
        let mut prev: Vec<u32> = Vec::new();
        for _ in 0..1 + rng.next_below(5) {
            let deps: Vec<u32> = prev.iter().copied().filter(|_| rng.chance(0.3)).collect();
            let src = rng.next_below(16) as u32;
            let dst = (src + 1 + rng.next_below(10) as u32) % 16;
            let id = wl.push(
                Message {
                    src,
                    dst,
                    flits: 1 + rng.next_below(20),
                    phase,
                },
                &deps,
            );
            prev.push(id);
        }
        WorkloadSpec::Dag(wl)
    }
}

/// Random serving spec: valid arrivals (both processes), a class mix
/// over the registered collectives, all three placement schemes.
fn any_serving_spec(rng: &mut SplitMix64) -> wsdf::workload::tenancy::ServingSpec {
    use wsdf::workload::tenancy::{ArrivalProcess, JobClass, Placement, ServingSpec};
    let kinds = [
        "ring_allreduce",
        "rd_allreduce",
        "all_to_all",
        "broadcast",
        "reduce",
        "pipeline",
    ];
    let classes = (0..1 + rng.next_below(3))
        .map(|i| {
            let kind = kinds[rng.next_below(kinds.len() as u64) as usize];
            JobClass {
                name: format!("class{i}"),
                collective: kind.to_string(),
                flits: 1 + rng.next_below(128),
                microbatches: if kind == "pipeline" {
                    1 + rng.next_below(4) as u32
                } else {
                    1
                },
                participants: 2 + rng.next_below(8) as u32,
                placement: [Placement::Block, Placement::Strided, Placement::Overlapping]
                    [rng.next_below(3) as usize],
                slo_cycles: rng.next_below(1 << 20),
                weight: (1 + rng.next_below(40)) as f64 / 8.0,
            }
        })
        .collect();
    ServingSpec {
        seed: rng.next_below(1 << 32),
        arrivals: if rng.chance(0.5) {
            ArrivalProcess::Poisson {
                rate_per_kcycle: (1 + rng.next_below(1000)) as f64,
                horizon: 1 + rng.next_below(50_000),
            }
        } else {
            ArrivalProcess::Trace {
                cycles: (0..1 + rng.next_below(10))
                    .map(|_| rng.next_below(1 << 20))
                    .collect(),
            }
        },
        max_jobs: 1 + rng.next_below(256),
        classes,
    }
}

/// Random *valid* scenario across every topology family, run kind and
/// optional section. Structurally valid (it parses back), but not
/// necessarily cheap to execute — runnable cases are drawn separately.
/// All integers stay below 2^53 so they survive the JSON number type.
fn any_scenario(rng: &mut SplitMix64) -> wsdf::scenario::Scenario {
    use wsdf::scenario::{
        pattern_from_name, FaultsSpec, PartitionerKind, Partitioning, RunSpec, Scenario, SimSpec,
        Stepping, Topology, TrafficSpec,
    };
    use wsdf::topo::{FaultSchedule, FaultSpec};

    let topology = match rng.next_below(4) {
        0 => Topology::Switchless(draw(rng, sl_params)),
        1 => Topology::Switchbased(draw(rng, sw_params)),
        2 => {
            let m = 2 + rng.next_below(4) as u32; // 2..=5
            let divisors: Vec<u32> = (1..=m).filter(|c| m.is_multiple_of(*c)).collect();
            let chiplet = divisors[rng.next_below(divisors.len() as u64) as usize];
            Topology::Mesh {
                m,
                chiplet,
                width: 1 + rng.next_below(2) as u8,
            }
        }
        _ => Topology::Switch {
            terminals: 2 + rng.next_below(30) as u32,
        },
    };
    let dragonfly = matches!(topology, Topology::Switchless(_) | Topology::Switchbased(_));
    let route = if dragonfly && rng.chance(0.5) {
        RouteMode::Valiant
    } else {
        RouteMode::Minimal
    };
    let vcs = if matches!(topology, Topology::Switchless(_)) && rng.chance(0.5) {
        VcScheme::Reduced
    } else {
        VcScheme::Baseline
    };
    let packet_len = 1 + rng.next_below(8);
    let sim = SimSpec {
        warmup_cycles: rng.next_below(500),
        measure_cycles: 1 + rng.next_below(1000),
        drain_cycles: rng.next_below(500),
        seed: rng.next_below(1 << 32),
        packet_len: packet_len as u8,
        buffer_flits: (packet_len + rng.next_below(60)) as u16,
    };
    let run = match rng.next_below(5) {
        0 => RunSpec::OpenLoop {
            rates_chip: rng.chance(0.5).then(|| {
                (0..1 + rng.next_below(4))
                    .map(|_| (1 + rng.next_below(4000)) as f64 / 1000.0)
                    .collect()
            }),
        },
        1 => RunSpec::Adaptive {
            start_chip: (1 + rng.next_below(2000)) as f64 / 500.0,
            growth: 1.0 + (1 + rng.next_below(100)) as f64 / 50.0,
            rel_tol: (1 + rng.next_below(100)) as f64 / 200.0,
            max_points: 3 + rng.next_below(10),
        },
        2 => RunSpec::ClosedLoop {
            workload: any_workload_spec(rng),
            flit_bytes: (1 + rng.next_below(512)) as f64,
            clock_ghz: (1 + rng.next_below(40)) as f64 / 10.0,
        },
        3 => RunSpec::Serving {
            spec: any_serving_spec(rng),
        },
        _ => RunSpec::Resilience {
            rate_chip: (1 + rng.next_below(1000)) as f64 / 500.0,
            fractions: (0..1 + rng.next_below(3))
                .map(|_| rng.next_below(101) as f64 / 100.0)
                .collect(),
            router_ratio: rng.next_below(101) as f64 / 100.0,
            seed: rng.next_below(1 << 32),
            collective_flits: rng.next_below(64),
        },
    };
    // Traffic is forbidden on closed-loop and serving runs and required
    // elsewhere; a
    // single-point rate is required exactly when a fixed-grid open-loop
    // run gives no rates_chip. Hotspot needs 4+ W-groups.
    let wgroups = match &topology {
        Topology::Switchless(p) => p.wgroups,
        Topology::Switchbased(p) => p.groups,
        _ => 1,
    };
    let mut patterns = vec![
        "uniform",
        "bit_reverse",
        "bit_shuffle",
        "bit_transpose",
        "worst_case",
        "ring_cgroup",
        "ring_cgroup_bidir",
        "ring_wgroup",
        "ring_wgroup_bidir",
    ];
    if wgroups >= 4 {
        patterns.push("hotspot");
    }
    let needs_rate = matches!(run, RunSpec::OpenLoop { rates_chip: None });
    let traffic = if matches!(run, RunSpec::ClosedLoop { .. } | RunSpec::Serving { .. }) {
        None
    } else {
        Some(TrafficSpec {
            pattern: pattern_from_name(patterns[rng.next_below(patterns.len() as u64) as usize])
                .unwrap(),
            rate: needs_rate.then(|| (1 + rng.next_below(1000)) as f64 / 1000.0),
        })
    };
    // Faults are forbidden on resilience runs (they sample their own).
    let faults = if matches!(run, RunSpec::Resilience { .. }) || rng.chance(0.5) {
        None
    } else if rng.chance(0.5) {
        Some(FaultsSpec::Spec(FaultSpec {
            seed: rng.next_below(1 << 32),
            link_fraction: rng.next_below(101) as f64 / 100.0,
            router_fraction: rng.next_below(101) as f64 / 100.0,
            explicit_links: (0..rng.next_below(4))
                .map(|_| rng.next_below(100) as u32)
                .collect(),
            explicit_routers: (0..rng.next_below(4))
                .map(|_| rng.next_below(50) as u32)
                .collect(),
        }))
    } else {
        let mut schedule = FaultSchedule::new();
        for _ in 0..1 + rng.next_below(3) {
            schedule.push(
                rng.next_below(1000),
                FaultSpec::links(rng.next_below(101) as f64 / 100.0, rng.next_below(1 << 32)),
            );
        }
        Some(FaultsSpec::Schedule {
            schedule,
            at_cycle: rng.next_below(2000),
        })
    };
    Scenario {
        name: format!("prop-{}", rng.next_below(1_000_000)),
        topology,
        route,
        vcs,
        sim,
        stepping: if rng.chance(0.5) {
            Stepping::Event
        } else {
            Stepping::Dense
        },
        telemetry: None,
        partitioning: match rng.next_below(3) {
            0 => Partitioning::Auto {
                partitions: rng.next_below(9),
                partitioner: PartitionerKind::Locality,
            },
            1 => Partitioning::Auto {
                partitions: rng.next_below(9),
                partitioner: PartitionerKind::Blocks,
            },
            // An arbitrary map: only parsed (never executed) here, so
            // density/length against a real fabric is not required.
            _ => Partitioning::Map(
                (0..1 + rng.next_below(12))
                    .map(|_| rng.next_below(4) as u32)
                    .collect(),
            ),
        },
        faults,
        traffic,
        run,
    }
}

/// Scenario documents round-trip: any valid scenario serializes to
/// canonical JSON that parses back to the identical value, and the
/// serialization is a fixed point.
#[test]
fn scenario_json_round_trips() {
    use wsdf::scenario::Scenario;
    let mut rng = SplitMix64::new(0x5EED_000C);
    for case in 0..CASES {
        let s = any_scenario(&mut rng);
        let text = s.to_json();
        let back =
            Scenario::from_json_str(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        assert_eq!(back, s, "case {case}: round-trip drift\n{text}");
        assert_eq!(back.to_json(), text, "case {case}: not a fixed point");
    }
}

/// Round-tripping preserves behaviour, not just structure: the reparsed
/// scenario produces a bit-identical report digest. Cases are drawn
/// cheap on purpose (16-router meshes, short windows).
#[test]
fn scenario_round_trip_preserves_report_digest() {
    use wsdf::scenario::{
        Participants, Partitioning, RunSpec, Scenario, SimSpec, Stepping, Topology, TrafficSpec,
        WorkloadSpec,
    };
    let mut rng = SplitMix64::new(0x5EED_000D);
    for case in 0..6 {
        let m = if rng.chance(0.5) { 2 } else { 4 };
        let open = case % 2 == 0;
        let run = if open {
            RunSpec::OpenLoop {
                rates_chip: Some(vec![(1 + rng.next_below(800)) as f64 / 1000.0]),
            }
        } else {
            RunSpec::ClosedLoop {
                workload: WorkloadSpec::Collective {
                    kind: "ring_allreduce".to_string(),
                    participants: Participants::Chips,
                    flits: 8 + rng.next_below(24),
                    microbatches: 1,
                },
                flit_bytes: 64.0,
                clock_ghz: 1.0,
            }
        };
        let s = Scenario {
            name: format!("prop-run-{case}"),
            topology: Topology::Mesh {
                m,
                chiplet: if rng.chance(0.5) { 1 } else { m / 2 },
                width: 1,
            },
            route: RouteMode::Minimal,
            vcs: VcScheme::Baseline,
            sim: SimSpec {
                warmup_cycles: 0,
                measure_cycles: 300,
                seed: rng.next_below(1 << 32),
                ..SimSpec::default()
            },
            stepping: Stepping::Event,
            partitioning: Partitioning::default(),
            telemetry: None,
            faults: None,
            traffic: open.then_some(TrafficSpec {
                pattern: PatternSpec::Uniform,
                rate: None,
            }),
            run,
        };
        let back =
            Scenario::from_json_str(&s.to_json()).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(back, s, "case {case}");
        let a = wsdf::Session::scenario(&s)
            .run()
            .unwrap_or_else(|e| panic!("case {case}: {e}"))
            .report
            .digest();
        let b = wsdf::Session::scenario(&back)
            .run()
            .unwrap_or_else(|e| panic!("case {case} (reparsed): {e}"))
            .report
            .digest();
        assert_eq!(a, b, "case {case}: digest drift after round-trip");
    }
}

/// Closed-loop conservation over random workload DAGs: every message's
/// flits are injected exactly once (`flits_injected == Σ size`), every
/// message reassembles exactly once (over-delivery panics inside the
/// driver; under-delivery would hang and trip the watchdog), and
/// completion respects the dependency order.
#[test]
fn workload_flit_conservation() {
    use wsdf::workload::{packet_count, run_collective_traced_on, Message, Workload};
    let mut rng = SplitMix64::new(0x5EED_0009);
    for case in 0..10 {
        let p = draw(&mut rng, |r| {
            sl_params(r).filter(|p| (2..=600).contains(&p.num_endpoints()))
        });
        let bench = Bench::switchless(&p, RouteMode::Minimal, VcScheme::Baseline);
        let n = bench.endpoints() as u64;
        // A random layered DAG: each layer's messages depend on a random
        // subset of the previous layer.
        let mut wl = Workload::new(format!("random-{case}"));
        let layers = 1 + rng.next_below(3);
        let mut prev: Vec<u32> = Vec::new();
        for l in 0..layers {
            let phase = wl.phase(format!("layer{l}"));
            let count = 1 + rng.next_below(6) as usize;
            let mut layer = Vec::with_capacity(count);
            for _ in 0..count {
                let src = rng.next_below(n) as u32;
                let mut dst = rng.next_below(n) as u32;
                if dst == src {
                    dst = (dst + 1) % n as u32;
                }
                let flits = 1 + rng.next_below(19);
                let deps: Vec<u32> = prev.iter().copied().filter(|_| rng.chance(0.5)).collect();
                layer.push(wl.push(
                    Message {
                        src,
                        dst,
                        flits,
                        phase,
                    },
                    &deps,
                ));
            }
            prev = layer;
        }
        let mut cfg = SimConfig::default();
        cfg.num_vcs = cfg.num_vcs.max(bench.num_vcs());
        let pool = wsdf::exec::global_pool();
        let out = run_collective_traced_on(
            bench.fabric.net(),
            &cfg,
            &bench.oracle,
            &wl,
            pool,
            None,
            None,
        )
        .unwrap_or_else(|e| panic!("case {case} ({p:?}): {e}"));
        // Conservation: flits injected per message == its size, and every
        // flit that entered came back out.
        let total = wl.total_flits();
        assert_eq!(out.metrics.flits_injected_measured, total, "case {case}");
        assert_eq!(out.metrics.flits_ejected_measured, total, "case {case}");
        let packets: u64 = wl
            .messages()
            .iter()
            .map(|m| packet_count(m.flits, cfg.packet_len))
            .sum();
        assert_eq!(out.metrics.packets_created, packets, "case {case}");
        assert_eq!(out.metrics.packets_ejected, packets, "case {case}");
        // Exactly-once reassembly with a completion cycle for everyone,
        // bounded by the reported end-to-end time.
        assert_eq!(out.message_completion.len(), wl.len());
        for (m, &done) in out.message_completion.iter().enumerate() {
            assert!(done >= 1 && done <= out.completion_cycles, "case {case}");
            for &pred in wl.preds(m as u32) {
                assert!(
                    done > out.message_completion[pred as usize],
                    "case {case}: message {m} completed before its dependency {pred}"
                );
            }
        }
    }
}

/// A consistent random [`wsdf::ServingReport`]: every class serves at
/// least one job (NaN-free, since NaN breaks `PartialEq` round-trip
/// comparison), the CT histogram matches the job records, and the
/// percentiles come from that histogram — exactly the invariants the
/// real runner maintains.
fn any_serving_report(rng: &mut SplitMix64) -> wsdf::ServingReport {
    use wsdf::{ClassStat, JobRecord, ServingReport};
    let class_names = ["alpha", "beta", "gamma"];
    let nclasses = 1 + rng.next_below(3) as usize;
    let njobs = nclasses * (1 + rng.next_below(4) as usize);
    let mut hist = LatencyHistogram::default();
    let jobs: Vec<JobRecord> = (0..njobs)
        .map(|i| {
            let arrival = rng.next_below(1 << 40);
            let ct = 1 + rng.next_below(1 << 40);
            hist.record(ct);
            JobRecord {
                id: i as u32,
                class: class_names[i % nclasses].to_string(),
                arrival,
                completion: arrival + ct,
                ct,
            }
        })
        .collect();
    let makespan = jobs.iter().map(|j| j.completion).max().unwrap();
    let classes: Vec<ClassStat> = (0..nclasses)
        .map(|ci| {
            let mine: Vec<&JobRecord> =
                jobs.iter().filter(|j| j.class == class_names[ci]).collect();
            let n = mine.len() as u64;
            let mean_ct = mine.iter().map(|r| r.ct as f64).sum::<f64>() / n as f64;
            let isolated_ct = 1 + rng.next_below(1 << 30);
            let flits = 1 + rng.next_below(1 << 40);
            ClassStat {
                name: class_names[ci].to_string(),
                jobs: n,
                flits,
                mean_ct,
                isolated_ct,
                slowdown: mean_ct / isolated_ct as f64,
                throughput_flits_per_kcycle: flits as f64 * 1000.0 / makespan as f64,
                slo_cycles: rng.next_below(1 << 40),
                slo_misses: rng.next_below(n + 1),
            }
        })
        .collect();
    let fairness = wsdf::serving::jain_fairness(
        &classes
            .iter()
            .map(|c| c.throughput_flits_per_kcycle)
            .collect::<Vec<f64>>(),
    );
    let pct = |q: Option<u64>| q.unwrap() as f64;
    ServingReport {
        label: format!("prop-{}", rng.next_below(1000)),
        makespan_cycles: makespan,
        ct_p50: pct(hist.p50()),
        ct_p95: pct(hist.p95()),
        ct_p99: pct(hist.p99()),
        fairness,
        ct_hist: hist,
        jobs,
        classes,
        busy_cycles: rng.next_below(1 << 40),
        skipped_cycles: rng.next_below(1 << 40),
    }
}

/// Serving reports round-trip through JSON — histogram included (it is
/// rebuilt from the job records on parse) — and the serialization is a
/// fixed point.
#[test]
fn serving_report_json_round_trips() {
    use wsdf::ServingReport;
    let mut rng = SplitMix64::new(0x5EED_000E);
    for case in 0..CASES {
        let r = any_serving_report(&mut rng);
        let text = r.to_json();
        let back = ServingReport::from_json(&text).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(back, r, "case {case}: round-trip drift");
        assert_eq!(back.to_json(), text, "case {case}: not a fixed point");
    }
}

/// Forward compatibility of serving reports: any subset of the optional
/// sections may be missing and the parse still succeeds, with missing
/// numeric summaries reading as NaN, counters as 0, and arrays as empty.
#[test]
fn serving_report_parses_with_any_optional_subset() {
    use wsdf::ServingReport;
    let mut rng = SplitMix64::new(0x5EED_000F);
    for case in 0..CASES {
        let makespan = rng.chance(0.5).then(|| rng.next_below(1 << 40));
        let p50 = rng.chance(0.5).then(|| rng.next_below(1 << 30) as f64);
        let fairness = rng.chance(0.5).then(|| rng.next_below(101) as f64 / 100.0);
        let with_jobs = rng.chance(0.5);
        let with_classes = rng.chance(0.5);
        let mut s = String::from("{\"label\": \"legacy\"");
        if let Some(m) = makespan {
            s.push_str(&format!(", \"makespan_cycles\": {m}"));
        }
        if let Some(p) = p50 {
            s.push_str(&format!(", \"ct_p50\": {p}"));
        }
        if let Some(f) = fairness {
            s.push_str(&format!(", \"fairness\": {f}"));
        }
        if with_jobs {
            s.push_str(
                ", \"jobs\": [{\"id\": 0, \"class\": \"a\", \"arrival\": 3, \
                 \"completion\": 10, \"ct\": 7}]",
            );
        }
        if with_classes {
            // A class written by an older serializer: only name and jobs.
            s.push_str(", \"classes\": [{\"name\": \"a\", \"jobs\": 1}]");
        }
        s.push('}');
        let r = ServingReport::from_json(&s).unwrap_or_else(|e| panic!("case {case}: {e}\n{s}"));
        assert_eq!(r.label, "legacy", "case {case}");
        assert_eq!(r.makespan_cycles, makespan.unwrap_or(0), "case {case}");
        match p50 {
            Some(p) => assert_eq!(r.ct_p50, p, "case {case}"),
            None => assert!(r.ct_p50.is_nan(), "case {case}"),
        }
        match fairness {
            Some(f) => assert_eq!(r.fairness, f, "case {case}"),
            None => assert!(r.fairness.is_nan(), "case {case}"),
        }
        // Never-written fields always default.
        assert!(r.ct_p95.is_nan() && r.ct_p99.is_nan(), "case {case}");
        assert_eq!(r.busy_cycles, 0, "case {case}");
        if with_jobs {
            assert_eq!(r.jobs.len(), 1, "case {case}");
            assert_eq!(r.ct_hist.count(), 1, "case {case}");
            assert_eq!(r.jobs[0].ct, 7, "case {case}");
        } else {
            assert!(r.jobs.is_empty() && r.ct_hist.is_empty(), "case {case}");
        }
        if with_classes {
            let c = &r.classes[0];
            assert_eq!((c.jobs, c.flits, c.slo_misses), (1, 0, 0), "case {case}");
            assert!(c.mean_ct.is_nan() && c.slowdown.is_nan(), "case {case}");
        } else {
            assert!(r.classes.is_empty(), "case {case}");
        }
    }
}

/// Forward compatibility of workload reports: `phases`, `latency` (whole
/// or any subset of its fields) and the busy/skipped counters may all be
/// missing — older files parse with empty/NaN/0 defaults.
#[test]
fn workload_report_parses_with_any_optional_subset() {
    use wsdf::WorkloadReport;
    let mut rng = SplitMix64::new(0x5EED_0010);
    for case in 0..CASES {
        let cc = rng.next_below(1 << 40);
        let with_phases = rng.chance(0.5);
        let latency = rng.chance(0.5).then(|| {
            (
                rng.chance(0.5).then(|| rng.next_below(1 << 30)),
                rng.chance(0.5).then(|| rng.next_below(1 << 20) as f64),
            )
        });
        let busy = rng.chance(0.5).then(|| rng.next_below(cc + 1));
        let mut s = format!(
            "{{\"label\": \"l\", \"workload\": \"w\", \"completion_cycles\": {cc}, \
             \"messages\": 2, \"flits\": 64, \"achieved_flits_per_cycle\": 0.5, \
             \"achieved_gbps\": 1.25"
        );
        if with_phases {
            s.push_str(
                ", \"phases\": [{\"name\": \"p0\", \"messages\": 2, \"flits\": 64, \
                 \"start_cycle\": 1, \"end_cycle\": 9, \"achieved_flits_per_cycle\": 8, \
                 \"achieved_gbps\": 16}]",
            );
        }
        if let Some((count, p50)) = &latency {
            s.push_str(", \"latency\": {");
            let mut parts = Vec::new();
            if let Some(c) = count {
                parts.push(format!("\"count\": {c}"));
            }
            if let Some(p) = p50 {
                parts.push(format!("\"p50\": {p}"));
            }
            s.push_str(&parts.join(", "));
            s.push('}');
        }
        if let Some(b) = busy {
            s.push_str(&format!(", \"busy_cycles\": {b}"));
        }
        s.push('}');
        let r = WorkloadReport::from_json(&s).unwrap_or_else(|e| panic!("case {case}: {e}\n{s}"));
        assert_eq!(r.completion_cycles, cc, "case {case}");
        assert_eq!(r.phases.len(), usize::from(with_phases), "case {case}");
        match &latency {
            None => {
                assert_eq!(r.latency.count, 0, "case {case}");
                assert!(
                    r.latency.mean.is_nan() && r.latency.p50.is_nan(),
                    "case {case}"
                );
            }
            Some((count, p50)) => {
                assert_eq!(r.latency.count, count.unwrap_or(0), "case {case}");
                match p50 {
                    Some(p) => assert_eq!(r.latency.p50, *p, "case {case}"),
                    None => assert!(r.latency.p50.is_nan(), "case {case}"),
                }
                // Never-written subfields default to NaN.
                assert!(
                    r.latency.p99.is_nan() && r.latency.max.is_nan(),
                    "case {case}"
                );
            }
        }
        assert_eq!(r.busy_cycles, busy.unwrap_or(0), "case {case}");
        assert_eq!(r.skipped_cycles, 0, "case {case}");
    }
}
