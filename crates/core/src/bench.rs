//! Fabric + oracle bundles and workload construction.
//!
//! [`Bench`] keeps its routing oracle in a closed enum ([`BenchOracle`])
//! rather than a `Box<dyn RouteOracle>`: every [`crate::Session`] run kind
//! matches on it once per simulation and enters the *monomorphized*
//! engine with the concrete oracle type, so the per-flit hot path never
//! pays virtual dispatch. The
//! enum still implements [`RouteOracle`] itself (one match per call) for
//! callers that need a uniform oracle view, e.g. route walkers.

use wsdf_exec::BspPool;
use wsdf_routing::{
    DetourOracle, MeshOracle, ReachMap, RouteMode, SlOracle, SwOracle, SwitchNodeOracle, VcScheme,
};
use wsdf_sim::{
    FaultMap, Metrics, NetworkDesc, PacketHeader, RouteChoice, RouteOracle, SimConfig, SimResult,
    SplitMix64, Tracer, TrafficPattern,
};
use wsdf_topo::{
    single_mesh, single_switch, FaultSet, MeshFabric, SlParams, SwParams, SwitchFabric, SwitchNode,
    SwitchlessFabric,
};
use wsdf_traffic::{
    HotspotPattern, PermKind, PermutationPattern, RingAllReduce, RingDirection, Scope,
    UniformPattern, WorstCasePattern,
};

/// A built network of one of the four evaluated kinds.
#[derive(Clone)]
pub enum Fabric {
    /// Switch-less Dragonfly on wafers.
    Switchless(SwitchlessFabric),
    /// Switch-based Dragonfly baseline.
    Switchbased(SwitchFabric),
    /// Standalone m×m mesh C-group (Fig. 10(a,b) left side).
    Mesh(MeshFabric),
    /// Single ideal switch (Fig. 10(a,b) right side).
    SingleSwitch(SwitchNode),
}

impl Fabric {
    /// The simulator network description.
    pub fn net(&self) -> &NetworkDesc {
        match self {
            Fabric::Switchless(f) => &f.net,
            Fabric::Switchbased(f) => &f.net,
            Fabric::Mesh(f) => &f.net,
            Fabric::SingleSwitch(f) => &f.net,
        }
    }
}

/// Workload selector; see [`Bench::pattern`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternSpec {
    /// Uniform random.
    Uniform,
    /// Bit permutation.
    Permutation(PermKind),
    /// Hotspot over four evenly spread W-groups.
    Hotspot,
    /// Worst-case Wi → Wi+1.
    WorstCase,
    /// Ring AllReduce over the chips of each C-group.
    RingCGroup(RingDirection),
    /// Ring AllReduce over the chips of each W-group.
    RingWGroup(RingDirection),
}

/// The routing oracle of a [`Bench`], as a closed enum over the four
/// evaluated fabric kinds. Matching once per run (not per flit) is what
/// keeps the engine hot path free of `dyn RouteOracle` dispatch.
#[derive(Debug, Clone)]
pub enum BenchOracle {
    /// Switch-less Dragonfly routing.
    Sl(SlOracle),
    /// Switch-based Dragonfly routing.
    Sw(SwOracle),
    /// Standalone-mesh XY routing.
    Mesh(MeshOracle),
    /// Single ideal switch (VOQ) routing.
    Switch(SwitchNodeOracle),
    /// Fault-aware up*/down* detour routing (any fabric with dead
    /// links/routers — see [`Bench::with_fault_set`]).
    Detour(DetourOracle),
}

/// Evaluate `body` with `o` bound to the concrete oracle inside a
/// [`BenchOracle`], so the engine entered from `body` is monomorphized
/// per oracle kind.
macro_rules! with_oracle {
    ($oracle:expr, |$o:ident| $body:expr) => {
        match $oracle {
            $crate::bench::BenchOracle::Sl($o) => $body,
            $crate::bench::BenchOracle::Sw($o) => $body,
            $crate::bench::BenchOracle::Mesh($o) => $body,
            $crate::bench::BenchOracle::Switch($o) => $body,
            $crate::bench::BenchOracle::Detour($o) => $body,
        }
    };
}
pub(crate) use with_oracle;

impl RouteOracle for BenchOracle {
    fn route(
        &self,
        router: u32,
        in_port: u8,
        in_vc: u8,
        pkt: &PacketHeader,
        rng: &mut SplitMix64,
    ) -> RouteChoice {
        with_oracle!(self, |o| o.route(router, in_port, in_vc, pkt, rng))
    }

    fn initial_vc(&self, pkt: &PacketHeader) -> u8 {
        with_oracle!(self, |o| o.initial_vc(pkt))
    }

    fn num_vcs(&self) -> u8 {
        with_oracle!(self, |o| o.num_vcs())
    }

    fn tag_packet(&self, pkt: &mut PacketHeader, rng: &mut SplitMix64) {
        with_oracle!(self, |o| o.tag_packet(pkt, rng))
    }
}

/// Fault state of a degraded [`Bench`]: the engine-facing map plus the
/// reachability summary used to filter workloads.
#[derive(Debug, Clone)]
pub struct BenchFaults {
    /// Dead routers/channels (sealed), handed to the engine so faulted
    /// channels reject traversal with hard asserts.
    pub map: FaultMap,
    /// Per-endpoint liveness/component summary.
    pub reach: ReachMap,
    /// Failed undirected fabric links.
    pub dead_links: u32,
    /// Failed routers.
    pub dead_routers: u32,
}

/// A fabric, its routing oracle, and its endpoint scoping — everything a
/// simulation run needs besides the workload and rates.
#[derive(Clone)]
pub struct Bench {
    /// The built network.
    pub fabric: Fabric,
    /// The routing oracle driving it.
    pub oracle: BenchOracle,
    /// Endpoint grouping (W-groups, chips).
    pub scope: Scope,
    /// Nodes per chip for per-chip rate conversion (may be fractional for
    /// the radix-32 configuration; see DESIGN.md).
    pub nodes_per_chip: f64,
    /// Display label ("SW-less-2B", "SW-based", ...).
    pub label: String,
    /// Fault state, if this bench was degraded with
    /// [`Bench::with_fault_set`]; `None` = pristine.
    pub faults: Option<BenchFaults>,
}

impl Bench {
    /// Switch-less Dragonfly with the given routing mode and VC scheme.
    pub fn switchless(p: &SlParams, mode: RouteMode, scheme: VcScheme) -> Self {
        let fabric = SwitchlessFabric::build(p);
        let oracle = SlOracle::new(p, mode, scheme);
        let scope = Scope::switchless(p);
        let width_tag = match p.mesh_width {
            2 => "-2B",
            4 => "-4B",
            _ => "",
        };
        let mode_tag = match mode {
            RouteMode::Minimal => "",
            RouteMode::Valiant => "-Mis",
        };
        Bench {
            fabric: Fabric::Switchless(fabric),
            oracle: BenchOracle::Sl(oracle),
            scope,
            nodes_per_chip: p.nodes_per_chip,
            label: format!("SW-less{width_tag}{mode_tag}"),
            faults: None,
        }
    }

    /// Switch-based Dragonfly baseline.
    pub fn switchbased(p: &SwParams, mode: RouteMode) -> Self {
        let fabric = SwitchFabric::build(p);
        let oracle = match mode {
            RouteMode::Minimal => SwOracle::minimal(p),
            RouteMode::Valiant => SwOracle::valiant(p),
        };
        let scope = Scope::switchbased(p);
        let mode_tag = match mode {
            RouteMode::Minimal => "",
            RouteMode::Valiant => "-Mis",
        };
        Bench {
            fabric: Fabric::Switchbased(fabric),
            oracle: BenchOracle::Sw(oracle),
            scope,
            nodes_per_chip: 1.0,
            label: format!("SW-based{mode_tag}"),
            faults: None,
        }
    }

    /// Standalone mesh C-group (the "2D-Mesh" curve of Fig. 10(a,b)).
    pub fn single_mesh(m: u32, chiplet: u32, width: u8) -> Self {
        let fabric = single_mesh(m, chiplet, width);
        let oracle = MeshOracle::new(m);
        // Build a scope by treating the mesh as one C-group of one W-group.
        let p = SlParams {
            a: 1,
            b: 1,
            m,
            chiplet,
            wgroups: 1,
            mesh_width: width,
            nodes_per_chip: (chiplet * chiplet) as f64,
        };
        let scope = mesh_scope(&p);
        Bench {
            fabric: Fabric::Mesh(fabric),
            oracle: BenchOracle::Mesh(oracle),
            scope,
            nodes_per_chip: (chiplet * chiplet) as f64,
            label: "2D-Mesh".into(),
            faults: None,
        }
    }

    /// Single ideal switch with `terminals` chips (the "Switch" curve of
    /// Fig. 10(a,b)).
    pub fn single_switch(terminals: u32) -> Self {
        let fabric = single_switch(terminals);
        // locals = 0 → exactly one switch per "group", so the scope's
        // endpoint count matches the fabric's.
        let scope = Scope::switchbased(&SwParams {
            terminals,
            locals: 0,
            globals: 0,
            groups: 1,
        });
        Bench {
            fabric: Fabric::SingleSwitch(fabric),
            oracle: BenchOracle::Switch(SwitchNodeOracle::new(terminals.min(16) as u8)),
            scope,
            nodes_per_chip: 1.0,
            label: "Switch".into(),
            faults: None,
        }
    }

    /// Degrade this bench with a sampled [`FaultSet`].
    ///
    /// An **empty** fault set returns a plain clone — same oracle, same
    /// hot path — so a zero-fault resilience point is *exactly* the
    /// pristine bench (bit-identical metrics). A non-empty set swaps the
    /// oracle for a precomputed [`DetourOracle`] over the live graph,
    /// hands the sealed [`FaultMap`] to the engine (dead channels reject
    /// traversal with hard asserts), and filters every generated pattern
    /// down to routable endpoint pairs.
    pub fn with_fault_set(&self, fs: &FaultSet) -> Bench {
        let mut out = self.clone();
        if fs.is_empty() {
            return out;
        }
        let oracle = DetourOracle::build(self.fabric.net(), fs.map());
        out.faults = Some(BenchFaults {
            reach: oracle.reach_map(),
            map: fs.map().clone(),
            dead_links: fs.dead_links(),
            dead_routers: fs.dead_routers(),
        });
        out.oracle = BenchOracle::Detour(oracle);
        out
    }

    /// The engine-facing fault map, if degraded.
    pub fn fault_map(&self) -> Option<&FaultMap> {
        self.faults.as_ref().map(|f| &f.map)
    }

    /// Number of endpoints.
    pub fn endpoints(&self) -> u32 {
        self.fabric.net().num_endpoints() as u32
    }

    /// Number of chips (endpoints / nodes-per-chip).
    pub fn chips(&self) -> f64 {
        self.endpoints() as f64 / self.nodes_per_chip
    }

    /// One participant per chip (its node 0), in chip order; on a
    /// degraded bench only the chips whose node 0 lies in the largest
    /// live component. Collective participants, serving placements and
    /// the resilience probe all draw from this list.
    pub fn live_chips(&self) -> Vec<u32> {
        let chips = (0..self.scope.num_chips()).map(|c| self.scope.node_of(c, 0));
        match &self.faults {
            None => chips.collect(),
            Some(f) => {
                let comp: std::collections::HashSet<u32> =
                    f.reach.largest_component_endpoints().into_iter().collect();
                chips.filter(|n| comp.contains(n)).collect()
            }
        }
    }

    /// Minimum VC count this bench's oracle needs.
    pub fn num_vcs(&self) -> u8 {
        self.oracle.num_vcs()
    }

    /// Build the traffic generator for `spec` at `rate_node`
    /// flits/cycle/endpoint.
    ///
    /// On a degraded bench the generator is wrapped in a [`LivePattern`]
    /// filter: dead endpoints offer no load and draws toward unroutable
    /// destinations are skipped, so open-loop traffic only exercises pairs
    /// the detour oracle can actually serve.
    pub fn pattern(&self, spec: PatternSpec, rate_node: f64) -> Box<dyn TrafficPattern> {
        let inner = self.pattern_unfiltered(spec, rate_node);
        match &self.faults {
            None => inner,
            Some(f) => Box::new(LivePattern::new(inner, f.reach.clone())),
        }
    }

    /// The raw (fault-oblivious) generator behind [`Bench::pattern`].
    fn pattern_unfiltered(&self, spec: PatternSpec, rate_node: f64) -> Box<dyn TrafficPattern> {
        let n = self.endpoints();
        match spec {
            PatternSpec::Uniform => Box::new(UniformPattern::new(n, rate_node)),
            PatternSpec::Permutation(kind) => Box::new(PermutationPattern::new(kind, n, rate_node)),
            PatternSpec::Hotspot => Box::new(HotspotPattern::paper_default(&self.scope, rate_node)),
            PatternSpec::WorstCase => Box::new(WorstCasePattern::new(&self.scope, rate_node)),
            PatternSpec::RingCGroup(dir) => Box::new(RingAllReduce::new(
                &self.scope,
                self.scope.chips_per_cgroup,
                dir,
                rate_node,
            )),
            PatternSpec::RingWGroup(dir) => Box::new(RingAllReduce::new(
                &self.scope,
                self.scope.chips_per_wgroup,
                dir,
                rate_node,
            )),
        }
    }

    /// Prepare a cloned config for a run: raise the VC count to the
    /// oracle's requirement. The partition map was resolved before
    /// dispatch ([`crate::Partitioning::apply`]).
    pub(crate) fn prepare_cfg(&self, cfg: &SimConfig) -> SimConfig {
        let mut cfg = cfg.clone();
        cfg.num_vcs = cfg.num_vcs.max(self.oracle.num_vcs());
        cfg
    }

    /// Monomorphized engine entry on an already-[prepared](Bench::prepare_cfg)
    /// config, with optional streaming telemetry. Dispatches on the
    /// oracle kind *once*, then runs the engine with the concrete oracle
    /// type — the per-flit path is fully static. The pattern stays
    /// dynamic (queried per packet, not per flit).
    pub(crate) fn run_prepared(
        &self,
        cfg: &SimConfig,
        pattern: &dyn TrafficPattern,
        pool: &BspPool,
        trace: Option<&Tracer>,
    ) -> SimResult<Metrics> {
        let net = self.fabric.net();
        let faults = self.fault_map();
        with_oracle!(&self.oracle, |o| {
            wsdf_sim::simulate_traced_on(net, cfg, o, pattern, pool, faults, trace)
        })
    }
}

/// Fault filter around a [`TrafficPattern`]: endpoints on dead routers
/// offer zero load, and destination draws that are unroutable under the
/// bench's [`ReachMap`] are skipped (the generation event is dropped, the
/// inner pattern's RNG consumption is unchanged — so the surviving stream
/// is a deterministic subsequence of the pristine one).
pub struct LivePattern {
    inner: Box<dyn TrafficPattern>,
    reach: ReachMap,
    live_fraction: f64,
}

impl LivePattern {
    /// Wrap `inner` under `reach`.
    pub fn new(inner: Box<dyn TrafficPattern>, reach: ReachMap) -> Self {
        let live_fraction = reach.live_endpoints() as f64 / reach.endpoints().max(1) as f64;
        LivePattern {
            inner,
            reach,
            live_fraction,
        }
    }
}

impl TrafficPattern for LivePattern {
    fn rate(&self, src: u32) -> f64 {
        if self.reach.live(src) {
            self.inner.rate(src)
        } else {
            0.0
        }
    }

    fn dest(&self, src: u32, seq: u64, rng: &mut SplitMix64) -> Option<u32> {
        self.inner
            .dest(src, seq, rng)
            .filter(|&d| self.reach.routable(src, d))
    }

    fn active_fraction(&self) -> f64 {
        // Approximation: live endpoints are assumed uniformly spread over
        // the inner pattern's active subset (exact for uniform traffic).
        self.inner.active_fraction() * self.live_fraction
    }
}

/// Scope for a standalone mesh (single C-group): chips tile the mesh in
/// chiplet blocks, everything in W-group 0.
fn mesh_scope(p: &SlParams) -> Scope {
    Scope::switchless(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use wsdf_sim::SimConfig;

    fn quick_cfg() -> SimConfig {
        SimConfig {
            warmup_cycles: 300,
            measure_cycles: 700,
            drain_cycles: 200,
            ..Default::default()
        }
    }

    fn run_quick(b: &Bench, pat: &dyn TrafficPattern) -> Metrics {
        Session::bench(b)
            .sim(quick_cfg())
            .metrics(pat)
            .unwrap()
            .report
    }

    #[test]
    fn mesh_bench_runs_uniform() {
        let b = Bench::single_mesh(4, 2, 1);
        assert_eq!(b.endpoints(), 16);
        assert_eq!(b.chips(), 4.0);
        let pat = b.pattern(PatternSpec::Uniform, 0.2);
        let m = run_quick(&b, pat.as_ref());
        assert!(m.packets_ejected > 0);
        assert!(!m.deadlocked);
    }

    #[test]
    fn switch_bench_runs_uniform() {
        let b = Bench::single_switch(16);
        assert_eq!(b.chips(), 16.0);
        let pat = b.pattern(PatternSpec::Uniform, 0.3);
        let m = run_quick(&b, pat.as_ref());
        assert!(m.packets_ejected > 0);
    }

    #[test]
    fn switchless_wgroup_runs_all_patterns() {
        let p = SlParams::radix16().with_wgroups(1);
        let b = Bench::switchless(&p, RouteMode::Minimal, VcScheme::Baseline);
        assert_eq!(b.label, "SW-less");
        for spec in [
            PatternSpec::Uniform,
            PatternSpec::Permutation(PermKind::BitReverse),
            PatternSpec::RingCGroup(RingDirection::Unidirectional),
            PatternSpec::RingWGroup(RingDirection::Bidirectional),
        ] {
            let pat = b.pattern(spec, 0.1);
            let m = run_quick(&b, pat.as_ref());
            assert!(m.packets_ejected > 0, "{spec:?} delivered nothing");
        }
    }

    #[test]
    fn switchbased_group_runs() {
        let p = SwParams::radix16().with_groups(1);
        let b = Bench::switchbased(&p, RouteMode::Minimal);
        assert_eq!(b.label, "SW-based");
        let pat = b.pattern(PatternSpec::Uniform, 0.3);
        let m = run_quick(&b, pat.as_ref());
        assert!(m.packets_ejected > 0);
    }

    #[test]
    fn dyn_run_matches_monomorphized_run() {
        let b = Bench::single_mesh(4, 2, 1);
        let pat = b.pattern(PatternSpec::Uniform, 0.3);
        let a = run_quick(&b, pat.as_ref());
        // The same run type-erased: per-flit virtual dispatch through the
        // enum's own `RouteOracle` impl.
        let cfg = b.prepare_cfg(&quick_cfg());
        let oracle: &dyn RouteOracle = &b.oracle;
        let d = wsdf_sim::Simulation::new(b.fabric.net(), &cfg, oracle)
            .unwrap()
            .run(pat.as_ref())
            .unwrap();
        assert_eq!(a.packets_created, d.packets_created);
        assert_eq!(a.packets_ejected, d.packets_ejected);
        assert_eq!(a.latency_sum, d.latency_sum);
        assert_eq!(a.class_hops.flit_hops, d.class_hops.flit_hops);
    }

    #[test]
    fn labels_encode_width_and_mode() {
        let p = SlParams::radix16().with_wgroups(1).with_mesh_width(2);
        let b = Bench::switchless(&p, RouteMode::Valiant, VcScheme::Baseline);
        assert_eq!(b.label, "SW-less-2B-Mis");
    }
}
