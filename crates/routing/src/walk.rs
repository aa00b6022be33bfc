//! Pure route walking: follow an oracle's decisions over a built network
//! without running the simulator.
//!
//! Used by tests and the analysis harness for reachability, hop-count
//! (diameter, Eq. 7), VC-monotonicity and up*/down*-legality checks, and by
//! the energy model to cross-check simulated hop counts. A
//! [`DependencyGraph`] over walked routes checks deadlock freedom.

use wsdf_sim::{
    flit::NO_INTERMEDIATE, ChannelClass, NetworkDesc, PacketHeader, RouteOracle, SplitMix64,
    Terminus,
};

/// Static (router, port) → destination map built from a [`NetworkDesc`].
#[derive(Debug, Clone)]
pub struct PortMap {
    /// Per router, per port: outgoing channel destination and class.
    out: Vec<Vec<Option<(Terminus, ChannelClass, u32)>>>,
    /// Injection side: endpoint → (router, port).
    inject: Vec<(u32, u8)>,
}

impl PortMap {
    /// Build the map.
    pub fn new(net: &NetworkDesc) -> Self {
        let mut out: Vec<Vec<Option<(Terminus, ChannelClass, u32)>>> = net
            .routers
            .iter()
            .map(|r| vec![None; r.ports as usize])
            .collect();
        let mut inject = vec![(u32::MAX, 0u8); net.num_endpoints()];
        for ch in &net.channels {
            match ch.src {
                Terminus::Router { router, port } => {
                    out[router as usize][port as usize] = Some((ch.dst, ch.class, ch.latency));
                }
                Terminus::Endpoint { endpoint } => {
                    if let Terminus::Router { router, port } = ch.dst {
                        inject[endpoint as usize] = (router, port);
                    }
                }
            }
        }
        PortMap { out, inject }
    }

    /// Destination of (router, port), if wired.
    pub fn follow(&self, router: u32, port: u8) -> Option<(Terminus, ChannelClass, u32)> {
        self.out[router as usize][port as usize]
    }

    /// Router and port an endpoint injects into.
    pub fn injection(&self, endpoint: u32) -> (u32, u8) {
        self.inject[endpoint as usize]
    }
}

/// One hop of a walked route.
#[derive(Debug, Clone, Copy)]
pub struct Hop {
    /// Router the hop leaves from.
    pub router: u32,
    /// Output port taken.
    pub out_port: u8,
    /// VC requested for the downstream buffer.
    pub out_vc: u8,
    /// Class of the traversed channel.
    pub class: ChannelClass,
    /// Channel latency in cycles.
    pub latency: u32,
}

/// A fully walked route.
#[derive(Debug, Clone)]
pub struct RouteTrace {
    /// Hops in order (excluding the injection hop, including ejection).
    pub hops: Vec<Hop>,
}

impl RouteTrace {
    /// Total router-to-router hops (excluding ejection).
    pub fn network_hops(&self) -> usize {
        self.hops
            .iter()
            .filter(|h| h.class != ChannelClass::Ejection)
            .count()
    }

    /// Hops of a given class.
    pub fn hops_of(&self, class: ChannelClass) -> usize {
        self.hops.iter().filter(|h| h.class == class).count()
    }

    /// Sum of channel latencies along the route (zero-load wire latency).
    pub fn wire_latency(&self) -> u64 {
        self.hops.iter().map(|h| h.latency as u64).sum()
    }

    /// The sequence of VCs requested on non-ejection hops.
    pub fn vcs(&self) -> Vec<u8> {
        self.hops
            .iter()
            .filter(|h| h.class != ChannelClass::Ejection)
            .map(|h| h.out_vc)
            .collect()
    }
}

/// Walks routes by repeatedly querying an oracle.
pub struct Walker<'a> {
    map: &'a PortMap,
    oracle: &'a dyn RouteOracle,
    /// Hop budget before declaring a livelock.
    pub max_hops: usize,
}

impl<'a> Walker<'a> {
    /// New walker with a 4096-hop budget.
    pub fn new(map: &'a PortMap, oracle: &'a dyn RouteOracle) -> Self {
        Walker {
            map,
            oracle,
            max_hops: 4096,
        }
    }

    /// Walk a packet from endpoint `src` to endpoint `dst`; `inter_w`
    /// pre-tags Valiant packets (use [`RouteOracle::tag_packet`] upstream
    /// for random tagging). Returns an error string on livelock, unwired
    /// ports, or misdelivery.
    pub fn walk(&self, src: u32, dst: u32, inter_w: u32) -> Result<RouteTrace, String> {
        let pkt = PacketHeader {
            id: (src as u64) << 32 | dst as u64,
            src,
            dst,
            inter_w,
            created: 0,
            len: 4,
        };
        let mut rng = SplitMix64::for_agent(7, src as u64);
        let (mut router, mut in_port) = self.map.injection(src);
        if router == u32::MAX {
            return Err(format!("endpoint {src} has no injection channel"));
        }
        let mut hops = Vec::new();
        let mut in_vc = self.oracle.initial_vc(&pkt);
        for _ in 0..self.max_hops {
            let choice = self.oracle.route(router, in_port, in_vc, &pkt, &mut rng);
            let Some((to, class, latency)) = self.map.follow(router, choice.out_port) else {
                return Err(format!(
                    "router {router} port {} is unwired (src {src} → dst {dst})",
                    choice.out_port
                ));
            };
            hops.push(Hop {
                router,
                out_port: choice.out_port,
                out_vc: choice.out_vc,
                class,
                latency,
            });
            match to {
                Terminus::Endpoint { endpoint } => {
                    if endpoint != dst {
                        return Err(format!("misdelivered: {src} → {dst} ejected at {endpoint}"));
                    }
                    return Ok(RouteTrace { hops });
                }
                Terminus::Router {
                    router: r2,
                    port: p2,
                } => {
                    router = r2;
                    in_port = p2;
                    in_vc = choice.out_vc;
                }
            }
        }
        Err(format!(
            "route {src} → {dst} exceeded {} hops (livelock?)",
            self.max_hops
        ))
    }

    /// Walk and also assert the VC sequence never decreases within the
    /// phase order implied by `class_rank` (maps VC → phase rank).
    pub fn walk_checking_vcs(
        &self,
        src: u32,
        dst: u32,
        inter_w: u32,
        class_rank: &dyn Fn(u8) -> u8,
    ) -> Result<RouteTrace, String> {
        let trace = self.walk(src, dst, inter_w)?;
        let vcs = trace.vcs();
        for w in vcs.windows(2) {
            if class_rank(w[1]) < class_rank(w[0]) {
                return Err(format!(
                    "VC phase went backwards ({} → {}) on route {src} → {dst}: {vcs:?}",
                    w[0], w[1]
                ));
            }
        }
        Ok(trace)
    }
}

/// A channel a route holds: the output port it takes at a router and the
/// VC it asks for downstream, as `(router, out_port, out_vc)`.
pub type VcChannel = (u32, u8, u8);

/// The channel-dependency graph of walked routes (Dally & Seitz,
/// "Deadlock-Free Message Routing in Multiprocessor Interconnection
/// Networks", IEEE TC 1987): one node per [`VcChannel`] a route takes, and
/// an edge from each hop of a route to the next. A packet holding one
/// channel waits for the next, so routes whose graph has no cycle cannot
/// deadlock.
#[derive(Debug, Default)]
pub struct DependencyGraph {
    /// Node id per channel.
    ids: std::collections::HashMap<VcChannel, usize>,
    /// Channel per node id.
    nodes: Vec<VcChannel>,
    /// Successor node ids per node id, without repeats.
    succ: Vec<Vec<usize>>,
}

impl DependencyGraph {
    /// Add the dependencies between consecutive hops of `route`.
    pub fn add(&mut self, route: &RouteTrace) {
        let mut prev: Option<usize> = None;
        for h in &route.hops {
            let next = self.node((h.router, h.out_port, h.out_vc));
            if let Some(p) = prev {
                if !self.succ[p].contains(&next) {
                    self.succ[p].push(next);
                }
            }
            prev = Some(next);
        }
    }

    /// The node id of `c`, added if new.
    fn node(&mut self, c: VcChannel) -> usize {
        *self.ids.entry(c).or_insert_with(|| {
            self.nodes.push(c);
            self.succ.push(Vec::new());
            self.nodes.len() - 1
        })
    }

    /// Channels in the graph.
    pub fn channels(&self) -> usize {
        self.nodes.len()
    }

    /// One dependency cycle, as its channels in order, or `None` when the
    /// graph is acyclic: an iterative depth-first search that stops at the
    /// first edge back into its own path.
    pub fn cycle(&self) -> Option<Vec<VcChannel>> {
        const NEW: u8 = 0;
        const ON_PATH: u8 = 1;
        const DONE: u8 = 2;
        let mut state = vec![NEW; self.nodes.len()];
        // The current path: per node, the index of its next successor.
        let mut path: Vec<(usize, usize)> = Vec::new();
        for root in 0..self.nodes.len() {
            if state[root] != NEW {
                continue;
            }
            state[root] = ON_PATH;
            path.push((root, 0));
            while let Some((v, i)) = path.last_mut() {
                let Some(&w) = self.succ[*v].get(*i) else {
                    state[*v] = DONE;
                    path.pop();
                    continue;
                };
                *i += 1;
                match state[w] {
                    NEW => {
                        state[w] = ON_PATH;
                        path.push((w, 0));
                    }
                    ON_PATH => {
                        let start = path
                            .iter()
                            .position(|&(u, _)| u == w)
                            .expect("a node on the path is on the path stack");
                        return Some(path[start..].iter().map(|&(u, _)| self.nodes[u]).collect());
                    }
                    _ => {}
                }
            }
        }
        None
    }
}

/// Walk every (src, dst) pair. Returns the maximum network-hop count (the
/// measured diameter) or the first error. Only feasible for small fabrics.
pub fn all_pairs_diameter(
    map: &PortMap,
    oracle: &dyn RouteOracle,
    endpoints: u32,
) -> Result<usize, String> {
    let walker = Walker::new(map, oracle);
    let mut max = 0;
    for s in 0..endpoints {
        for d in 0..endpoints {
            if s == d {
                continue;
            }
            let t = walker.walk(s, d, NO_INTERMEDIATE)?;
            max = max.max(t.network_hops());
        }
    }
    Ok(max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::MeshOracle;
    use wsdf_topo::single_mesh;

    #[test]
    fn walk_mesh_routes() {
        let f = single_mesh(4, 2, 1);
        let map = PortMap::new(&f.net);
        let o = MeshOracle::new(4);
        let w = Walker::new(&map, &o);
        let t = w.walk(0, 15, NO_INTERMEDIATE).unwrap();
        // (0,0) → (3,3): 6 mesh hops + ejection.
        assert_eq!(t.network_hops(), 6);
        assert_eq!(t.hops.len(), 7);
        assert_eq!(t.hops_of(ChannelClass::Ejection), 1);
    }

    #[test]
    fn mesh_diameter_matches_formula() {
        let f = single_mesh(4, 2, 1);
        let map = PortMap::new(&f.net);
        let o = MeshOracle::new(4);
        let d = all_pairs_diameter(&map, &o, 16).unwrap();
        assert_eq!(d, 2 * (4 - 1));
    }

    #[test]
    fn misdelivery_is_caught() {
        // An oracle that always ejects at port EP regardless of dst.
        struct Bad;
        impl RouteOracle for Bad {
            fn route(
                &self,
                _: u32,
                _: u8,
                _: u8,
                _: &PacketHeader,
                _: &mut SplitMix64,
            ) -> wsdf_sim::RouteChoice {
                wsdf_sim::RouteChoice {
                    out_port: wsdf_topo::core_port::EP,
                    out_vc: 0,
                }
            }
            fn initial_vc(&self, _: &PacketHeader) -> u8 {
                0
            }
            fn num_vcs(&self) -> u8 {
                1
            }
        }
        let f = single_mesh(3, 1, 1);
        let map = PortMap::new(&f.net);
        let w = Walker::new(&map, &Bad);
        let err = w.walk(0, 5, NO_INTERMEDIATE).unwrap_err();
        assert!(err.contains("misdelivered"), "{err}");
    }

    #[test]
    fn clockwise_ring_on_one_vc_closes_a_dependency_cycle() {
        // Four routers in a ring: endpoint on port 0, the clockwise link
        // out of port 1 into port 2, and one VC with no dateline.
        struct Clockwise;
        impl RouteOracle for Clockwise {
            fn route(
                &self,
                router: u32,
                _: u8,
                _: u8,
                pkt: &PacketHeader,
                _: &mut SplitMix64,
            ) -> wsdf_sim::RouteChoice {
                wsdf_sim::RouteChoice {
                    out_port: if pkt.dst == router { 0 } else { 1 },
                    out_vc: 0,
                }
            }
            fn initial_vc(&self, _: &PacketHeader) -> u8 {
                0
            }
            fn num_vcs(&self) -> u8 {
                1
            }
        }
        let n = 4;
        let mut net = NetworkDesc::new();
        for _ in 0..n {
            net.add_router(3);
        }
        for r in 0..n {
            let e = net.add_endpoint(r);
            net.attach_endpoint(e, r, 0, 1, 1);
            net.add_channel(wsdf_sim::ChannelDesc::router_to_router(
                r,
                1,
                (r + 1) % n,
                2,
                1,
                1,
                ChannelClass::ShortReach,
            ));
        }
        let map = PortMap::new(&net);
        let w = Walker::new(&map, &Clockwise);
        let mut g = DependencyGraph::default();
        for s in 0..n {
            for d in (0..n).filter(|&d| d != s) {
                g.add(&w.walk(s, d, NO_INTERMEDIATE).unwrap());
            }
        }
        // Four ring channels and four ejection channels.
        assert_eq!(g.channels(), 8);
        let mut cycle = g.cycle().expect("the clockwise ring closes a cycle");
        cycle.sort_unstable();
        assert_eq!(cycle, [(0, 1, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0)]);
    }
}
