//! Fault-aware routing: precomputed detours over the live subgraph.
//!
//! The topology-specific oracles ([`crate::SlOracle`], [`crate::SwOracle`],
//! …) derive every hop from address arithmetic on the *pristine* fabric;
//! a dead link breaks their correctness, and patching detours into them
//! case-by-case would break their deadlock arguments. [`DetourOracle`]
//! instead routes any fabric with arbitrary dead links/routers, using the
//! classic fault-tolerant discipline:
//!
//! * Build the **live graph** (surviving routers and links) and a BFS
//!   spanning order per connected component (root = lowest live router id;
//!   routers ranked by `(BFS level, id)`). A router-router link enters the
//!   live graph only when **both** of its channels survive: a link usable
//!   one way only is dropped whole, because up\*/down\* connectivity (and
//!   the component a [`ReachMap`] reports) assumes every edge runs both
//!   ways.
//! * Route **up\*/down\***: every path is zero or more *up* edges (toward
//!   the root in rank order) followed by zero or more *down* edges. Any
//!   two routers of one component are connected by such a path (through
//!   the root if necessary), and the discipline is deadlock-free: up-edge
//!   dependencies follow the rank order, down-edge dependencies its
//!   reverse, and the phase change is one-way.
//! * The phase rides the VC: **VC 0 = up phase, VC 1 = down phase**, so
//!   the VC order is monotone along every route (2 VCs total) and the
//!   per-hop decision is a pure table lookup on `(destination router,
//!   phase, current router)`. Each entry is the **lowest port among hops
//!   on a shortest legal path** from that router and phase.
//!
//! The tables come from a bit-parallel multi-source BFS (Then et al.,
//! "The More the Merrier", VLDB 2014): one level-synchronous two-state
//! BFS settles 256 destinations at once, one bit each in a `[u64; 4]`
//! mask per router and phase. Every router pulls the next level from its
//! own port-ordered out-edges (an up edge carries the neighbour's up
//! frontier, a down edge its down frontier), and a newly settled
//! (destination, phase) bit takes the first such edge, which is the
//! lowest-port rule above. The build is single-threaded.
//!
//! Endpoint pairs in different components (or with a dead attach router)
//! get an explicit [`PathVerdict::Unreachable`]; asking `route` for such a
//! packet is a hard panic, mirroring the engine's dead-channel asserts.
//! [`ReachMap`] is the cheap per-endpoint summary workloads use to filter
//! traffic down to routable pairs.
//!
//! Table memory is `2 × routers × destination-routers` bytes; the build
//! adds six `[u64; 4]` masks (192 bytes) of scratch per router. Meant for
//! C-group/W-group-scale resilience studies, not the full 18560-chip
//! system in one piece.

use wsdf_sim::{
    FaultMap, NetworkDesc, PacketHeader, RouteChoice, RouteOracle, SplitMix64, Terminus,
};
use wsdf_topo::fault::undirected_links;

/// Reachability of one endpoint pair under a fault set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathVerdict {
    /// A legal up*/down* route exists over the live graph.
    Routed,
    /// No route: an attach router is dead, or the endpoints sit in
    /// different connected components of the live graph.
    Unreachable,
}

/// Component id of a dead router / endpoint on a dead router.
const DEAD: u32 = u32::MAX;
/// Table entry for "no legal next hop".
const NO_HOP: u8 = 0xFF;
/// Table-entry flag: this hop is (or enters) the down phase → VC 1.
const DOWN_BIT: u8 = 0x80;

/// Per-endpoint reachability summary of a fault set: which endpoints are
/// alive and which pairs are mutually routable. Cheap to clone and share
/// with traffic patterns / workload builders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachMap {
    /// Component id per endpoint ([`DEAD`] = attach router dead).
    comp: std::sync::Arc<Vec<u32>>,
}

impl ReachMap {
    /// True if `ep`'s attach router survived.
    #[inline]
    pub fn live(&self, ep: u32) -> bool {
        self.comp[ep as usize] != DEAD
    }

    /// True if traffic from `src` can reach `dst` (both alive, same live
    /// component).
    #[inline]
    pub fn routable(&self, src: u32, dst: u32) -> bool {
        let c = self.comp[src as usize];
        c != DEAD && c == self.comp[dst as usize]
    }

    /// Endpoints covered by the map.
    pub fn endpoints(&self) -> u32 {
        self.comp.len() as u32
    }

    /// Endpoints whose attach router survived.
    pub fn live_endpoints(&self) -> u32 {
        self.comp.iter().filter(|&&c| c != DEAD).count() as u32
    }

    /// Ordered endpoint pairs `(s, d)` with `s != d` that are *not*
    /// routable (dead ends included).
    pub fn unreachable_pairs(&self) -> u64 {
        let n = self.comp.len() as u64;
        let mut sizes = std::collections::HashMap::new();
        for &c in self.comp.iter().filter(|&&c| c != DEAD) {
            *sizes.entry(c).or_insert(0u64) += 1;
        }
        let routable: u64 = sizes.values().map(|&s| s * (s - 1)).sum();
        n * (n - 1) - routable
    }

    /// The live endpoints of the largest component (ties broken toward the
    /// lower component id), ascending — the natural participant set for a
    /// collective on a degraded fabric.
    pub fn largest_component_endpoints(&self) -> Vec<u32> {
        let mut sizes = std::collections::HashMap::new();
        for &c in self.comp.iter().filter(|&&c| c != DEAD) {
            *sizes.entry(c).or_insert(0u64) += 1;
        }
        let Some((&best, _)) = sizes
            .iter()
            .max_by_key(|(&c, &s)| (s, std::cmp::Reverse(c)))
        else {
            return Vec::new();
        };
        self.comp
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == best)
            .map(|(e, _)| e as u32)
            .collect()
    }
}

/// Fault-aware table-routing oracle (see the module docs).
#[derive(Debug, Clone)]
pub struct DetourOracle {
    routers: u32,
    /// Endpoint → attach router.
    ep_router: Vec<u32>,
    /// Endpoint → ejection port on its attach router.
    eject_port: Vec<u8>,
    /// Endpoint → live-component id ([`DEAD`] if the attach router died).
    comp: std::sync::Arc<Vec<u32>>,
    /// Destination-router → dense table index ([`u32::MAX`] = not a
    /// destination).
    dst_index: Vec<u32>,
    /// `(dst_index × 2 + phase) × routers + router` → port | [`DOWN_BIT`],
    /// or [`NO_HOP`].
    table: Vec<u8>,
}

impl DetourOracle {
    /// Precompute detour tables for `net` under `faults` (which must be
    /// sealed — see [`FaultMap::seal`]).
    pub fn build(net: &NetworkDesc, faults: &FaultMap) -> Self {
        Self::build_with(net, faults, bit_parallel_tables)
    }

    /// [`DetourOracle::build`] with the scalar per-destination table fill
    /// it replaced: the oracle the bit-parallel fill is checked against.
    #[cfg(test)]
    fn build_reference(net: &NetworkDesc, faults: &FaultMap) -> Self {
        Self::build_with(net, faults, reference_tables)
    }

    /// Live graph, components and destinations, with the next-hop tables
    /// filled by `tables(adj, dsts)`.
    fn build_with(
        net: &NetworkDesc,
        faults: &FaultMap,
        tables: fn(&[Edges], &[u32]) -> Vec<u8>,
    ) -> Self {
        faults
            .validate(net)
            .expect("fault map does not match network");
        let nr = net.num_routers();
        let ne = net.num_endpoints();

        // Endpoint attach points.
        let ep_router: Vec<u32> = net.endpoints.iter().map(|e| e.router).collect();
        let mut eject_port = vec![0u8; ne];
        for ch in &net.channels {
            if let (Terminus::Router { port, .. }, Terminus::Endpoint { endpoint }) =
                (ch.src, ch.dst)
            {
                eject_port[endpoint as usize] = port;
            }
        }

        // Live adjacency, port-ordered (determinism: ties resolve to the
        // lowest port). A link enters only when both of its channels
        // survive, so an unpaired channel (`a == b`) never does:
        // up*/down* connectivity within a component needs every edge
        // usable both ways.
        let mut adj: Vec<Edges> = vec![Vec::new(); nr];
        for (a, b) in undirected_links(net) {
            if a == b || faults.channel_dead(a) || faults.channel_dead(b) {
                continue;
            }
            for c in [a, b] {
                let ch = &net.channels[c as usize];
                if let (
                    Terminus::Router {
                        router: r1,
                        port: p1,
                    },
                    Terminus::Router { router: r2, .. },
                ) = (ch.src, ch.dst)
                {
                    if faults.router_dead(r1) || faults.router_dead(r2) {
                        continue;
                    }
                    // The table encodes `port | DOWN_BIT` in one byte, and
                    // 0x7F | DOWN_BIT would collide with NO_HOP: ports must
                    // stay below 0x7F (the engine caps radix far lower).
                    assert!(
                        p1 < NO_HOP & !DOWN_BIT,
                        "router {r1} port {p1} exceeds the detour table's port encoding"
                    );
                    adj[r1 as usize].push((p1, r2));
                }
            }
        }
        for a in &mut adj {
            a.sort_unstable();
        }

        // BFS components + levels; root = lowest live id of each component.
        let mut comp_of = vec![DEAD; nr];
        let mut level = vec![u32::MAX; nr];
        let mut queue = std::collections::VecDeque::new();
        let mut ncomp = 0u32;
        for r in 0..nr {
            if comp_of[r] != DEAD || faults.router_dead(r as u32) {
                continue;
            }
            comp_of[r] = ncomp;
            level[r] = 0;
            queue.push_back(r as u32);
            while let Some(v) = queue.pop_front() {
                for &(_, w) in &adj[v as usize] {
                    if comp_of[w as usize] == DEAD {
                        comp_of[w as usize] = ncomp;
                        level[w as usize] = level[v as usize] + 1;
                        queue.push_back(w);
                    }
                }
            }
            ncomp += 1;
        }

        // Rank order: (level, id); an edge v→w is *up* iff w outranks v.
        // Each edge's port becomes the table byte for taking it: down
        // edges carry DOWN_BIT (taking one enters, or stays in, VC 1).
        let rank = |r: u32| (level[r as usize], r);
        for (v, edges) in adj.iter_mut().enumerate() {
            for (e, w) in edges.iter_mut() {
                if rank(*w) > rank(v as u32) {
                    *e |= DOWN_BIT;
                }
            }
        }

        // Destinations: live attach routers of endpoints.
        let mut dst_index = vec![u32::MAX; nr];
        let mut dsts = Vec::new();
        for &r in &ep_router {
            if !faults.router_dead(r) && dst_index[r as usize] == u32::MAX {
                dst_index[r as usize] = dsts.len() as u32;
                dsts.push(r);
            }
        }
        let table = tables(&adj, &dsts);

        // Endpoint components.
        let comp: Vec<u32> = ep_router
            .iter()
            .map(|&r| {
                if faults.router_dead(r) {
                    DEAD
                } else {
                    comp_of[r as usize]
                }
            })
            .collect();

        DetourOracle {
            routers: nr as u32,
            ep_router,
            eject_port,
            comp: std::sync::Arc::new(comp),
            dst_index,
            table,
        }
    }

    /// Pristine-network convenience (used by tests; real pristine runs
    /// should keep their topology-specific oracle).
    pub fn pristine(net: &NetworkDesc) -> Self {
        Self::build(net, &FaultMap::pristine(net))
    }

    /// Reachability verdict for the endpoint pair `(src, dst)`.
    pub fn verdict(&self, src: u32, dst: u32) -> PathVerdict {
        if src != dst && self.reach_map().routable(src, dst) {
            PathVerdict::Routed
        } else {
            PathVerdict::Unreachable
        }
    }

    /// The per-endpoint reachability summary (cheap: shares the component
    /// vector).
    pub fn reach_map(&self) -> ReachMap {
        ReachMap {
            comp: self.comp.clone(),
        }
    }
}

/// One router's live out-edges `(table byte, neighbour)` in port order.
/// The byte is the entry for taking that edge: its port, plus [`DOWN_BIT`]
/// on a down edge.
type Edges = Vec<(u8, u32)>;

/// Words of a destination mask.
const LANES: usize = 4;
/// Destinations settled per bit-parallel BFS pass: one mask bit each.
const BATCH: usize = 64 * LANES;
/// One bit per destination of a batch.
type Mask = [u64; LANES];

/// Next-hop tables for `dsts` over the live graph `adj`, laid out as
/// `DetourOracle::table`: the bit-parallel BFS of the module docs, one
/// pass per [`BATCH`] destinations. Level `k` of a pass holds the
/// (router, phase, destination) states at shortest legal distance `k`.
fn bit_parallel_tables(adj: &[Edges], dsts: &[u32]) -> Vec<u8> {
    let nr = adj.len();
    let mut table = vec![NO_HOP; dsts.len() * 2 * nr];
    // Per router, `[up, down]` masks: states settled so far, states of the
    // previous level, states of the level being built.
    let none = [[0u64; LANES]; 2];
    let mut seen = vec![none; nr];
    let mut front = vec![none; nr];
    let mut next = vec![none; nr];
    for (bi, batch) in dsts.chunks(BATCH).enumerate() {
        front.fill(none);
        for (b, &d) in batch.iter().enumerate() {
            for mask in &mut front[d as usize] {
                mask[b / 64] |= 1 << (b % 64);
            }
        }
        seen.copy_from_slice(&front);
        // Entry of (batch bit b, phase p, router v): rows[(2b + p)·nr + v].
        let rows = &mut table[bi * BATCH * 2 * nr..];
        loop {
            let mut settled = false;
            for v in 0..nr {
                let mut new = none;
                for &(e, w) in &adj[v] {
                    let f = &front[w as usize];
                    if e & DOWN_BIT == 0 {
                        settle(&mut new[0], &f[0], &seen[v][0], e, rows, v, nr);
                    } else {
                        settle(&mut new[0], &f[1], &seen[v][0], e, rows, v, nr);
                        settle(&mut new[1], &f[1], &seen[v][1], e, rows, nr + v, nr);
                    }
                }
                // Only router v reads seen[v]: it absorbs the level now.
                for (s, n) in seen[v].iter_mut().zip(&new) {
                    for (s, n) in s.iter_mut().zip(n) {
                        *s |= n;
                    }
                }
                settled |= new != none;
                next[v] = new;
            }
            if !settled {
                break;
            }
            std::mem::swap(&mut front, &mut next);
        }
    }
    table
}

/// Settle, in one phase of one router, the states of `cand` neither
/// `seen` nor already in `new`: add them to `new` and record `entry` as
/// their next hop at `rows[2b·nr + at]` for batch bit `b`.
#[inline]
fn settle(
    new: &mut Mask,
    cand: &Mask,
    seen: &Mask,
    entry: u8,
    rows: &mut [u8],
    at: usize,
    nr: usize,
) {
    for i in 0..LANES {
        let mut m = cand[i] & !seen[i] & !new[i];
        new[i] |= m;
        while m != 0 {
            let b = i * 64 + m.trailing_zeros() as usize;
            rows[2 * b * nr + at] = entry;
            m &= m - 1;
        }
    }
}

/// The scalar fill [`bit_parallel_tables`] replaced, kept as its test
/// oracle: per destination, a two-state backward BFS for shortest legal
/// distances, then a forward pass picking each router's best hop.
#[cfg(test)]
fn reference_tables(adj: &[Edges], dsts: &[u32]) -> Vec<u8> {
    const UNREACH: u32 = u32::MAX;
    let nr = adj.len();
    let is_up = |e: u8| e & DOWN_BIT == 0;
    let mut table = vec![NO_HOP; dsts.len() * 2 * nr];
    let mut du = vec![UNREACH; nr];
    let mut dd = vec![UNREACH; nr];
    let mut bfs: std::collections::VecDeque<(u32, bool)> = std::collections::VecDeque::new();
    for (di, &d) in dsts.iter().enumerate() {
        du.fill(UNREACH);
        dd.fill(UNREACH);
        du[d as usize] = 0;
        dd[d as usize] = 0;
        bfs.clear();
        bfs.push_back((d, false)); // (router, in down phase)
        bfs.push_back((d, true));
        while let Some((w, down)) = bfs.pop_front() {
            // Links enter the live graph in pairs, so incoming edges
            // mirror outgoing ones: walk w's neighbours as predecessors.
            // The edge v→w runs opposite to w→v (tagged `e`).
            for &(e, v) in &adj[w as usize] {
                if down {
                    // Predecessors of (w, D) cross a down edge v→w.
                    if is_up(e) {
                        let nd = dd[w as usize] + 1;
                        if dd[v as usize] == UNREACH {
                            dd[v as usize] = nd;
                            bfs.push_back((v, true));
                        }
                        if du[v as usize] == UNREACH {
                            du[v as usize] = nd;
                            bfs.push_back((v, false));
                        }
                    }
                } else if !is_up(e) {
                    // Predecessors of (w, U) cross an up edge v→w.
                    let nd = du[w as usize] + 1;
                    if du[v as usize] == UNREACH {
                        du[v as usize] = nd;
                        bfs.push_back((v, false));
                    }
                }
            }
        }
        // Forward pass: best legal hop per (router, phase).
        for v in 0..nr as u32 {
            if v == d {
                continue;
            }
            let mut best_u: (u32, u8) = (UNREACH, NO_HOP);
            let mut best_d: (u32, u8) = (UNREACH, NO_HOP);
            for &(e, w) in &adj[v as usize] {
                if is_up(e) {
                    if du[w as usize] != UNREACH && du[w as usize] + 1 < best_u.0 {
                        best_u = (du[w as usize] + 1, e);
                    }
                } else if dd[w as usize] != UNREACH {
                    let c = dd[w as usize] + 1;
                    if c < best_u.0 {
                        best_u = (c, e);
                    }
                    if c < best_d.0 {
                        best_d = (c, e);
                    }
                }
            }
            debug_assert_eq!(best_u.0, du[v as usize], "router {v} → {d}");
            debug_assert_eq!(best_d.0, dd[v as usize], "router {v} → {d}");
            table[(di * 2) * nr + v as usize] = best_u.1;
            table[(di * 2 + 1) * nr + v as usize] = best_d.1;
        }
    }
    table
}

impl RouteOracle for DetourOracle {
    fn route(
        &self,
        router: u32,
        _in_port: u8,
        in_vc: u8,
        pkt: &PacketHeader,
        _rng: &mut SplitMix64,
    ) -> RouteChoice {
        let dr = self.ep_router[pkt.dst as usize];
        if router == dr {
            return RouteChoice {
                out_port: self.eject_port[pkt.dst as usize],
                out_vc: in_vc,
            };
        }
        let di = self.dst_index[dr as usize];
        assert_ne!(
            di,
            u32::MAX,
            "unroutable packet {} → {}: destination router {dr} is dead",
            pkt.src,
            pkt.dst
        );
        let phase = usize::from(in_vc != 0);
        let e = self.table[(di as usize * 2 + phase) * self.routers as usize + router as usize];
        assert_ne!(
            e, NO_HOP,
            "unroutable packet {} → {} at router {router} (unreachable under faults)",
            pkt.src, pkt.dst
        );
        RouteChoice {
            out_port: e & !DOWN_BIT,
            out_vc: u8::from(e & DOWN_BIT != 0),
        }
    }

    fn initial_vc(&self, _pkt: &PacketHeader) -> u8 {
        0
    }

    fn num_vcs(&self) -> u8 {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::{PortMap, Walker};
    use wsdf_sim::flit::NO_INTERMEDIATE;
    use wsdf_sim::ChannelClass;

    /// A 2×3 grid: routers 0..6, endpoint per router on port 0, +x on port
    /// 1/2, +y on port 3/4 (mirrors the mesh convention).
    fn grid() -> NetworkDesc {
        let mut net = NetworkDesc::new();
        for _ in 0..6 {
            net.add_router(5);
        }
        for r in 0..6u32 {
            let e = net.add_endpoint(r);
            net.attach_endpoint(e, r, 0, 1, 1);
        }
        // Rows: 0-1-2 / 3-4-5; columns 0-3, 1-4, 2-5.
        for (a, b) in [(0u32, 1u32), (1, 2), (3, 4), (4, 5)] {
            net.connect((a, 1), (b, 2), 1, 1, ChannelClass::ShortReach);
        }
        for (a, b) in [(0u32, 3u32), (1, 4), (2, 5)] {
            net.connect((a, 3), (b, 4), 1, 1, ChannelClass::ShortReach);
        }
        net
    }

    fn walk_all_pairs(net: &NetworkDesc, o: &DetourOracle, reach: &ReachMap) -> usize {
        let map = PortMap::new(net);
        let w = Walker::new(&map, o);
        let mut max_hops = 0;
        for s in 0..net.num_endpoints() as u32 {
            for d in 0..net.num_endpoints() as u32 {
                if s == d {
                    continue;
                }
                if reach.routable(s, d) {
                    let t = w.walk(s, d, NO_INTERMEDIATE).unwrap();
                    max_hops = max_hops.max(t.network_hops());
                    // Phase monotonicity: VC never drops 1 → 0.
                    for pair in t.vcs().windows(2) {
                        assert!(pair[0] <= pair[1], "{s}→{d}: down → up ({:?})", t.vcs());
                    }
                } else {
                    assert_eq!(o.verdict(s, d), PathVerdict::Unreachable);
                }
            }
        }
        max_hops
    }

    #[test]
    fn pristine_grid_routes_all_pairs_shortest() {
        let net = grid();
        let o = DetourOracle::pristine(&net);
        let reach = o.reach_map();
        assert_eq!(reach.live_endpoints(), 6);
        assert_eq!(reach.unreachable_pairs(), 0);
        let max = walk_all_pairs(&net, &o, &reach);
        // Grid diameter is 3 (corner to corner); up*/down* over the BFS
        // order of this grid achieves it.
        assert_eq!(max, 3);
    }

    #[test]
    fn detour_survives_a_cut_link() {
        let net = grid();
        // Kill the 1↔4 column (channels between routers 1 and 4).
        let mut faults = FaultMap::pristine(&net);
        for (c, ch) in net.channels.iter().enumerate() {
            let ends = (ch.src.router(), ch.dst.router());
            if matches!(ends, (Some(1), Some(4)) | (Some(4), Some(1))) {
                faults.kill_channel(c as u32);
            }
        }
        faults.seal(&net);
        let o = DetourOracle::build(&net, &faults);
        let reach = o.reach_map();
        assert_eq!(reach.unreachable_pairs(), 0, "grid stays connected");
        let map = PortMap::new(&net);
        let w = Walker::new(&map, &o);
        // 1 → 4 must detour through a neighbor column: 3 hops instead of 1.
        let t = w.walk(1, 4, NO_INTERMEDIATE).unwrap();
        assert_eq!(t.network_hops(), 3);
        walk_all_pairs(&net, &o, &reach);
    }

    #[test]
    fn one_way_dead_link_drops_the_whole_link() {
        let net = grid();
        // Kill only the 1 → 4 channel: the 4 → 1 channel survives, but a
        // link usable one way must not enter the live graph.
        let mut faults = FaultMap::pristine(&net);
        let c = net
            .channels
            .iter()
            .position(|ch| (ch.src.router(), ch.dst.router()) == (Some(1), Some(4)))
            .unwrap();
        faults.kill_channel(c as u32);
        faults.seal(&net);
        let o = DetourOracle::build(&net, &faults);
        let reach = o.reach_map();
        assert_eq!(reach.unreachable_pairs(), 0, "grid stays connected");
        walk_all_pairs(&net, &o, &reach);
        let map = PortMap::new(&net);
        let w = Walker::new(&map, &o);
        assert_eq!(w.walk(4, 1, NO_INTERMEDIATE).unwrap().network_hops(), 3);
    }

    #[test]
    fn dead_router_partitions_reachability_not_the_rest() {
        let net = grid();
        let mut faults = FaultMap::pristine(&net);
        faults.kill_router(4);
        faults.seal(&net);
        let o = DetourOracle::build(&net, &faults);
        let reach = o.reach_map();
        assert!(!reach.live(4));
        assert_eq!(reach.live_endpoints(), 5);
        // Endpoint 4 unreachable from everyone; the other 5 are still a
        // single component (5·4 routable ordered pairs).
        assert_eq!(reach.unreachable_pairs(), 30 - 20);
        assert_eq!(o.verdict(0, 4), PathVerdict::Unreachable);
        assert_eq!(o.verdict(4, 0), PathVerdict::Unreachable);
        assert_eq!(o.verdict(3, 5), PathVerdict::Routed);
        walk_all_pairs(&net, &o, &reach);
        assert_eq!(reach.largest_component_endpoints(), vec![0, 1, 2, 3, 5]);
    }

    #[test]
    fn split_fabric_yields_two_components() {
        let net = grid();
        // Cut both column links 0-3 and 1-4 and the row link 1-2 … that
        // still leaves a path; instead cut the grid into left (0,3) and
        // right (1,2,4,5): kill 0-1 and 3-4.
        let mut faults = FaultMap::pristine(&net);
        for (c, ch) in net.channels.iter().enumerate() {
            let ends = (ch.src.router(), ch.dst.router());
            if matches!(
                ends,
                (Some(0), Some(1)) | (Some(1), Some(0)) | (Some(3), Some(4)) | (Some(4), Some(3))
            ) {
                faults.kill_channel(c as u32);
            }
        }
        faults.seal(&net);
        let o = DetourOracle::build(&net, &faults);
        let reach = o.reach_map();
        assert!(reach.routable(0, 3) && reach.routable(1, 5));
        assert!(!reach.routable(0, 1) && !reach.routable(3, 2));
        // 2·1 + 4·3 = 14 routable ordered pairs of 30.
        assert_eq!(reach.unreachable_pairs(), 16);
        assert_eq!(reach.largest_component_endpoints(), vec![1, 2, 4, 5]);
        walk_all_pairs(&net, &o, &reach);
    }

    #[test]
    #[should_panic(expected = "unroutable")]
    fn routing_an_unreachable_packet_panics() {
        let net = grid();
        let mut faults = FaultMap::pristine(&net);
        faults.kill_router(4);
        faults.seal(&net);
        let o = DetourOracle::build(&net, &faults);
        let pkt = PacketHeader {
            id: 1,
            src: 0,
            dst: 4,
            inter_w: NO_INTERMEDIATE,
            created: 0,
            len: 4,
        };
        let mut rng = SplitMix64::new(0);
        o.route(0, 0, 0, &pkt, &mut rng);
    }

    #[test]
    fn bit_parallel_tables_match_the_reference() {
        use wsdf_topo::{FaultSet, FaultSpec, SlParams, SwParams, SwitchFabric, SwitchlessFabric};
        let fabrics = [
            ("grid", grid()),
            (
                "switchless 1 W-group",
                SwitchlessFabric::build(&SlParams::radix16().with_wgroups(1)).net,
            ),
            (
                "switchless 10 W-groups",
                SwitchlessFabric::build(&SlParams::radix16().with_wgroups(10)).net,
            ),
            (
                "switch-based",
                SwitchFabric::build(&SwParams::radix16()).net,
            ),
        ];
        for (name, net) in &fabrics {
            for seed in 1..=4u64 {
                for frac in [0.0, 0.02, 0.1, 0.3] {
                    let fs = FaultSet::sample(
                        net,
                        &FaultSpec {
                            seed,
                            link_fraction: frac,
                            router_fraction: frac / 2.0,
                            ..Default::default()
                        },
                    );
                    let a = DetourOracle::build(net, fs.map());
                    let b = DetourOracle::build_reference(net, fs.map());
                    let case = format!("{name}, seed {seed}, fraction {frac}");
                    assert!(a.table == b.table, "table differs: {case}");
                    assert_eq!(a.comp, b.comp, "{case}");
                    assert_eq!(a.dst_index, b.dst_index, "{case}");
                    assert_eq!(a.eject_port, b.eject_port, "{case}");
                }
            }
        }
    }

    #[test]
    fn tables_are_deterministic() {
        let net = grid();
        let mut faults = FaultMap::pristine(&net);
        faults.kill_channel(6);
        faults.seal(&net);
        let a = DetourOracle::build(&net, &faults);
        let b = DetourOracle::build(&net, &faults);
        assert_eq!(a.table, b.table);
        assert_eq!(a.comp, b.comp);
    }
}
