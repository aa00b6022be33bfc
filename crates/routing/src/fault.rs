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
//!   the VC order is monotone along every route (2 VCs total). From a
//!   router in a phase, a hop takes the **lowest port among hops on a
//!   shortest legal path** to the destination router.
//!
//! The next hops come from shortest legal distances. Up\*/down\* makes
//! the down edges acyclic in rank order and the up edges acyclic in its
//! reverse, so the distances take one relaxation sweep per phase in rank
//! order: shortest paths in a DAG (Cormen et al., *Introduction to
//! Algorithms*, §24.2) over the up\*/down\* order of Autonet (Schroeder et
//! al., IEEE JSAC 1991). A batch settles 64 destinations, one lane each
//! of a `[u16; 64]` distance row per router and phase:
//!
//! * The **down sweep** visits the live routers in decreasing rank. A down
//!   edge leads to a higher rank, so a router's down distance is one more
//!   than the least down distance among its down neighbours, all final.
//! * The **up sweep** visits them in increasing rank. An up edge leads to a
//!   lower rank, so a router's up distance is one more than the least of
//!   its up neighbours' up distances and its down neighbours' down
//!   distances, all final.
//!
//! A router's own destination lane is 0 in both phases. Each router and
//! phase then walks its out-edges in port order, and an edge *claims* the
//! lanes whose distance it shortens by exactly one hop, among those no
//! earlier edge claimed: the lowest-port rule above. The build is
//! single-threaded.
//!
//! The oracle keeps the claims themselves: per live directed edge and
//! phase, one bit per destination router, set iff that edge is the next
//! hop toward it. A router's claim words for one (phase, 64 destinations)
//! sit side by side, one cache line for up to eight edges, and a hop
//! takes the edge whose word holds the destination's bit. No two edges
//! claim one state (debug builds check this after every batch). Claim
//! memory is `2 × live directed edges × ⌈destination-routers / 64⌉ × 8`
//! bytes, less than a byte per (phase, router, destination) wherever the
//! average live out-degree is below 8. The build adds two distance rows
//! (256 bytes) of scratch per router. A shortest legal path never
//! revisits a router, so distances fit a `u16` in any live component of
//! fewer than 65535 routers; a larger component panics. Meant for
//! C-group/W-group-scale resilience studies, not the full 18560-chip
//! system in one piece.
//!
//! Endpoint pairs in different components (or with a dead attach router)
//! get an explicit [`PathVerdict::Unreachable`]; asking `route` for such a
//! packet is a hard panic, mirroring the engine's dead-channel asserts.
//! [`ReachMap`] is the cheap per-endpoint summary workloads use to filter
//! traffic down to routable pairs.

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

/// Component id of a dead router / endpoint on a dead router; also "no
/// live link" on a port in the live-graph build.
const DEAD: u32 = u32::MAX;
/// Edge-byte flag: this hop is (or enters) the down phase → VC 1.
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
    /// routable (dead ends included); 0 when the map covers no endpoint.
    pub fn unreachable_pairs(&self) -> u64 {
        let n = self.comp.len() as u64;
        let routable: u64 = self
            .component_sizes()
            .iter()
            .map(|&s| s * s.saturating_sub(1))
            .sum();
        n * n.saturating_sub(1) - routable
    }

    /// The live endpoints of the largest component (ties broken toward the
    /// lower component id), ascending — the natural participant set for a
    /// collective on a degraded fabric.
    pub fn largest_component_endpoints(&self) -> Vec<u32> {
        let sizes = self.component_sizes();
        let Some(best) = (0..sizes.len()).max_by_key(|&c| (sizes[c], std::cmp::Reverse(c))) else {
            return Vec::new();
        };
        self.comp
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c as usize == best)
            .map(|(e, _)| e as u32)
            .collect()
    }

    /// Live endpoints per component id (ids are dense), up to the highest
    /// id any live endpoint has.
    fn component_sizes(&self) -> Vec<u64> {
        let mut sizes = Vec::new();
        for &c in self.comp.iter().filter(|&&c| c != DEAD) {
            let c = c as usize;
            if c >= sizes.len() {
                sizes.resize(c + 1, 0);
            }
            sizes[c] += 1;
        }
        sizes
    }
}

/// Fault-aware detour-routing oracle (see the module docs).
#[derive(Debug, Clone)]
pub struct DetourOracle {
    /// Endpoint → attach router.
    ep_router: Vec<u32>,
    /// Endpoint → ejection port on its attach router.
    eject_port: Vec<u8>,
    /// Endpoint → live-component id ([`DEAD`] if the attach router died).
    comp: std::sync::Arc<Vec<u32>>,
    /// Destination-router → dense destination index ([`u32::MAX`] = not a
    /// destination).
    dst_index: Vec<u32>,
    /// Router `r`'s live out-edges are `edge_off[r]..edge_off[r + 1]`, in
    /// port order.
    edge_off: Vec<u32>,
    /// Per edge: its port, plus [`DOWN_BIT`] on a down edge.
    edge_byte: Vec<u8>,
    /// Claim words per (edge, phase): one bit per destination index.
    words: usize,
    /// Per-edge claim bitsets: bit `d % 64` of word `claim_row(edge_off[r],
    /// deg, words, p, d / 64) + k` is set iff edge `k` of router `r` is its
    /// next hop toward destination index `d` in phase `p`.
    claims: Vec<u64>,
}

impl DetourOracle {
    /// Precompute detours for `net` under `faults` (which must be sealed —
    /// see [`FaultMap::seal`]).
    pub fn build(net: &NetworkDesc, faults: &FaultMap) -> Self {
        faults
            .validate(net)
            .expect("fault map does not match network");
        let g = LiveGraph::new(net, faults);

        // Endpoint attach points.
        let ep_router: Vec<u32> = net.endpoints.iter().map(|e| e.router).collect();
        let mut eject_port = vec![0u8; net.num_endpoints()];
        for ch in &net.channels {
            if let (Terminus::Router { port, .. }, Terminus::Endpoint { endpoint }) =
                (ch.src, ch.dst)
            {
                eject_port[endpoint as usize] = port;
            }
        }

        // Destinations: live attach routers of endpoints.
        let mut dst_index = vec![u32::MAX; net.num_routers()];
        let mut ndst = 0;
        for &r in &ep_router {
            if !faults.router_dead(r) && dst_index[r as usize] == u32::MAX {
                dst_index[r as usize] = ndst;
                ndst += 1;
            }
        }
        let words = (ndst as usize).div_ceil(64);
        let claims = sweep_claims(&g, &dst_index, words);

        // Endpoint components (a dead router has component DEAD).
        let comp = ep_router.iter().map(|&r| g.comp[r as usize]).collect();

        DetourOracle {
            ep_router,
            eject_port,
            comp: std::sync::Arc::new(comp),
            dst_index,
            edge_off: g.off,
            edge_byte: g.byte,
            words,
            claims,
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

/// The live graph of a fault set in CSR form (see the module docs).
struct LiveGraph {
    /// Router `r`'s live out-edges are `off[r]..off[r + 1]`, in port order.
    off: Vec<u32>,
    /// Per edge: its port, plus [`DOWN_BIT`] on a down edge (taking one
    /// enters, or stays in, VC 1).
    byte: Vec<u8>,
    /// Per edge: the neighbour it leads to.
    to: Vec<u32>,
    /// Per router: live-component id ([`DEAD`] for a dead router).
    comp: Vec<u32>,
    /// The live routers in rank order `(BFS level, id)`: a down edge leads
    /// to a later router, an up edge to an earlier one.
    order: Vec<u32>,
}

impl LiveGraph {
    /// Live edges, components and up/down marks of `net` under `faults`.
    fn new(net: &NetworkDesc, faults: &FaultMap) -> Self {
        let nr = net.num_routers();
        // Live neighbour per (router, port), or DEAD, numbered as by
        // `port_offsets`: reading a router's ports in order lists its
        // edges in port order (determinism: ties resolve to the lowest
        // port). A link enters only when both of its channels survive, so
        // an unpaired channel (`a == b`) never does: up*/down*
        // connectivity within a component needs every edge usable both
        // ways.
        let first = net.port_offsets();
        let mut neighbour = vec![DEAD; first[nr]];
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
                    // An edge byte is `port | DOWN_BIT`: ports must stay
                    // below DOWN_BIT (the engine caps radix far lower).
                    assert!(
                        p1 < DOWN_BIT,
                        "router {r1} port {p1} exceeds the detour oracle's port encoding"
                    );
                    let r1 = r1 as usize;
                    neighbour[first[r1]..first[r1 + 1]][usize::from(p1)] = r2;
                }
            }
        }
        let mut off = Vec::with_capacity(nr + 1);
        let (mut byte, mut to) = (Vec::new(), Vec::new());
        off.push(0);
        for r in 0..nr {
            for (p, &w) in neighbour[first[r]..first[r + 1]].iter().enumerate() {
                if w != DEAD {
                    byte.push(p as u8);
                    to.push(w);
                }
            }
            off.push(to.len() as u32);
        }

        // BFS components + levels; root = lowest live id of each component.
        let mut comp = vec![DEAD; nr];
        let mut level = vec![u32::MAX; nr];
        let mut queue = std::collections::VecDeque::new();
        let mut ncomp = 0u32;
        for r in 0..nr {
            if comp[r] != DEAD || faults.router_dead(r as u32) {
                continue;
            }
            comp[r] = ncomp;
            level[r] = 0;
            queue.push_back(r as u32);
            let mut size = 0usize;
            while let Some(v) = queue.pop_front() {
                size += 1;
                for &w in &to[edges(&off, v as usize)] {
                    if comp[w as usize] == DEAD {
                        comp[w as usize] = ncomp;
                        level[w as usize] = level[v as usize] + 1;
                        queue.push_back(w);
                    }
                }
            }
            // A shortest legal path visits each router at most once, so
            // this bound keeps every distance of the sweeps below FAR.
            assert!(
                size < usize::from(FAR),
                "live component of {size} routers reaches the detour oracle's \
                 u16 distance limit of {FAR}"
            );
            ncomp += 1;
        }

        // Rank order: (level, id); an edge v→w is *up* iff w outranks v.
        let rank = |r: u32| (level[r as usize], r);
        for v in 0..nr {
            for e in edges(&off, v) {
                if rank(to[e]) > rank(v as u32) {
                    byte[e] |= DOWN_BIT;
                }
            }
        }
        let mut order: Vec<u32> = (0..nr as u32)
            .filter(|&r| comp[r as usize] != DEAD)
            .collect();
        order.sort_unstable_by_key(|&r| rank(r));
        LiveGraph {
            off,
            byte,
            to,
            comp,
            order,
        }
    }
}

/// Router `r`'s edges under the CSR offsets `off`.
#[inline]
fn edges(off: &[u32], r: usize) -> std::ops::Range<usize> {
    off[r] as usize..off[r + 1] as usize
}

/// Index of the claim word for phase `p` and destination word `w` of the
/// first edge of a router whose `deg` edges start at edge `first`; the
/// router's other edges' words for `(p, w)` follow it side by side.
#[inline]
fn claim_row(first: usize, deg: usize, words: usize, p: usize, w: usize) -> usize {
    first * 2 * words + (p * words + w) * deg
}

/// Shortest legal distances from a router, in one phase, to the 64
/// destinations of a batch: lane `l` of batch `w` is destination index
/// `64 × w + l`.
type Row = [u16; 64];
/// The distance of a lane with no legal path.
const FAR: u16 = u16::MAX;

/// Claims over the live graph `g` toward the destinations of `dst_index`,
/// laid out as `DetourOracle::claims` with `words` words per (edge,
/// phase): the two sweeps of the module docs, one batch of 64
/// destinations per claim word.
fn sweep_claims(g: &LiveGraph, dst_index: &[u32], words: usize) -> Vec<u64> {
    let mut claims = vec![0u64; g.to.len() * 2 * words];
    // Per router, its up-phase and down-phase rows of the current batch. A
    // sweep writes every live router's row before a neighbour reads it.
    let mut du = vec![[FAR; 64]; g.comp.len()];
    let mut dd = du.clone();
    let is_down = |e: usize| g.byte[e] & DOWN_BIT != 0;
    for w in 0..words {
        // Router `v`'s lane, if it is a destination of this batch.
        let own = |v: usize| {
            let d = dst_index[v];
            (d != u32::MAX && d as usize / 64 == w).then_some(d as usize % 64)
        };
        // Down sweep, decreasing rank: a down edge leads to a higher rank.
        for &v in g.order.iter().rev() {
            let (v, es) = (v as usize, edges(&g.off, v as usize));
            let mut row = [FAR; 64];
            for e in es.clone().filter(|&e| is_down(e)) {
                min_into(&mut row, &dd[g.to[e] as usize]);
            }
            dd[v] = one_hop_more(row, own(v));
            let at = claim_row(es.start, es.len(), words, 1, w);
            claim(&mut claims[at..], es, &dd[v], |e| {
                is_down(e).then(|| &dd[g.to[e] as usize])
            });
        }
        // Up sweep, increasing rank: an up edge leads to a lower rank, and
        // every down distance is final.
        for &v in &g.order {
            let (v, es) = (v as usize, edges(&g.off, v as usize));
            let mut row = [FAR; 64];
            for e in es.clone() {
                let to = g.to[e] as usize;
                min_into(&mut row, if is_down(e) { &dd[to] } else { &du[to] });
            }
            du[v] = one_hop_more(row, own(v));
            let at = claim_row(es.start, es.len(), words, 0, w);
            claim(&mut claims[at..], es, &du[v], |e| {
                let to = g.to[e] as usize;
                Some(if is_down(e) { &dd[to] } else { &du[to] })
            });
        }
        #[cfg(debug_assertions)]
        check_claims(g, &claims, words, w, [&du, &dd]);
    }
    claims
}

/// Lower each lane of `row` to the same lane of `next`.
#[inline]
fn min_into(row: &mut Row, next: &Row) {
    for (r, &n) in row.iter_mut().zip(next) {
        *r = (*r).min(n);
    }
}

/// `row` one hop further away ([`FAR`] stays [`FAR`]), with lane `own`,
/// the router's own destination, at 0.
#[inline]
fn one_hop_more(mut row: Row, own: Option<usize>) -> Row {
    for r in &mut row {
        *r = r.saturating_add(1);
    }
    if let Some(l) = own {
        row[l] = 0;
    }
    row
}

/// The lanes of `dist` at a finite, non-zero distance: the ones a router
/// claims an edge for.
#[inline]
fn open_lanes(dist: &Row) -> u64 {
    let mut open = [0u8; 64];
    for (o, &d) in open.iter_mut().zip(dist) {
        *o = u8::from(d != 0 && d != FAR);
    }
    bits(&open)
}

/// The lanes where `next` is exactly one hop shorter than `dist`.
#[inline]
fn one_closer(next: &Row, dist: &Row) -> u64 {
    let mut closer = [0u8; 64];
    for ((c, &n), &d) in closer.iter_mut().zip(next).zip(dist) {
        *c = u8::from(n.wrapping_add(1) == d);
    }
    bits(&closer)
}

/// The 64-bit mask of `lanes`, each 0 or 1 (bit `l` = lane `l`). Eight
/// 0/1 bytes times this constant put byte `i` at bit `56 + i`, and no two
/// partial products meet, so nothing carries.
#[inline]
fn bits(lanes: &[u8; 64]) -> u64 {
    let mut m = 0;
    for (i, group) in lanes.chunks_exact(8).enumerate() {
        let x = u64::from_le_bytes(group.try_into().expect("8 lanes"));
        m |= (x.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i);
    }
    m
}

/// Claim the open lanes of `dist`, a router's row in one phase, for its
/// edges `es` in port order: an edge takes the lanes no earlier edge took
/// where the row `next(e)` it leads to is one hop shorter (`None`: the
/// edge is illegal in this phase). `words[k]` is the claim word of the
/// router's `k`-th edge.
#[inline]
fn claim<'a>(
    words: &mut [u64],
    es: std::ops::Range<usize>,
    dist: &Row,
    next: impl Fn(usize) -> Option<&'a Row>,
) {
    let mut open = open_lanes(dist);
    for (k, e) in es.enumerate() {
        if open == 0 {
            break;
        }
        if let Some(next) = next(e) {
            let c = one_closer(next, dist) & open;
            words[k] = c;
            open &= !c;
        }
    }
}

/// The claim invariant after batch `w`, given the batch's `[up, down]`
/// rows: at every router and phase, the edges' claim words are pairwise
/// disjoint (so `route` may stop at the first set bit) and together hold
/// exactly the router's open lanes.
#[cfg(debug_assertions)]
fn check_claims(g: &LiveGraph, claims: &[u64], words: usize, w: usize, rows: [&[Row]; 2]) {
    for &v in &g.order {
        let es = edges(&g.off, v as usize);
        for (p, rows) in rows.iter().enumerate() {
            let at = claim_row(es.start, es.len(), words, p, w);
            let mut union = 0u64;
            for &c in &claims[at..at + es.len()] {
                assert!(
                    union & c == 0,
                    "detour claim invariant violated: two edges claim one state \
                     at router {v}, phase {p}, destination word {w}"
                );
                union |= c;
            }
            assert!(
                union == open_lanes(&rows[v as usize]),
                "detour claim invariant violated: claims differ from the finite, \
                 non-zero distances at router {v}, phase {p}, destination word {w}"
            );
        }
    }
}

/// Reference-table entry for "no legal next hop".
#[cfg(test)]
const NO_HOP: u8 = 0xFF;

/// A scalar fill kept as the claim sweeps' test oracle: per destination,
/// a two-state backward BFS for shortest legal distances, then a forward
/// pass picking each router's best hop. Entry
/// `(d × 2 + p) × routers + r` is the edge byte of router `r`'s next hop
/// toward `dsts[d]` in phase `p`, or [`NO_HOP`].
#[cfg(test)]
fn reference_tables(g: &LiveGraph, dsts: &[u32]) -> Vec<u8> {
    const UNREACH: u32 = u32::MAX;
    let nr = g.comp.len();
    let is_up = |e: usize| g.byte[e] & DOWN_BIT == 0;
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
            // The edge v→w runs opposite to w→v (edge `e`).
            for e in edges(&g.off, w as usize) {
                let v = g.to[e];
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
            for e in edges(&g.off, v as usize) {
                let w = g.to[e] as usize;
                if is_up(e) {
                    if du[w] != UNREACH && du[w] + 1 < best_u.0 {
                        best_u = (du[w] + 1, g.byte[e]);
                    }
                } else if dd[w] != UNREACH {
                    let c = dd[w] + 1;
                    if c < best_u.0 {
                        best_u = (c, g.byte[e]);
                    }
                    if c < best_d.0 {
                        best_d = (c, g.byte[e]);
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
        let es = edges(&self.edge_off, router as usize);
        let row = claim_row(es.start, es.len(), self.words, phase, di as usize / 64);
        let bit = 1u64 << (di % 64);
        let Some(k) = self.claims[row..row + es.len()]
            .iter()
            .position(|&c| c & bit != 0)
        else {
            panic!(
                "unroutable packet {} → {} at router {router} (unreachable under faults)",
                pkt.src, pkt.dst
            );
        };
        let e = self.edge_byte[es.start + k];
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
    use crate::walk::{DependencyGraph, PortMap, Walker};
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
    fn a_fabric_without_endpoints_has_no_unreachable_pairs() {
        let mut net = NetworkDesc::new();
        net.add_router(2);
        net.add_router(2);
        net.connect((0, 1), (1, 1), 1, 1, ChannelClass::ShortReach);
        net.validate().unwrap();
        let reach = DetourOracle::pristine(&net).reach_map();
        assert_eq!((reach.endpoints(), reach.live_endpoints()), (0, 0));
        assert_eq!(reach.unreachable_pairs(), 0);
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

    /// `DetourOracle::build` of `(net, faults)`, and the scalar reference
    /// table over the same live graph and destinations.
    fn with_reference(net: &NetworkDesc, faults: &FaultMap) -> (DetourOracle, Vec<u8>) {
        let o = DetourOracle::build(net, faults);
        let mut dsts: Vec<u32> = (0..net.num_routers() as u32)
            .filter(|&r| o.dst_index[r as usize] != u32::MAX)
            .collect();
        dsts.sort_unstable_by_key(|&r| o.dst_index[r as usize]);
        let table = reference_tables(&LiveGraph::new(net, faults), &dsts);
        (o, table)
    }

    /// The claims decoded into the reference layout: per (destination
    /// index, phase, router), the byte of the first edge whose claim holds
    /// that state, or [`NO_HOP`].
    fn decoded_table(o: &DetourOracle) -> Vec<u8> {
        let nr = o.edge_off.len() - 1;
        let ndst = o.dst_index.iter().filter(|&&i| i != u32::MAX).count();
        let mut table = vec![NO_HOP; ndst * 2 * nr];
        for d in 0..ndst {
            for p in 0..2 {
                for r in 0..nr {
                    let es = edges(&o.edge_off, r);
                    let row = claim_row(es.start, es.len(), o.words, p, d / 64);
                    if let Some(k) = o.claims[row..row + es.len()]
                        .iter()
                        .position(|&c| c >> (d % 64) & 1 != 0)
                    {
                        table[(d * 2 + p) * nr + r] = o.edge_byte[es.start + k];
                    }
                }
            }
        }
        table
    }

    #[test]
    fn claim_tables_match_the_reference() {
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
                    let (o, table) = with_reference(net, fs.map());
                    assert!(
                        decoded_table(&o) == table,
                        "table differs: {name}, seed {seed}, fraction {frac}"
                    );
                }
            }
        }
    }

    #[test]
    fn route_follows_the_reference_table() {
        use wsdf_topo::{FaultSet, FaultSpec, SlParams, SwParams, SwitchFabric, SwitchlessFabric};
        let fabrics = [
            (
                "switchless 1 W-group",
                SwitchlessFabric::build(&SlParams::radix16().with_wgroups(1)).net,
            ),
            (
                "switch-based",
                SwitchFabric::build(&SwParams::radix16()).net,
            ),
        ];
        let mut rng = SplitMix64::new(0);
        for (name, net) in &fabrics {
            let fs = FaultSet::sample(
                net,
                &FaultSpec {
                    seed: 5,
                    link_fraction: 0.1,
                    router_fraction: 0.05,
                    ..Default::default()
                },
            );
            let (o, table) = with_reference(net, fs.map());
            let nr = net.num_routers();
            // One endpoint per destination index, to address packets to it.
            let ndst = table.len() / (2 * nr);
            let mut dst_ep = vec![0; ndst];
            for (e, &r) in o.ep_router.iter().enumerate() {
                let d = o.dst_index[r as usize];
                if d != u32::MAX {
                    dst_ep[d as usize] = e as u32;
                }
            }
            for (d, &dst) in dst_ep.iter().enumerate() {
                let pkt = PacketHeader {
                    id: 1,
                    src: 0,
                    dst,
                    inter_w: NO_INTERMEDIATE,
                    created: 0,
                    len: 4,
                };
                for p in 0..2 {
                    for r in 0..nr {
                        let case = format!("{name}: router {r}, phase {p}, destination {d}");
                        let e = table[(d * 2 + p) * nr + r];
                        if e != NO_HOP {
                            let got = o.route(r as u32, 0, p as u8, &pkt, &mut rng);
                            let want = RouteChoice {
                                out_port: e & !DOWN_BIT,
                                out_vc: u8::from(e & DOWN_BIT != 0),
                            };
                            assert_eq!(got, want, "{case}");
                        } else {
                            let es = edges(&o.edge_off, r);
                            let row = claim_row(es.start, es.len(), o.words, p, d / 64);
                            let words = &o.claims[row..row + es.len()];
                            assert!(words.iter().all(|&c| c >> (d % 64) & 1 == 0), "{case}");
                        }
                    }
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
        assert_eq!(a.claims, b.claims);
        assert_eq!(a.edge_byte, b.edge_byte);
        assert_eq!(a.comp, b.comp);
    }

    /// A packet to endpoint `dst`, to ask `route` about.
    fn to(dst: u32) -> PacketHeader {
        PacketHeader {
            id: 1,
            src: 0,
            dst,
            inter_w: NO_INTERMEDIATE,
            created: 0,
            len: 4,
        }
    }

    /// `o`'s hop at `router` in `phase` (0 up, 1 down) toward endpoint
    /// `dst`, as `(out_port, out_vc)`.
    fn hop(o: &DetourOracle, router: u32, phase: u8, dst: u32) -> (u8, u8) {
        let c = o.route(router, 0, phase, &to(dst), &mut SplitMix64::new(0));
        (c.out_port, c.out_vc)
    }

    /// `net`'s pristine oracle, after checking its claims against the
    /// reference and walking every pair.
    fn checked_pristine(net: &NetworkDesc) -> DetourOracle {
        let (o, table) = with_reference(net, &FaultMap::pristine(net));
        assert!(
            decoded_table(&o) == table,
            "table differs from the reference"
        );
        walk_all_pairs(net, &o, &o.reach_map());
        o
    }

    #[test]
    fn up_phase_ties_go_to_the_lower_port_across_edge_kinds() {
        // Root 0 over routers 1 and 2 (level 1, linked, so 2 → 1 is an up
        // edge), 4 below 1 and 3 below 2 (level 2, linked, so 3 → 4 is a
        // down edge). From 2 toward 4, the up edge 2 → 1 → 4 and the down
        // edge 2 → 3 → 4 are both 2 hops: the lower port must win, whatever
        // its kind.
        for down_first in [true, false] {
            let (to1, to3) = if down_first { (3, 2) } else { (2, 3) };
            let mut net = NetworkDesc::new();
            for r in 0..5 {
                net.add_router(4);
                let e = net.add_endpoint(r);
                net.attach_endpoint(e, r, 0, 1, 1);
            }
            let links = [
                ((0, 1), (1, 1)),
                ((0, 2), (2, 1)),
                ((1, 2), (2, to1)),
                ((2, to3), (3, 1)),
                ((1, 3), (4, 1)),
                ((3, 2), (4, 2)),
            ];
            for (a, b) in links {
                net.connect(a, b, 1, 1, ChannelClass::ShortReach);
            }
            let o = checked_pristine(&net);
            let want = if down_first { (to3, 1) } else { (to1, 0) };
            assert_eq!(hop(&o, 2, 0, 4), want, "down edge first: {down_first}");
            // The down phase has only the down edge.
            assert_eq!(hop(&o, 2, 1, 4), (to3, 1));
        }
    }

    #[test]
    fn down_paths_may_stay_inside_one_bfs_level() {
        // Root 0 on port r of r1..r6 (routers 1..6, all at BFS depth 1),
        // plus the chain r1 – r2 – … – r6 (port 2 to the next, port 3 to
        // the previous). Each chain link runs down toward the higher id, so
        // the down distance from r1 to r6 is 5.
        let mut net = NetworkDesc::new();
        net.add_router(7);
        for _ in 1..=6 {
            net.add_router(4);
        }
        for r in 0..=6 {
            let e = net.add_endpoint(r);
            net.attach_endpoint(e, r, 0, 1, 1);
        }
        for r in 1..=6u32 {
            net.connect((0, r as u8), (r, 1), 1, 1, ChannelClass::ShortReach);
        }
        for r in 1..6 {
            net.connect((r, 2), (r + 1, 3), 1, 1, ChannelClass::ShortReach);
        }
        let o = checked_pristine(&net);
        // The down phase follows the chain: 5 hops from r1.
        for r in 1..6 {
            assert_eq!(hop(&o, r, 1, 6), (2, 1), "down phase at r{r}");
        }
        // The up phase goes through the root (2 hops) where the chain is
        // longer; at r4 both take 2 hops and the root's port 1 wins.
        for r in 1..=4 {
            assert_eq!(hop(&o, r, 0, 6), (1, 0), "up phase at r{r}");
        }
        assert_eq!(hop(&o, 5, 0, 6), (2, 1));
        assert_eq!(hop(&o, 0, 0, 6), (6, 1));
    }

    /// A chain of `n` routers (port 1 to the next, port 2 to the previous)
    /// with one endpoint at each end.
    fn chain(n: u32) -> NetworkDesc {
        let mut net = NetworkDesc::new();
        for _ in 0..n {
            net.add_router(3);
        }
        for r in [0, n - 1] {
            let e = net.add_endpoint(r);
            net.attach_endpoint(e, r, 0, 1, 1);
        }
        for r in 1..n {
            net.connect((r - 1, 1), (r, 2), 1, 1, ChannelClass::ShortReach);
        }
        net
    }

    #[test]
    fn distances_reach_the_u16_limit_without_losing_a_claim() {
        // The far ends of a 65534-router chain sit 65533 hops apart, the
        // longest distance a component may hold.
        let n = u32::from(u16::MAX) - 1;
        let o = DetourOracle::pristine(&chain(n));
        assert_eq!(o.reach_map().unreachable_pairs(), 0);
        assert_eq!(hop(&o, 0, 0, 1), (1, 1));
        assert_eq!(hop(&o, n - 1, 0, 0), (2, 0));
        assert_eq!(hop(&o, 1, 1, 1), (1, 1));
    }

    #[test]
    #[should_panic(expected = "u16 distance limit of 65535")]
    fn a_component_past_the_u16_distance_limit_panics() {
        DetourOracle::pristine(&chain(u32::from(u16::MAX)));
    }

    /// The channel-dependency graph of every routable endpoint pair's
    /// route under `o`.
    fn dependencies(net: &NetworkDesc, o: &DetourOracle) -> DependencyGraph {
        let map = PortMap::new(net);
        let w = Walker::new(&map, o);
        let reach = o.reach_map();
        let mut g = DependencyGraph::default();
        for s in 0..reach.endpoints() {
            for d in (0..reach.endpoints()).filter(|&d| d != s && reach.routable(s, d)) {
                g.add(&w.walk(s, d, NO_INTERMEDIATE).unwrap());
            }
        }
        g
    }

    #[test]
    fn detour_routes_cannot_deadlock() {
        use wsdf_topo::{FaultSet, FaultSpec, SlParams, SwitchlessFabric};
        let net = grid();
        let g = dependencies(&net, &DetourOracle::pristine(&net));
        assert_eq!(g.cycle(), None, "2×3 grid");
        let net = SwitchlessFabric::build(&SlParams::radix16().with_wgroups(1)).net;
        for seed in 1..=3 {
            let fs = FaultSet::sample(
                &net,
                &FaultSpec {
                    seed,
                    link_fraction: 0.1,
                    router_fraction: 0.05,
                    ..Default::default()
                },
            );
            let g = dependencies(&net, &DetourOracle::build(&net, fs.map()));
            assert!(g.channels() > 0);
            assert_eq!(g.cycle(), None, "1 W-group, fault seed {seed}");
        }
    }
}
