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
//! The next hops come from a bit-parallel multi-source BFS (Then et al.,
//! "The More the Merrier", VLDB 2014): one level-synchronous two-state
//! BFS settles 256 destinations at once, one bit each in a `[u64; 4]`
//! mask per router and phase. Every router pulls the next level from its
//! own port-ordered out-edges (an up edge carries the neighbour's up
//! frontier, a down edge its down frontier), and a newly settled
//! (destination, phase) bit is *claimed* by the first such edge, which is
//! the lowest-port rule above. A level visits only the routers next to
//! one that gained states on the previous level: the top-down step of
//! Beamer et al. ("Direction-Optimizing Breadth-First Search", SC 2012).
//! The build is single-threaded.
//!
//! The oracle keeps the claims themselves: per live directed edge and
//! phase, one bit per destination router, set iff that edge is the next
//! hop toward it. A router's claim words for one (phase, 64 destinations)
//! sit side by side, one cache line for up to eight edges, and a hop
//! takes the edge whose word holds the destination's bit. No two edges
//! claim one state (debug builds check this after every pass). Claim
//! memory is `2 × live directed edges × ⌈destination-routers / 256⌉ × 32`
//! bytes, less than a byte per (phase, router, destination) wherever the
//! average live out-degree is below 8. The build adds six `[u64; 4]`
//! masks (192 bytes) of scratch per router, plus its frontier lists and
//! bitmaps. Meant for C-group/W-group-scale resilience studies, not the
//! full 18560-chip system in one piece.
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
        let mut sizes = std::collections::HashMap::new();
        for &c in self.comp.iter().filter(|&&c| c != DEAD) {
            *sizes.entry(c).or_insert(0u64) += 1;
        }
        let routable: u64 = sizes.values().map(|&s| s * (s - 1)).sum();
        n * n.saturating_sub(1) - routable
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
    /// Claim words per (edge, phase): one bit per destination index,
    /// padded to whole BFS passes.
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
        let mut dsts = Vec::new();
        for &r in &ep_router {
            if !faults.router_dead(r) && dst_index[r as usize] == u32::MAX {
                dst_index[r as usize] = dsts.len() as u32;
                dsts.push(r);
            }
        }
        let words = LANES * dsts.len().div_ceil(BATCH);
        let claims = bit_parallel_claims(&g, &dsts, words);

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
            while let Some(v) = queue.pop_front() {
                for &w in &to[edges(&off, v as usize)] {
                    if comp[w as usize] == DEAD {
                        comp[w as usize] = ncomp;
                        level[w as usize] = level[v as usize] + 1;
                        queue.push_back(w);
                    }
                }
            }
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
        LiveGraph {
            off,
            byte,
            to,
            comp,
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

/// Words of a destination mask.
const LANES: usize = 4;
/// Destinations settled per bit-parallel BFS pass: one mask bit each.
const BATCH: usize = 64 * LANES;
/// One bit per destination of a batch.
type Mask = [u64; LANES];

/// Claims for `dsts` over the live graph `g`, laid out as
/// `DetourOracle::claims` with `words` words per (edge, phase): the
/// bit-parallel BFS of the module docs, one pass per [`BATCH`]
/// destinations. Level `k` of a pass settles the (router, phase,
/// destination) states at shortest legal distance `k`.
fn bit_parallel_claims(g: &LiveGraph, dsts: &[u32], words: usize) -> Vec<u64> {
    let nr = g.comp.len();
    let mut claims = vec![0u64; g.to.len() * 2 * words];
    // Per router, `[up, down]` masks: states settled so far, states of the
    // previous level, states of the level being built.
    let none = [[0u64; LANES]; 2];
    let mut seen = vec![none; nr];
    let mut front = vec![none; nr];
    let mut next = vec![none; nr];
    // The routers holding `front` / `next` states, and bitmaps (bit =
    // router id) of the routers next to them: the only ones the current /
    // next level can settle anything at.
    let mut held = Vec::new();
    let mut gained = Vec::new();
    let mut visit = vec![0u64; nr.div_ceil(64)];
    let mut visit_next = visit.clone();
    for (bi, batch) in dsts.chunks(BATCH).enumerate() {
        seen.fill(none);
        for (b, &d) in batch.iter().enumerate() {
            let d = d as usize;
            for mask in &mut front[d] {
                mask[b / 64] |= 1 << (b % 64);
            }
            seen[d] = front[d];
            held.push(d);
            mark(&mut visit, &g.to[edges(&g.off, d)]);
        }
        while !held.is_empty() {
            for (i, word) in visit.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    let v = i * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let es = edges(&g.off, v);
                    let deg = es.len();
                    let up = claim_row(es.start, deg, words, 0, bi * LANES);
                    let down = claim_row(es.start, deg, words, 1, bi * LANES);
                    let mut new = none;
                    for (k, e) in es.clone().enumerate() {
                        // An up edge offers the neighbour's up frontier to
                        // the up phase, a down edge its down frontier to
                        // both phases.
                        let down_edge = g.byte[e] & DOWN_BIT != 0;
                        let cand = &front[g.to[e] as usize][usize::from(down_edge)];
                        claim(&mut new[0], cand, &seen[v][0], &mut claims[up + k..], deg);
                        if down_edge {
                            claim(&mut new[1], cand, &seen[v][1], &mut claims[down + k..], deg);
                        }
                    }
                    if new != none {
                        // Only router v reads seen[v]: it absorbs the level
                        // now.
                        for (s, n) in seen[v].iter_mut().zip(&new) {
                            for (s, n) in s.iter_mut().zip(n) {
                                *s |= n;
                            }
                        }
                        next[v] = new;
                        gained.push(v);
                        mark(&mut visit_next, &g.to[es]);
                    }
                }
            }
            for &w in &held {
                front[w] = none;
            }
            held.clear();
            std::mem::swap(&mut front, &mut next);
            std::mem::swap(&mut held, &mut gained);
            std::mem::swap(&mut visit, &mut visit_next);
        }
        #[cfg(debug_assertions)]
        check_claims(g, &claims, words, bi, batch, &seen);
    }
    claims
}

/// Set the bit of each router of `routers` in the bitmap `bits`.
#[inline]
fn mark(bits: &mut [u64], routers: &[u32]) {
    for &r in routers {
        bits[r as usize / 64] |= 1 << (r % 64);
    }
}

/// Settle, in one phase of one router, the states of `cand` that neither
/// `seen` nor an earlier edge of this level (`new`) holds: add them to
/// `new` and claim them for the edge whose claim word for this pass's
/// first lane is `words[0]` (its later lanes follow at `stride`).
#[inline]
fn claim(new: &mut Mask, cand: &Mask, seen: &Mask, words: &mut [u64], stride: usize) {
    for i in 0..LANES {
        let m = cand[i] & !seen[i] & !new[i];
        new[i] |= m;
        words[i * stride] |= m;
    }
}

/// The claim invariant after pass `bi` over `batch`: at every router and
/// phase, the edges' claim words are pairwise disjoint (so `route` may
/// stop at the first set bit) and together hold exactly the states the
/// BFS settled there, which is `seen` minus the router's own destination
/// bit.
#[cfg(debug_assertions)]
fn check_claims(
    g: &LiveGraph,
    claims: &[u64],
    words: usize,
    bi: usize,
    batch: &[u32],
    seen: &[[Mask; 2]],
) {
    let mut own = vec![[0u64; LANES]; seen.len()];
    for (b, &d) in batch.iter().enumerate() {
        own[d as usize][b / 64] |= 1 << (b % 64);
    }
    for (v, seen) in seen.iter().enumerate() {
        let es = edges(&g.off, v);
        for (p, seen) in seen.iter().enumerate() {
            for i in 0..LANES {
                let w = bi * LANES + i;
                let row = claim_row(es.start, es.len(), words, p, w);
                let mut union = 0u64;
                for &c in &claims[row..row + es.len()] {
                    assert!(
                        union & c == 0,
                        "detour claim invariant violated: two edges claim one state \
                         at router {v}, phase {p}, destination word {w}"
                    );
                    union |= c;
                }
                assert!(
                    union == seen[i] & !own[v][i],
                    "detour claim invariant violated: claims differ from the settled \
                     states at router {v}, phase {p}, destination word {w}"
                );
            }
        }
    }
}

/// Reference-table entry for "no legal next hop".
#[cfg(test)]
const NO_HOP: u8 = 0xFF;

/// The scalar fill the bit-parallel BFS replaced, kept as its test
/// oracle: per destination, a two-state backward BFS for shortest legal
/// distances, then a forward pass picking each router's best hop. Entry
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
}
