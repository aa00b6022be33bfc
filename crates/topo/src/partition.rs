//! Locality-aware BSP partition assignment.
//!
//! The engine's legacy scheme slices routers into contiguous id blocks
//! (`part_of(r) = r·P / N`), which ignores wiring: on a wafer mesh the block
//! boundary crosses every column, and on the switch-less fabric it can land
//! mid-C-group, splitting a dense 4×4 core mesh plus its converter chain
//! across two partitions. Every channel that crosses a partition boundary
//! becomes barrier traffic, so the partitioner's job is to minimize *cut
//! channels* subject to a router-count balance bound.
//!
//! [`locality_partition`] is a deterministic multi-candidate scheme built
//! from two primitives:
//!
//! * **Recursive bisection by greedy growth** — the node set is split in
//!   half (by target partition count) recursively. Each split grows one
//!   side from the lowest-id node, always absorbing the candidate with
//!   the best `internal − external` connectivity (ties broken by lowest
//!   id). Leaf splits additionally slide the boundary within the balance
//!   slack to the prefix with the smallest cut, which is what lets an
//!   odd-sized mesh settle on a straight-line frontier instead of a
//!   jagged one.
//! * **KL/FM-style refinement** — repeated deterministic passes move
//!   boundary nodes to a neighboring partition whenever that strictly
//!   reduces the cut and both partitions stay within the balance slack.
//!
//! Three candidates are produced and the lowest-cut one wins: (1) fine
//! bisection + refinement at router granularity; (2) a **multi-level**
//! pass that contracts on-chip/short-reach components into clusters —
//! on the switch-less fabric, exactly the C-groups — and bisects/refines
//! the coarse graph so whole clusters move as units (single-router moves
//! can never trade a 28-router C-group between partitions), then expands
//! and polishes; (3) the legacy contiguous blocks, refined — which
//! guarantees the result is never worse than blocks. The output is a
//! pure function of `(net, parts, faults)` — the determinism contract
//! the engine's bit-identical partition matrix relies on.
//!
//! **Balance contract:** with `L` live routers, `P` partitions and slack
//! `s = max(1, L/(8P))`, every partition holds between `⌊L/P⌋ − s` and
//! `⌈L/P⌉ + s` live routers (non-leaf splits are exact, leaf splits and
//! refinement may shift up to `s`). Dead routers are inert (all of their
//! channels are sealed) and are attached to the partition of an assigned
//! neighbor afterward so the map stays total.

use wsdf_sim::{FaultMap, NetworkDesc};

/// Quality summary of a partition assignment over a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionStats {
    /// Number of partitions in the assignment.
    pub parts: usize,
    /// Live router→router channels whose endpoints lie in different
    /// partitions (directed count — what the barrier exchange pays for).
    pub cut_channels: usize,
    /// Live routers in the most populated partition.
    pub max_routers: usize,
    /// Live routers in the least populated partition.
    pub min_routers: usize,
}

/// The engine's legacy contiguous-block assignment: router `r` belongs to
/// partition `r·parts / num_routers`. Kept as the scenario partitioner
/// `"blocks"` and as the baseline the locality partitioner must beat.
pub fn contiguous_blocks(net: &NetworkDesc, parts: usize) -> Vec<u32> {
    let nr = net.num_routers();
    let p = parts.clamp(1, nr.max(1));
    (0..nr).map(|r| (r * p / nr.max(1)) as u32).collect()
}

/// True if channel `c` is live and connects two live routers.
fn live_rr_channel(net: &NetworkDesc, c: usize, faults: Option<&FaultMap>) -> Option<(u32, u32)> {
    let ch = &net.channels[c];
    let (a, b) = (ch.src.router()?, ch.dst.router()?);
    if let Some(f) = faults {
        if f.channel_dead(c as u32) || f.router_dead(a) || f.router_dead(b) {
            return None;
        }
    }
    Some((a, b))
}

/// Undirected router adjacency weighted by the number of live directed
/// channels between each pair. Sorted by neighbor id within each row.
fn live_adjacency(net: &NetworkDesc, faults: Option<&FaultMap>) -> Vec<Vec<(u32, u32)>> {
    let nr = net.num_routers();
    let mut pairs: std::collections::BTreeMap<(u32, u32), u32> = std::collections::BTreeMap::new();
    for c in 0..net.channels.len() {
        if let Some((a, b)) = live_rr_channel(net, c, faults) {
            if a != b {
                let key = (a.min(b), a.max(b));
                *pairs.entry(key).or_insert(0) += 1;
            }
        }
    }
    let mut adj = vec![Vec::new(); nr];
    for (&(a, b), &w) in &pairs {
        adj[a as usize].push((b, w));
        adj[b as usize].push((a, w));
    }
    adj
}

/// Count directed live router→router channels crossing partition boundaries
/// under `assign`. This is exactly the per-barrier boundary-message surface
/// of the BSP engine (endpoint channels never cross: an endpoint always
/// lives with its attach router).
pub fn cut_channels(net: &NetworkDesc, assign: &[u32], faults: Option<&FaultMap>) -> usize {
    let mut cut = 0;
    for c in 0..net.channels.len() {
        if let Some((a, b)) = live_rr_channel(net, c, faults) {
            if assign[a as usize] != assign[b as usize] {
                cut += 1;
            }
        }
    }
    cut
}

/// Compute [`PartitionStats`] for an assignment.
pub fn partition_stats(
    net: &NetworkDesc,
    assign: &[u32],
    faults: Option<&FaultMap>,
) -> PartitionStats {
    let parts = assign.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut sizes = vec![0usize; parts];
    for (r, &p) in assign.iter().enumerate() {
        let dead = faults.is_some_and(|f| f.router_dead(r as u32));
        if !dead {
            sizes[p as usize] += 1;
        }
    }
    PartitionStats {
        parts,
        cut_channels: cut_channels(net, assign, faults),
        max_routers: sizes.iter().copied().max().unwrap_or(0),
        min_routers: sizes.iter().copied().min().unwrap_or(0),
    }
}

/// One bisection step: split `set` into a grown side of roughly `target`
/// routers and the remainder. The grown side starts at the lowest id in
/// the set and repeatedly absorbs the candidate with the highest
/// `internal − external` connectivity (ties broken by lowest id; stale
/// heap entries skipped by score recheck; disconnected components reseed
/// from the lowest untaken id). With `flex > 0` the split point slides
/// within `target ± flex` to the absorption prefix with the smallest cut
/// (ties: closest to `target`, then shortest prefix).
fn bisect(
    adj: &[Vec<(u32, u32)>],
    set: &[u32],
    target: usize,
    flex: usize,
) -> (Vec<u32>, Vec<u32>) {
    let nr = adj.len();
    let n = set.len();
    let hi_k = (target + flex).min(n.saturating_sub(1)).max(1);
    let lo_k = target.saturating_sub(flex).clamp(1, hi_k);
    let mut in_set = vec![false; nr];
    for &r in set {
        in_set[r as usize] = true;
    }
    // deg = total live weight within the set; inw = weight into the grown
    // side so far. Score 2·inw − deg == internal − external connectivity.
    let mut deg = vec![0i64; nr];
    for &r in set {
        deg[r as usize] = adj[r as usize]
            .iter()
            .filter(|&&(nb, _)| in_set[nb as usize])
            .map(|&(_, w)| w as i64)
            .sum();
    }
    let mut inw = vec![0i64; nr];
    let mut taken = vec![false; nr];
    let mut heap: std::collections::BinaryHeap<(i64, std::cmp::Reverse<u32>)> =
        std::collections::BinaryHeap::new();
    let mut order: Vec<u32> = Vec::with_capacity(hi_k);
    let mut cuts: Vec<i64> = Vec::with_capacity(hi_k);
    let mut cut = 0i64;
    while order.len() < hi_k {
        let r = loop {
            match heap.pop() {
                Some((g, std::cmp::Reverse(r))) => {
                    let r = r as usize;
                    if !taken[r] && 2 * inw[r] - deg[r] == g {
                        break Some(r as u32);
                    }
                }
                None => break set.iter().copied().find(|&r| !taken[r as usize]),
            }
        };
        let Some(r) = r else { break };
        taken[r as usize] = true;
        cut += deg[r as usize] - 2 * inw[r as usize];
        order.push(r);
        cuts.push(cut);
        for &(nb, w) in &adj[r as usize] {
            let nb = nb as usize;
            if in_set[nb] && !taken[nb] {
                inw[nb] += w as i64;
                heap.push((2 * inw[nb] - deg[nb], std::cmp::Reverse(nb as u32)));
            }
        }
    }
    let kmax = order.len();
    let mut best_k = lo_k.min(kmax);
    for k in lo_k.min(kmax)..=kmax {
        let better = cuts[k - 1] < cuts[best_k - 1]
            || (cuts[k - 1] == cuts[best_k - 1] && k.abs_diff(target) < best_k.abs_diff(target));
        if better {
            best_k = k;
        }
    }
    let mut in_left = vec![false; nr];
    for &r in &order[..best_k] {
        in_left[r as usize] = true;
    }
    let left = order[..best_k].to_vec();
    let right: Vec<u32> = set
        .iter()
        .copied()
        .filter(|&r| !in_left[r as usize])
        .collect();
    (left, right)
}

/// Recursive-bisection assignment over the live adjacency. Returns a
/// partial assignment covering exactly the live routers (`u32::MAX`
/// elsewhere). Non-leaf splits are exact (the side takes precisely the sum
/// of its regions' even-split targets); leaf splits pass `slack` to
/// [`bisect`] so a straight frontier within the balance bound can beat a
/// jagged exact one.
fn partition_by_bisection(
    adj: &[Vec<(u32, u32)>],
    live: &[u32],
    parts: usize,
    slack: usize,
) -> Vec<u32> {
    let nr = adj.len();
    let mut assign = vec![u32::MAX; nr];
    let n = live.len();
    let base = n / parts;
    let extra = n % parts;
    let sizes: Vec<usize> = (0..parts).map(|i| base + usize::from(i < extra)).collect();
    let mut stack: Vec<(Vec<u32>, usize, usize)> = vec![(live.to_vec(), 0, parts)];
    while let Some((set, first, k)) = stack.pop() {
        if k == 1 {
            for r in set {
                assign[r as usize] = first as u32;
            }
            continue;
        }
        let lk = k.div_ceil(2);
        let rk = k - lk;
        let target: usize = sizes[first..first + lk].iter().sum();
        let flex = if lk == 1 && rk == 1 { slack } else { 0 };
        let (left, right) = bisect(adj, &set, target, flex);
        stack.push((left, first, lk));
        stack.push((right, first + lk, rk));
    }
    assign
}

/// Deterministic KL/FM-style boundary refinement: repeatedly move a live
/// boundary node to the adjacent partition with the highest strictly
/// positive cut reduction, while both partitions stay within
/// `[lo, hi] = [⌊n/P⌋ − slack, ⌈n/P⌉ + slack]` (node counts over `live`).
/// Runs at router granularity for the fine pass and at cluster granularity
/// for the coarse pass. Mutates `assign` in place.
fn refine(adj: &[Vec<(u32, u32)>], live: &[u32], parts: usize, assign: &mut [u32], slack: usize) {
    if parts < 2 {
        return;
    }
    let n = live.len();
    let lo = (n / parts).saturating_sub(slack).max(1);
    let hi = n.div_ceil(parts) + slack;
    let mut sizes = vec![0usize; parts];
    for &r in live {
        sizes[assign[r as usize] as usize] += 1;
    }
    let mut conn = vec![0u32; parts];
    for _pass in 0..16 {
        let mut moved = 0usize;
        for &r in live {
            let a = assign[r as usize] as usize;
            if sizes[a] <= lo {
                continue;
            }
            // Connectivity of r to each adjacent partition.
            let mut touched: Vec<usize> = Vec::new();
            for &(nb, w) in &adj[r as usize] {
                let q = assign[nb as usize];
                if q != u32::MAX {
                    if conn[q as usize] == 0 {
                        touched.push(q as usize);
                    }
                    conn[q as usize] += w;
                }
            }
            // Best strictly improving admissible destination; ties broken
            // by lowest partition id via the ascending scan.
            let mut best: Option<(u32, usize)> = None;
            for &q in &touched {
                if q != a && sizes[q] < hi && conn[q] > conn[a] {
                    let better = match best {
                        Some((bg, _)) => conn[q] > bg,
                        None => true,
                    };
                    if better {
                        best = Some((conn[q], q));
                    }
                }
            }
            if let Some((_, q)) = best {
                assign[r as usize] = q as u32;
                sizes[a] -= 1;
                sizes[q] += 1;
                moved += 1;
            }
            for &q in &touched {
                conn[q] = 0;
            }
        }
        if moved == 0 {
            break;
        }
    }
}

/// Contract live routers along live on-chip/short-reach channels into
/// clusters (connected components). On the switch-less fabric this
/// recovers exactly the C-groups (cores + their converter ring); long-reach
/// locals and globals stay inter-cluster. Returns the cluster id per
/// router (`u32::MAX` for dead routers) and the cluster count; ids are
/// ordered by each cluster's lowest router id, so the result is
/// deterministic. Returns `None` when the network has no router-router
/// channels at all.
fn sr_clusters(
    net: &NetworkDesc,
    faults: Option<&FaultMap>,
    live: &[u32],
) -> Option<(Vec<u32>, u32)> {
    let nr = net.num_routers();
    let mut sr_adj: Vec<Vec<u32>> = vec![Vec::new(); nr];
    let mut any = false;
    for c in 0..net.channels.len() {
        if let Some((a, b)) = live_rr_channel(net, c, faults) {
            any = true;
            let short = matches!(
                net.channels[c].class,
                wsdf_sim::ChannelClass::OnChip | wsdf_sim::ChannelClass::ShortReach
            );
            if short && a != b {
                sr_adj[a as usize].push(b);
                sr_adj[b as usize].push(a);
            }
        }
    }
    if !any {
        return None;
    }
    let mut cluster_of = vec![u32::MAX; nr];
    let mut is_live = vec![false; nr];
    for &r in live {
        is_live[r as usize] = true;
    }
    let mut nc = 0u32;
    let mut queue = std::collections::VecDeque::new();
    for &seed in live {
        if cluster_of[seed as usize] != u32::MAX {
            continue;
        }
        cluster_of[seed as usize] = nc;
        queue.push_back(seed);
        while let Some(r) = queue.pop_front() {
            for &nb in &sr_adj[r as usize] {
                if is_live[nb as usize] && cluster_of[nb as usize] == u32::MAX {
                    cluster_of[nb as usize] = nc;
                    queue.push_back(nb);
                }
            }
        }
        nc += 1;
    }
    Some((cluster_of, nc))
}

/// Coarse adjacency between clusters: weight = number of live directed
/// router-router channels between the two clusters.
fn cluster_adjacency(
    net: &NetworkDesc,
    faults: Option<&FaultMap>,
    cluster_of: &[u32],
    nc: u32,
) -> Vec<Vec<(u32, u32)>> {
    let mut pairs: std::collections::BTreeMap<(u32, u32), u32> = std::collections::BTreeMap::new();
    for c in 0..net.channels.len() {
        if let Some((a, b)) = live_rr_channel(net, c, faults) {
            let (ca, cb) = (cluster_of[a as usize], cluster_of[b as usize]);
            if ca != cb && ca != u32::MAX && cb != u32::MAX {
                *pairs.entry((ca.min(cb), ca.max(cb))).or_insert(0) += 1;
            }
        }
    }
    let mut adj = vec![Vec::new(); nc as usize];
    for (&(a, b), &w) in &pairs {
        adj[a as usize].push((b, w));
        adj[b as usize].push((a, w));
    }
    adj
}

/// Cut weight (undirected channel count) of a partial assignment, counting
/// only pairs where both sides are assigned.
fn cut_weight(adj: &[Vec<(u32, u32)>], assign: &[u32]) -> u64 {
    let mut cut = 0u64;
    for (r, row) in adj.iter().enumerate() {
        for &(nb, w) in row {
            if nb as usize > r {
                let (pa, pb) = (assign[r], assign[nb as usize]);
                if pa != u32::MAX && pb != u32::MAX && pa != pb {
                    cut += w as u64;
                }
            }
        }
    }
    cut
}

/// Topology-locality-aware partition assignment: `assign[r]` is the
/// partition of router `r`, with partitions `0..P` where
/// `P = parts.clamp(1, live_routers)`. Deterministic for a given
/// `(net, parts, faults)` triple, never worse (in cut channels) than
/// [`contiguous_blocks`], and every partition is non-empty. See the module
/// docs for the algorithm and balance contract.
pub fn locality_partition(net: &NetworkDesc, parts: usize, faults: Option<&FaultMap>) -> Vec<u32> {
    let nr = net.num_routers();
    if nr == 0 {
        return Vec::new();
    }
    let live: Vec<u32> = (0..nr as u32)
        .filter(|&r| !faults.is_some_and(|f| f.router_dead(r)))
        .collect();
    let mut is_live = vec![false; nr];
    for &r in &live {
        is_live[r as usize] = true;
    }
    let p = parts.clamp(1, live.len().max(1));
    let adj = live_adjacency(net, faults);
    let n = live.len();
    let slack = (n / (8 * p)).max(1);
    let lo = (n / p).saturating_sub(slack).max(1);
    let hi = n.div_ceil(p) + slack;
    let balanced = |assign: &[u32]| {
        let mut sizes = vec![0usize; p];
        for &r in &live {
            sizes[assign[r as usize] as usize] += 1;
        }
        sizes.iter().all(|&sz| sz >= lo && sz <= hi)
    };

    // Candidate 1: recursive bisection + refinement at router granularity.
    let mut grown = partition_by_bisection(&adj, &live, p, slack);
    refine(&adj, &live, p, &mut grown, slack);
    let mut best = grown;
    // Candidate 2: multi-level — contract short-reach components (the
    // C-group clusters of the switch-less fabric), bisect and refine the
    // coarse graph so whole clusters move as units (single-router FM
    // cannot trade a 28-router C-group), then expand and polish. Skipped
    // when contraction gives no freedom (a mesh is one big cluster) or
    // the expansion breaks the balance contract (uneven clusters).
    if let Some((cluster_of, nc)) = sr_clusters(net, faults, &live) {
        if nc as usize >= p && nc > 1 && (nc as usize) < n {
            let coarse_adj = cluster_adjacency(net, faults, &cluster_of, nc);
            let coarse_live: Vec<u32> = (0..nc).collect();
            // Slack in cluster units, floored — never exceeds the router
            // contract when clusters are even; uneven expansions are
            // caught by the balance check below.
            let cs = n / nc as usize;
            let slack_c = slack / cs.max(1);
            let mut coarse = partition_by_bisection(&coarse_adj, &coarse_live, p, slack_c);
            refine(&coarse_adj, &coarse_live, p, &mut coarse, slack_c);
            let mut expanded = vec![u32::MAX; nr];
            for &r in &live {
                expanded[r as usize] = coarse[cluster_of[r as usize] as usize];
            }
            refine(&adj, &live, p, &mut expanded, slack);
            if balanced(&expanded) && cut_weight(&adj, &expanded) < cut_weight(&adj, &best) {
                best = expanded;
            }
        }
    }
    // Candidate 3: the legacy blocks, also refined — guarantees the result
    // is never worse than blocks, and turns any misaligned block boundary
    // into a strict win.
    let mut blocks: Vec<u32> = contiguous_blocks(net, p);
    for r in 0..nr {
        if !is_live[r] {
            blocks[r] = u32::MAX;
        }
    }
    // Blocks over *all* routers can leave a partition without live routers
    // under faults; only use the candidate when every partition kept one.
    let blocks_valid = {
        let mut seen = vec![false; p];
        for &r in &live {
            seen[blocks[r as usize] as usize] = true;
        }
        seen.iter().all(|&s| s)
    };
    if blocks_valid {
        refine(&adj, &live, p, &mut blocks, slack);
        if cut_weight(&adj, &blocks) < cut_weight(&adj, &best) {
            best = blocks;
        }
    }
    // Attach dead routers to an assigned neighbor (label propagation over
    // the full channel list, sealed links included), falling back to
    // partition 0 for fully isolated dead clusters.
    loop {
        let mut progress = false;
        for c in 0..net.channels.len() {
            let ch = &net.channels[c];
            if let (Some(a), Some(b)) = (ch.src.router(), ch.dst.router()) {
                let (pa, pb) = (best[a as usize], best[b as usize]);
                if pa != u32::MAX && pb == u32::MAX {
                    best[b as usize] = pa;
                    progress = true;
                } else if pb != u32::MAX && pa == u32::MAX {
                    best[a as usize] = pb;
                    progress = true;
                }
            }
        }
        if !progress {
            break;
        }
    }
    for v in best.iter_mut() {
        if *v == u32::MAX {
            *v = 0;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::single_mesh;
    use crate::switchless::SwitchlessFabric;
    use crate::SlParams;

    fn mesh(m: u32) -> NetworkDesc {
        single_mesh(m, m, 1).net
    }

    #[test]
    fn blocks_matches_engine_formula() {
        let net = mesh(4);
        let a = contiguous_blocks(&net, 4);
        for (r, &p) in a.iter().enumerate() {
            assert_eq!(p, (r * 4 / 16) as u32);
        }
    }

    #[test]
    fn locality_beats_blocks_on_mesh_quads() {
        // 4×4 mesh at P=4: blocks are row strips (3 boundaries × 4 links ×
        // 2 directions = 24 cut channels); quadrants cut 16.
        let net = mesh(4);
        let blocks = contiguous_blocks(&net, 4);
        let loc = locality_partition(&net, 4, None);
        let cb = cut_channels(&net, &blocks, None);
        let cl = cut_channels(&net, &loc, None);
        assert_eq!(cb, 24);
        assert!(cl < cb, "locality {cl} !< blocks {cb}");
        assert_eq!(cl, 16);
    }

    #[test]
    fn locality_beats_blocks_on_odd_mesh() {
        // 7×7: blocks boundaries land mid-row (jagged); the leaf-split
        // window lets the bisection settle on straight frontiers instead.
        let net = mesh(7);
        for p in [2usize, 4, 8] {
            let cb = cut_channels(&net, &contiguous_blocks(&net, p), None);
            let cl = cut_channels(&net, &locality_partition(&net, p, None), None);
            assert!(cl < cb, "P={p}: locality {cl} !< blocks {cb}");
        }
    }

    #[test]
    fn multilevel_beats_blocks_on_switchless() {
        // With 5 W-groups, every blocks boundary is C-group aligned, and
        // at C-group granularity the local (all-to-all) cut is already
        // optimal — wins must come from moving whole C-groups to exploit
        // palmtree global-link placement and the balance window. That is
        // exactly what the coarse (cluster-level) candidate does.
        let pp = SlParams::radix16().with_wgroups(5);
        let net = SwitchlessFabric::build(&pp).net;
        for p in [2usize, 4, 8] {
            let cb = cut_channels(&net, &contiguous_blocks(&net, p), None);
            let cl = cut_channels(&net, &locality_partition(&net, p, None), None);
            assert!(cl < cb, "P={p}: locality {cl} !< blocks {cb}");
        }
    }

    #[test]
    fn locality_never_worse_and_balanced() {
        for m in [4u32, 5, 6, 8] {
            let net = mesh(m);
            let n = (m * m) as usize;
            for p in [1usize, 2, 3, 4, 7, 8] {
                let loc = locality_partition(&net, p, None);
                let blocks = contiguous_blocks(&net, p);
                let s = partition_stats(&net, &loc, None);
                let pe = p.clamp(1, n);
                assert_eq!(s.parts, pe);
                assert!(
                    s.cut_channels <= cut_channels(&net, &blocks, None),
                    "mesh {m} p {p}"
                );
                let slack = (n / (8 * pe)).max(1);
                assert!(s.min_routers >= (n / pe).saturating_sub(slack).max(1));
                assert!(s.max_routers <= n.div_ceil(pe) + slack);
            }
        }
    }

    #[test]
    fn deterministic_and_total() {
        let p = SlParams::radix16().with_wgroups(1);
        let net = SwitchlessFabric::build(&p).net;
        let a = locality_partition(&net, 4, None);
        let b = locality_partition(&net, 4, None);
        assert_eq!(a, b);
        assert_eq!(a.len(), net.num_routers());
        assert!(a.iter().all(|&x| x < 4));
    }

    #[test]
    fn single_partition_is_all_zero() {
        let net = mesh(4);
        assert!(locality_partition(&net, 1, None).iter().all(|&p| p == 0));
    }

    #[test]
    fn faulted_map_stays_total_and_nonempty() {
        let net = mesh(6);
        let mut f = wsdf_sim::FaultMap::pristine(&net);
        // Kill a corner cluster.
        for r in [0u32, 1, 6, 7] {
            f.kill_router(r);
        }
        f.seal(&net);
        let a = locality_partition(&net, 4, Some(&f));
        assert_eq!(a.len(), 36);
        let s = partition_stats(&net, &a, Some(&f));
        assert_eq!(s.parts, 4);
        assert!(s.min_routers >= 1);
        // Dead routers got some partition too.
        assert!(a.iter().all(|&x| x < 4));
    }
}
