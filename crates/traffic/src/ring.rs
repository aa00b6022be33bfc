//! Ring-based AllReduce traffic (Sec. V-A3(c), Fig. 14).
//!
//! In steady state, ring AllReduce makes every chip stream segments to its
//! ring neighbor(s): chip *i* sends to chip *(i+1) mod N* (unidirectional)
//! or halved segments to both neighbors (bidirectional). A chip whose NoC
//! has `nodes_per_chip` nodes runs that many *parallel* rings — node *j*
//! of chip *i* talks to node *j* of the neighbor chip — which is exactly
//! how a wafer chip exploits its multiple injection ports (and why the
//! paper reports 2/4 flits/cycle/chip for uni/bi rings on the switch-less
//! fabric vs 1 on a single switch port).
//!
//! The ring is scoped: all chips of one C-group (Fig. 14(a)) or one
//! W-group (Fig. 14(b)); every scope unit runs its own independent ring
//! simultaneously.

use crate::scope::Scope;
use wsdf_sim::{SplitMix64, TrafficPattern};

/// Ring direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingDirection {
    /// Each chip sends only to its successor.
    Unidirectional,
    /// Each chip alternates between successor and predecessor (halved
    /// segments; same offered rate, doubled path diversity).
    Bidirectional,
}

/// Steady-state ring AllReduce pattern.
#[derive(Debug, Clone)]
pub struct RingAllReduce {
    /// Precomputed successor endpoint per endpoint.
    next: Vec<u32>,
    /// Precomputed predecessor endpoint per endpoint.
    prev: Vec<u32>,
    direction: RingDirection,
    rate: f64,
}

impl RingAllReduce {
    /// Ring over every `chips_per_unit` consecutive chips (use
    /// `scope.chips_per_cgroup` or `scope.chips_per_wgroup`), at `rate`
    /// flits/cycle/endpoint.
    ///
    /// Within a C-group the ring follows a Hamiltonian cycle over the chip
    /// grid (boustrophedon) rather than row-major order: every ring hop is
    /// then a straight mesh move, so the forward and backward directions
    /// of a bidirectional ring use disjoint directed mesh links. With
    /// row-major order the wrap-around hops are diagonal and collide with
    /// the straight hops, halving bidirectional throughput — this
    /// embedding is what lets the paper's 4 flits/cycle/chip materialize.
    pub fn new(scope: &Scope, chips_per_unit: u32, direction: RingDirection, rate: f64) -> Self {
        assert!(chips_per_unit >= 2, "a ring needs at least 2 chips");
        assert_eq!(
            scope.num_chips() % chips_per_unit,
            0,
            "chips must tile into ring units"
        );
        // Ring rank of each chip within its C-group block, and its inverse.
        let side = scope.chips_side;
        let cpc = scope.chips_per_cgroup.max(1);
        let cycle = grid_cycle(side);
        let rank_of = |chip: u32| -> u32 {
            let base = chip - chip % cpc;
            match &cycle {
                Some(order) => base + order[(chip % cpc) as usize],
                None => chip,
            }
        };
        let chip_of_rank = |rank: u32| -> u32 {
            let base = rank - rank % cpc;
            match &cycle {
                Some(order) => {
                    let inv = order
                        .iter()
                        .position(|&r| r == rank % cpc)
                        .expect("cycle is a permutation") as u32;
                    base + inv
                }
                None => rank,
            }
        };
        let n = scope.endpoints();
        let mut next = vec![0u32; n as usize];
        let mut prev = vec![0u32; n as usize];
        for ep in 0..n {
            let chip = scope.chip[ep as usize];
            let pos = scope.chip_pos[ep as usize];
            let rank = rank_of(chip);
            let unit = rank / chips_per_unit;
            let in_unit = rank % chips_per_unit;
            let succ = chip_of_rank(unit * chips_per_unit + (in_unit + 1) % chips_per_unit);
            let pred = chip_of_rank(
                unit * chips_per_unit + (in_unit + chips_per_unit - 1) % chips_per_unit,
            );
            next[ep as usize] = scope.node_of(succ, pos);
            prev[ep as usize] = scope.node_of(pred, pos);
        }
        RingAllReduce {
            next,
            prev,
            direction,
            rate,
        }
    }

    /// Successor of an endpoint on its ring.
    pub fn successor(&self, ep: u32) -> u32 {
        self.next[ep as usize]
    }

    /// Predecessor of an endpoint on its ring.
    pub fn predecessor(&self, ep: u32) -> u32 {
        self.prev[ep as usize]
    }
}

impl TrafficPattern for RingAllReduce {
    fn rate(&self, _src: u32) -> f64 {
        self.rate
    }

    fn dest(&self, src: u32, seq: u64, rng: &mut SplitMix64) -> Option<u32> {
        let _ = rng;
        let d = match self.direction {
            RingDirection::Unidirectional => self.next[src as usize],
            // Strict alternation, as in segmented bidirectional AllReduce:
            // even segments go clockwise, odd ones counter-clockwise.
            RingDirection::Bidirectional => {
                if seq.is_multiple_of(2) {
                    self.next[src as usize]
                } else {
                    self.prev[src as usize]
                }
            }
        };
        if d == src {
            None
        } else {
            Some(d)
        }
    }
}

/// Ring rank of each chip (row-major index) along a Hamiltonian cycle of a
/// `side`×`side` grid: up the left column, then boustrophedon back through
/// columns 1..side over rows side-1..0, ending adjacent to the start.
/// `None` when the grid has no Hamiltonian cycle (side odd or < 2) or no
/// grid structure (side 0) — callers fall back to row-major order.
fn grid_cycle(side: u32) -> Option<Vec<u32>> {
    if side < 2 || !side.is_multiple_of(2) {
        return None;
    }
    let s = side as usize;
    let mut rank = vec![u32::MAX; s * s];
    let mut r = 0u32;
    // Left column bottom → top.
    for y in 0..s {
        rank[y * s] = r;
        r += 1;
    }
    // Rows top → bottom, snaking over x ∈ 1..s.
    for yy in 0..s {
        let y = s - 1 - yy;
        if yy % 2 == 0 {
            for x in 1..s {
                rank[y * s + x] = r;
                r += 1;
            }
        } else {
            for x in (1..s).rev() {
                rank[y * s + x] = r;
                r += 1;
            }
        }
    }
    debug_assert!(rank.iter().all(|&x| x != u32::MAX));
    Some(rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsdf_topo::{SlParams, SwParams};

    #[test]
    fn grid_cycle_is_a_hamiltonian_cycle() {
        for side in [2u32, 4, 6] {
            let rank = grid_cycle(side).unwrap();
            let s = side as usize;
            // Permutation.
            let mut seen = vec![false; s * s];
            for &r in &rank {
                assert!(!seen[r as usize]);
                seen[r as usize] = true;
            }
            // Consecutive ranks (and the wrap) are grid-adjacent.
            let pos_of = |want: u32| -> (i32, i32) {
                let i = rank.iter().position(|&r| r == want).unwrap();
                ((i % s) as i32, (i / s) as i32)
            };
            for r in 0..(s * s) as u32 {
                let (x1, y1) = pos_of(r);
                let (x2, y2) = pos_of((r + 1) % (s * s) as u32);
                assert_eq!(
                    (x1 - x2).abs() + (y1 - y2).abs(),
                    1,
                    "rank {r}→{} not adjacent at side {side}",
                    (r + 1) % (s * s) as u32
                );
            }
        }
    }

    #[test]
    fn grid_cycle_absent_for_odd_or_trivial() {
        assert!(grid_cycle(0).is_none());
        assert!(grid_cycle(1).is_none());
        assert!(grid_cycle(3).is_none());
    }

    #[test]
    fn ring_is_a_permutation_per_unit() {
        let s = Scope::switchless(&SlParams::radix16().with_wgroups(2));
        let r = RingAllReduce::new(&s, s.chips_per_cgroup, RingDirection::Unidirectional, 0.5);
        // next is a bijection on endpoints.
        let mut seen = vec![false; s.endpoints() as usize];
        for ep in 0..s.endpoints() {
            let d = r.successor(ep);
            assert!(!seen[d as usize]);
            seen[d as usize] = true;
            // Same intra-chip position.
            assert_eq!(s.chip_pos[ep as usize], s.chip_pos[d as usize]);
            // Same C-group unit (4 chips per C-group).
            assert_eq!(
                s.chip[ep as usize] / s.chips_per_cgroup,
                s.chip[d as usize] / s.chips_per_cgroup
            );
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn ring_cycles_cover_whole_unit() {
        let s = Scope::switchless(&SlParams::radix16().with_wgroups(1));
        let r = RingAllReduce::new(&s, s.chips_per_wgroup, RingDirection::Unidirectional, 0.5);
        // Follow the ring from endpoint 0: must return after exactly
        // chips_per_wgroup steps.
        let mut at = 0u32;
        for _ in 0..s.chips_per_wgroup {
            at = r.successor(at);
        }
        assert_eq!(at, 0);
        let mut at = 0u32;
        let mut steps = 0;
        loop {
            at = r.successor(at);
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, s.chips_per_wgroup);
    }

    #[test]
    fn prev_inverts_next() {
        let s = Scope::switchless(&SlParams::radix16().with_wgroups(1));
        let r = RingAllReduce::new(&s, s.chips_per_cgroup, RingDirection::Bidirectional, 0.5);
        for ep in 0..s.endpoints() {
            assert_eq!(r.predecessor(r.successor(ep)), ep);
        }
    }

    #[test]
    fn switchbased_ring_over_terminals() {
        let p = SwParams::radix16().with_groups(1);
        let s = Scope::switchbased(&p);
        let r = RingAllReduce::new(&s, s.chips_per_cgroup, RingDirection::Unidirectional, 0.5);
        // Terminals 0..3 of switch 0 form a ring.
        assert_eq!(r.successor(0), 1);
        assert_eq!(r.successor(3), 0);
        // Ring stays within one switch's terminals.
        for ep in 0..s.endpoints() {
            assert_eq!(ep / 4, r.successor(ep) / 4);
        }
    }

    #[test]
    fn bidirectional_draws_both_neighbors() {
        let s = Scope::switchless(&SlParams::radix16().with_wgroups(1));
        let r = RingAllReduce::new(&s, s.chips_per_cgroup, RingDirection::Bidirectional, 0.5);
        let mut rng = SplitMix64::new(11);
        let mut hits = std::collections::HashSet::new();
        for i in 0..100 {
            hits.insert(r.dest(0, i, &mut rng).unwrap());
        }
        assert_eq!(hits.len(), 2);
        // Strict alternation.
        assert_eq!(r.dest(0, 0, &mut rng), Some(r.successor(0)));
        assert_eq!(r.dest(0, 1, &mut rng), Some(r.predecessor(0)));
    }
}
