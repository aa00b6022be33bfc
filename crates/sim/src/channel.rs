//! Channel descriptions: the static wiring of the network, plus the
//! per-partition delivery wheel that carries every flit and credit in
//! flight at runtime.
//!
//! Channels are unidirectional. A physical full-duplex link in the paper is
//! two `ChannelDesc`s in opposite directions. Each channel has a latency in
//! cycles and a width in flits/cycle; the paper's `2B`/`4B` configurations
//! (doubled/quadrupled intra-C-group bandwidth) are expressed purely through
//! `width`.

use crate::router::{clear_bit, set_bit, RotatedOnes, NIL};

/// Index of a channel in [`crate::network::NetworkDesc::channels`].
pub type ChannelId = u32;

/// Physical class of a channel; drives latency defaults and the energy model
/// (Table II of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelClass {
    /// Hop inside a chiplet's NoC (RDL metal, ~0.1 pJ/bit, 1 cycle).
    OnChip,
    /// On-wafer short-reach hop between chiplets or to an SR-LR converter
    /// (~2 pJ/bit, 1 cycle).
    ShortReach,
    /// Long-reach local (intra-W-group) hop, copper (~20 pJ/bit, 8 cycles).
    LongReachLocal,
    /// Long-reach global (inter-W-group) hop, optical (~20 pJ/bit, 8 cycles).
    LongReachGlobal,
    /// Endpoint→router injection hop (terminal link; counts as local hop
    /// `H*_l` in switch-based networks, on-chip in switch-less ones).
    Injection,
    /// Router→endpoint ejection hop.
    Ejection,
}

impl ChannelClass {
    /// All classes, for iteration in metrics/energy accounting.
    pub const ALL: [ChannelClass; 6] = [
        ChannelClass::OnChip,
        ChannelClass::ShortReach,
        ChannelClass::LongReachLocal,
        ChannelClass::LongReachGlobal,
        ChannelClass::Injection,
        ChannelClass::Ejection,
    ];

    /// Dense index for array-backed counters.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            ChannelClass::OnChip => 0,
            ChannelClass::ShortReach => 1,
            ChannelClass::LongReachLocal => 2,
            ChannelClass::LongReachGlobal => 3,
            ChannelClass::Injection => 4,
            ChannelClass::Ejection => 5,
        }
    }

    /// Human-readable name (used by harness output).
    pub fn name(self) -> &'static str {
        match self {
            ChannelClass::OnChip => "on-chip",
            ChannelClass::ShortReach => "short-reach",
            ChannelClass::LongReachLocal => "lr-local",
            ChannelClass::LongReachGlobal => "lr-global",
            ChannelClass::Injection => "injection",
            ChannelClass::Ejection => "ejection",
        }
    }
}

/// One side of a channel: a router port or an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminus {
    /// A specific port of a router.
    Router {
        /// Router index.
        router: u32,
        /// Port index within the router.
        port: u8,
    },
    /// An endpoint (traffic source/sink).
    Endpoint {
        /// Endpoint index.
        endpoint: u32,
    },
}

impl Terminus {
    /// Router index if this side is a router.
    #[inline]
    pub fn router(&self) -> Option<u32> {
        match self {
            Terminus::Router { router, .. } => Some(*router),
            Terminus::Endpoint { .. } => None,
        }
    }

    /// Port index if this side is a router.
    #[inline]
    pub fn port(&self) -> Option<u8> {
        match self {
            Terminus::Router { port, .. } => Some(*port),
            Terminus::Endpoint { .. } => None,
        }
    }

    /// Endpoint index if this side is an endpoint.
    #[inline]
    pub fn endpoint(&self) -> Option<u32> {
        match self {
            Terminus::Endpoint { endpoint } => Some(*endpoint),
            Terminus::Router { .. } => None,
        }
    }
}

/// Static description of a unidirectional channel.
#[derive(Debug, Clone, Copy)]
pub struct ChannelDesc {
    /// Sending side.
    pub src: Terminus,
    /// Receiving side.
    pub dst: Terminus,
    /// Latency in cycles (≥ 1). Credits travel back with the same latency.
    pub latency: u32,
    /// Bandwidth in flits per cycle (≥ 1).
    pub width: u8,
    /// Physical class (energy model + sanity checks).
    pub class: ChannelClass,
}

impl ChannelDesc {
    /// Convenience constructor for a router-to-router channel.
    pub fn router_to_router(
        src_router: u32,
        src_port: u8,
        dst_router: u32,
        dst_port: u8,
        latency: u32,
        width: u8,
        class: ChannelClass,
    ) -> Self {
        ChannelDesc {
            src: Terminus::Router {
                router: src_router,
                port: src_port,
            },
            dst: Terminus::Router {
                router: dst_router,
                port: dst_port,
            },
            latency,
            width,
            class,
        }
    }
}

// --- Delivery wheel ---------------------------------------------------------

/// The port of an endpoint's channel end. Routers have at most
/// [`MAX_PORTS`](crate::MAX_PORTS) ports, so it names no router port.
pub(crate) const EP_PORT: u8 = u8::MAX;

/// One end of a channel inside its partition: port `port` of the local
/// router `agent`, or the local endpoint `agent` when `port` is
/// [`EP_PORT`]. A channel's flits go to its receiving end and its credits
/// to its sending end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct End {
    pub(crate) agent: u32,
    pub(crate) port: u8,
}

/// One event of a [`Wheel`]: the flit in pool slot `slot` joining input
/// VC `vc` of port `port` of local router `agent`, or, when `slot` is
/// [`NIL`], a credit for VC `vc` at the end `(agent, port)`: an output VC
/// of a local router, or an injection VC of a local endpoint.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Delivery {
    pub(crate) slot: u32,
    pub(crate) agent: u32,
    pub(crate) port: u8,
    pub(crate) vc: u8,
}

const _: () = assert!(std::mem::size_of::<Delivery>() == 12);

impl Delivery {
    /// The flit in pool slot `slot`, joining input VC `vc` at `to`.
    #[inline]
    pub(crate) fn flit(slot: u32, to: End, vc: u8) -> Self {
        Delivery {
            slot,
            agent: to.agent,
            port: to.port,
            vc,
        }
    }

    /// A credit for VC `vc` at `to`.
    #[inline]
    pub(crate) fn credit(to: End, vc: u8) -> Self {
        Delivery::flit(NIL, to, vc)
    }

    /// Debug builds: the end this event is delivered to.
    #[cfg(debug_assertions)]
    pub(crate) fn end(&self) -> End {
        End {
            agent: self.agent,
            port: self.port,
        }
    }
}

/// The flits and credits in flight inside one partition, bucketed by the
/// cycle they are due: a hashed timing wheel (Varghese & Lauck, SOSP
/// 1987) of `W` buckets, `W` the power of two above the longest channel
/// latency.
///
/// A send at cycle `t` is due at `t + latency ≤ t + W − 1`, and a
/// cross-partition message is pushed at its delivery, no earlier than
/// the cycle after its send. Every executed cycle drains its own bucket,
/// and the engine never jumps past a due cycle, so the events pending at
/// any time span fewer than `W` cycles: bucket `due & (W − 1)` holds
/// exactly the events due at `due`, in push order. A bitmask of the
/// non-empty buckets finds the next due cycle in O(W / 64) words.
#[derive(Debug)]
pub(crate) struct Wheel {
    buckets: Vec<Vec<Delivery>>,
    /// Bit `b` set ⇔ bucket `b` holds an event.
    busy: Vec<u64>,
    /// Debug builds: the due cycle of each non-empty bucket's events.
    #[cfg(debug_assertions)]
    due: Vec<u64>,
}

impl Wheel {
    /// A wheel for channels of at most `max_latency` cycles. Allocates
    /// no bucket storage until the first push.
    pub(crate) fn new(max_latency: u32) -> Self {
        let w = (max_latency as usize + 1).next_power_of_two();
        Wheel {
            buckets: (0..w).map(|_| Vec::new()).collect(),
            busy: vec![0; w.div_ceil(64)],
            #[cfg(debug_assertions)]
            due: vec![0; w],
        }
    }

    #[inline]
    fn bucket(&self, cycle: u64) -> usize {
        cycle as usize & (self.buckets.len() - 1)
    }

    /// Append `d`, due at cycle `due`, to its bucket.
    #[inline]
    pub(crate) fn push(&mut self, due: u64, d: Delivery) {
        let b = self.bucket(due);
        #[cfg(debug_assertions)]
        {
            if self.buckets[b].is_empty() {
                self.due[b] = due;
            }
            assert_eq!(
                self.due[b], due,
                "delivery wheel bucket {b} would hold events due at two cycles"
            );
        }
        self.buckets[b].push(d);
        set_bit(&mut self.busy, b);
    }

    /// Remove the events due at `now`, yielding them in push order.
    #[inline]
    pub(crate) fn drain(&mut self, now: u64) -> std::vec::Drain<'_, Delivery> {
        let b = self.bucket(now);
        #[cfg(debug_assertions)]
        assert!(
            self.buckets[b].is_empty() || self.due[b] == now,
            "delivery wheel drained events due at cycle {} at cycle {now}",
            self.due[b]
        );
        clear_bit(&mut self.busy, b);
        self.buckets[b].drain(..)
    }

    /// The earliest cycle at which an event is due (`u64::MAX` with
    /// none). Every pending event must be due at or after `now`.
    pub(crate) fn next_due(&self, now: u64) -> u64 {
        let start = self.bucket(now);
        let Some(b) = RotatedOnes::new(&self.busy, start).next() else {
            return u64::MAX;
        };
        let due = now + (b.wrapping_sub(start) & (self.buckets.len() - 1)) as u64;
        #[cfg(debug_assertions)]
        assert_eq!(
            self.due[b], due,
            "delivery wheel holds events due at cycle {}, before cycle {now}",
            self.due[b]
        );
        due
    }

    /// Test builds: the bucket count `W`.
    #[cfg(test)]
    pub(crate) fn width(&self) -> usize {
        self.buckets.len()
    }

    /// Debug builds: every pending event, bucket by bucket.
    #[cfg(debug_assertions)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Delivery> + '_ {
        self.buckets.iter().flatten()
    }

    /// Debug builds: the bit of every bucket is set iff it holds an event.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_busy_exact(&self) {
        for (b, bucket) in self.buckets.iter().enumerate() {
            assert_eq!(
                self.busy[b / 64] >> (b % 64) & 1 == 1,
                !bucket.is_empty(),
                "delivery wheel bitmask out of step with bucket {b}"
            );
        }
    }
}

#[cfg(test)]
mod wheel_tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn ev(n: u32) -> Delivery {
        Delivery::flit(n, End { agent: n, port: 0 }, 0)
    }

    fn drained(w: &mut Wheel, now: u64) -> Vec<u32> {
        w.drain(now).map(|d| d.slot).collect()
    }

    #[test]
    fn width_is_the_power_of_two_above_the_longest_latency() {
        for (latency, width, words) in [(1, 2, 1), (8, 16, 1), (1000, 1024, 16)] {
            let w = Wheel::new(latency);
            assert_eq!((w.width(), w.busy.len()), (width, words), "{latency}");
            assert!(w.buckets.iter().all(|b| b.capacity() == 0));
        }
    }

    #[test]
    fn each_bucket_drains_in_push_order() {
        let mut w = Wheel::new(8);
        for n in 0..6 {
            w.push(10, ev(n));
            w.push(12, ev(100 + n));
        }
        assert!(drained(&mut w, 9).is_empty());
        assert_eq!(drained(&mut w, 10), [0, 1, 2, 3, 4, 5]);
        assert!(drained(&mut w, 11).is_empty());
        assert_eq!(drained(&mut w, 12), [100, 101, 102, 103, 104, 105]);
        assert_eq!(w.next_due(13), u64::MAX);
    }

    #[test]
    fn next_due_wraps_around_and_is_max_when_empty() {
        let mut w = Wheel::new(8);
        assert_eq!(w.next_due(0), u64::MAX);
        // Cycle 14 is bucket 14 of 16; cycles 17 and 29 wrap to buckets 1
        // and 13, both below it.
        w.push(29, ev(2));
        w.push(17, ev(1));
        assert_eq!(w.next_due(14), 17);
        assert_eq!(drained(&mut w, 17), [1]);
        assert_eq!(w.next_due(18), 29);
        assert_eq!(drained(&mut w, 29), [2]);
        assert_eq!(w.next_due(30), u64::MAX);
        // Across the words of a 1024-bucket wheel.
        let mut w = Wheel::new(1000);
        w.push(1000 + 1000, ev(3));
        assert_eq!(w.next_due(1000), 2000);
        w.push(1001, ev(4));
        assert_eq!(w.next_due(1000), 1001);
    }

    #[test]
    fn random_pushes_drain_at_their_due_cycle_in_push_order() {
        let mut rng = SplitMix64::new(0x3EE1);
        for max_latency in [1u32, 3, 8, 100] {
            let mut w = Wheel::new(max_latency);
            let mut pending: Vec<(u64, u32)> = Vec::new();
            let mut now = 0u64;
            for n in 0..5_000u32 {
                if !rng.next_u64().is_multiple_of(3) {
                    let due = now + 1 + rng.next_u64() % max_latency as u64;
                    w.push(due, ev(n));
                    pending.push((due, n));
                    continue;
                }
                // Jump to the next due cycle, as the engine does.
                let next = pending.iter().map(|&(d, _)| d).min().unwrap_or(u64::MAX);
                assert_eq!(w.next_due(now), next, "max latency {max_latency}");
                if next == u64::MAX {
                    continue;
                }
                now = next;
                let want: Vec<u32> = pending.iter().filter(|e| e.0 == now).map(|e| e.1).collect();
                pending.retain(|e| e.0 != now);
                assert_eq!(drained(&mut w, now), want, "max latency {max_latency}");
                #[cfg(debug_assertions)]
                w.assert_busy_exact();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_are_dense_and_unique() {
        let mut seen = [false; 6];
        for c in ChannelClass::ALL {
            let i = c.index();
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn terminus_accessors() {
        let r = Terminus::Router { router: 3, port: 2 };
        let e = Terminus::Endpoint { endpoint: 9 };
        assert_eq!(r.router(), Some(3));
        assert_eq!(r.port(), Some(2));
        assert_eq!(r.endpoint(), None);
        assert_eq!(e.endpoint(), Some(9));
        assert_eq!(e.router(), None);
        assert_eq!(e.port(), None);
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> =
            ChannelClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), ChannelClass::ALL.len());
    }
}
