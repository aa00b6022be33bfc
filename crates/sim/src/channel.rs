//! Channel descriptions: the static wiring of the network, plus the
//! fixed-capacity timed ring buffer that backs every channel queue at
//! runtime.
//!
//! Channels are unidirectional. A physical full-duplex link in the paper is
//! two `ChannelDesc`s in opposite directions. Each channel has a latency in
//! cycles and a width in flits/cycle; the paper's `2B`/`4B` configurations
//! (doubled/quadrupled intra-C-group bandwidth) are expressed purely through
//! `width`.

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

// --- Timed ring buffer ------------------------------------------------------

/// Error returned by [`TimedRing::try_push`] when the ring is at capacity.
///
/// Channel queues are sized at network-compile time from the physical bound
/// `(latency + 1) × width (× consumer speedup for credit queues)`, so a full
/// ring during simulation means the sizing invariant was violated — the
/// engine treats it as a hard error rather than silently growing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingFull;

impl std::fmt::Display for RingFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "timed ring buffer is full")
    }
}

impl std::error::Error for RingFull {}

/// A fixed-capacity FIFO of `(arrival_cycle, payload)` entries.
///
/// This backs every channel's flit and credit queue. Producers stamp each
/// entry with its arrival cycle (`now + latency`); consumers drain entries
/// whose arrival cycle has been reached with [`TimedRing::pop_due`].
/// Because a channel has exactly one producer with a fixed latency, arrival
/// stamps are non-decreasing in push order, so FIFO order *is* arrival
/// order and a plain ring suffices — no priority queue, no per-cycle heap
/// churn, and (unlike the `VecDeque` it replaced) no reallocation ever.
///
/// Capacity is fixed at construction; `try_push` reports overflow instead
/// of growing, which doubles as backpressure in unit tests and as an
/// invariant check in the engine.
#[derive(Debug, Clone)]
pub struct TimedRing<T> {
    /// Physical storage; grows monotonically to `cap` on first fill, then
    /// never reallocates. Cell `(head + i) % cap` holds queue position `i`.
    buf: Vec<(u64, T)>,
    cap: usize,
    head: usize,
    len: usize,
}

impl<T: Copy> TimedRing<T> {
    /// Ring with room for `cap` entries (at least 1).
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(1);
        TimedRing {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            len: 0,
        }
    }

    /// Entries currently queued.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum entries this ring can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Append an entry arriving at cycle `arrive`; `Err(RingFull)` when at
    /// capacity (backpressure).
    #[inline]
    pub fn try_push(&mut self, arrive: u64, item: T) -> Result<(), RingFull> {
        if self.len == self.cap {
            return Err(RingFull);
        }
        let pos = (self.head + self.len) % self.cap;
        if pos == self.buf.len() {
            self.buf.push((arrive, item));
        } else {
            self.buf[pos] = (arrive, item);
        }
        self.len += 1;
        Ok(())
    }

    /// The oldest entry, if any.
    #[inline]
    pub fn front(&self) -> Option<&(u64, T)> {
        if self.len == 0 {
            None
        } else {
            Some(&self.buf[self.head])
        }
    }

    /// Remove and return the oldest entry.
    #[inline]
    pub fn pop_front(&mut self) -> Option<(u64, T)> {
        if self.len == 0 {
            return None;
        }
        let e = self.buf[self.head];
        self.head = (self.head + 1) % self.cap;
        self.len -= 1;
        Some(e)
    }

    /// Debug builds: the queued entries, oldest first.
    #[cfg(debug_assertions)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = &(u64, T)> + '_ {
        (0..self.len).map(move |i| &self.buf[(self.head + i) % self.cap])
    }

    /// Remove and return the oldest entry iff it has arrived by `now`.
    /// This is the consumer-side primitive of every absorb loop.
    #[inline]
    pub fn pop_due(&mut self, now: u64) -> Option<(u64, T)> {
        match self.front() {
            Some(&(arrive, _)) if arrive <= now => self.pop_front(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod ring_tests {
    use super::*;

    #[test]
    fn fifo_order_is_preserved() {
        let mut r = TimedRing::with_capacity(4);
        for i in 0..4u64 {
            r.try_push(i, i as u8).unwrap();
        }
        for i in 0..4u64 {
            assert_eq!(r.pop_front(), Some((i, i as u8)));
        }
        assert!(r.pop_front().is_none());
    }

    #[test]
    fn wrap_around_reuses_slots_without_reallocating() {
        let mut r = TimedRing::with_capacity(3);
        // Fill, drain partially, and keep cycling through the wrap point.
        r.try_push(0, 0u8).unwrap();
        r.try_push(1, 1).unwrap();
        assert_eq!(r.pop_front(), Some((0, 0)));
        for i in 2..50u64 {
            r.try_push(i, i as u8).unwrap();
            assert_eq!(r.pop_front(), Some((i - 1, (i - 1) as u8)));
            assert_eq!(r.len(), 1);
        }
        // Physical storage never exceeded the fixed capacity.
        assert!(r.buf.len() <= r.capacity());
        assert_eq!(r.capacity(), 3);
    }

    #[test]
    fn full_queue_exerts_backpressure() {
        let mut r = TimedRing::with_capacity(2);
        r.try_push(0, 1u8).unwrap();
        r.try_push(0, 2).unwrap();
        assert_eq!(r.try_push(0, 3), Err(RingFull));
        assert_eq!(r.len(), 2);
        // Draining one slot re-admits one entry.
        assert_eq!(r.pop_front(), Some((0, 1)));
        r.try_push(9, 3).unwrap();
        assert_eq!(r.try_push(9, 4), Err(RingFull));
    }

    #[test]
    fn pop_due_respects_arrival_cycles() {
        let mut r = TimedRing::with_capacity(4);
        r.try_push(5, 10u8).unwrap();
        r.try_push(5, 11).unwrap();
        r.try_push(8, 12).unwrap();
        // Nothing due before cycle 5.
        assert_eq!(r.pop_due(4), None);
        assert_eq!(r.len(), 3);
        // Both cycle-5 entries drain in order; the cycle-8 entry stays.
        assert_eq!(r.pop_due(5), Some((5, 10)));
        assert_eq!(r.pop_due(5), Some((5, 11)));
        assert_eq!(r.pop_due(5), None);
        assert_eq!(r.pop_due(8), Some((8, 12)));
        assert!(r.is_empty());
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut r = TimedRing::with_capacity(0);
        assert_eq!(r.capacity(), 1);
        r.try_push(0, 1u8).unwrap();
        assert_eq!(r.try_push(0, 2), Err(RingFull));
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
