//! Channel descriptions: the static wiring of the network, plus the
//! bounded timed ring buffer that backs every channel queue at runtime.
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

/// A bounded FIFO of `(arrival_cycle, payload)` entries.
///
/// This backs every channel's flit and credit queue. Producers stamp each
/// entry with its arrival cycle (`now + latency`); consumers drain entries
/// whose arrival cycle has been reached with [`TimedRing::pop_due`].
/// Because a channel has exactly one producer with a fixed latency, arrival
/// stamps are non-decreasing in push order, so FIFO order *is* arrival
/// order and a plain ring suffices — no priority queue, no per-cycle heap
/// churn.
///
/// The capacity is fixed at construction and `try_push` reports overflow
/// at exactly that many entries, which doubles as backpressure in unit
/// tests and as an invariant check in the engine. Storage is sized by
/// peak occupancy instead: a new ring holds no cells, and the cells — a
/// power of two in number — double only when every one is occupied, so a
/// ring never holds more than `capacity().next_power_of_two()` cells, and
/// a steady stream cycles through about as many cells as it occupies.
#[derive(Debug, Clone)]
pub struct TimedRing<T> {
    /// The cells: none, or a power of two. Cell `(head + i) & (cells − 1)`
    /// holds queue position `i`.
    buf: Vec<(u64, T)>,
    cap: usize,
    head: usize,
    len: usize,
}

impl<T: Copy> TimedRing<T> {
    /// Ring with room for `cap` entries (at least 1). Allocates nothing.
    pub fn with_capacity(cap: usize) -> Self {
        TimedRing {
            buf: Vec::new(),
            cap: cap.max(1),
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

    /// Index mask of the cells (`cells − 1`; only read with a cell).
    #[inline]
    fn mask(&self) -> usize {
        self.buf.len().wrapping_sub(1)
    }

    /// Append an entry arriving at cycle `arrive`; `Err(RingFull)` when at
    /// capacity (backpressure).
    #[inline]
    pub fn try_push(&mut self, arrive: u64, item: T) -> Result<(), RingFull> {
        if self.len == self.cap {
            return Err(RingFull);
        }
        if self.len == self.buf.len() {
            self.grow((arrive, item));
        }
        let pos = (self.head + self.len) & self.mask();
        self.buf[pos] = (arrive, item);
        self.len += 1;
        Ok(())
    }

    /// Double the cells, every one of which is occupied (one cell from
    /// none), and unroll the queue to cell 0. The new cells start as
    /// copies of `fill`.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, fill: (u64, T)) {
        let cells = (self.buf.len() * 2).max(1);
        debug_assert!(cells <= self.cap.next_power_of_two());
        self.buf.rotate_left(self.head);
        self.buf.reserve_exact(cells - self.buf.len());
        self.buf.resize(cells, fill);
        self.head = 0;
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
        self.head = (self.head + 1) & self.mask();
        self.len -= 1;
        Some(e)
    }

    /// Debug builds: the queued entries, oldest first.
    #[cfg(debug_assertions)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = &(u64, T)> + '_ {
        (0..self.len).map(move |i| &self.buf[(self.head + i) & self.mask()])
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

/// The cells grow with peak occupancy, checked against a `VecDeque`.
#[cfg(test)]
mod ring_growth_tests {
    use super::*;
    use crate::rng::SplitMix64;
    use std::collections::VecDeque;

    fn cells<T>(r: &TimedRing<T>) -> usize {
        r.buf.len()
    }

    #[test]
    fn a_new_ring_holds_no_cells() {
        let r = TimedRing::<u8>::with_capacity(144);
        assert_eq!(cells(&r), 0);
        assert_eq!(r.buf.capacity(), 0);
        assert_eq!(r.capacity(), 144);
    }

    #[test]
    fn k_pushes_from_empty_take_the_next_power_of_two_cells() {
        for k in 1..=100usize {
            let mut r = TimedRing::with_capacity(100);
            for i in 0..k {
                r.try_push(i as u64, i as u32).unwrap();
            }
            assert_eq!(cells(&r), k.next_power_of_two(), "k {k}");
        }
    }

    #[test]
    fn ring_full_fires_at_exactly_cap_when_cells_exceed_it() {
        let mut r = TimedRing::with_capacity(5);
        for i in 0..5u64 {
            r.try_push(i, i as u8).unwrap();
        }
        assert_eq!(r.try_push(5, 5), Err(RingFull));
        assert_eq!(r.len(), 5);
        assert_eq!(cells(&r), 8);
        // The three spare cells never admit a sixth entry, even after the
        // queue has wrapped through them.
        for i in 5..40u64 {
            assert_eq!(r.pop_front(), Some((i - 5, (i - 5) as u8)));
            r.try_push(i, i as u8).unwrap();
            assert_eq!(r.try_push(i, 0), Err(RingFull));
        }
        assert_eq!(cells(&r), 8);
    }

    #[test]
    fn growth_from_a_wrapped_head_keeps_fifo_order() {
        let mut r = TimedRing::with_capacity(64);
        let mut want = VecDeque::new();
        // Four cells, head moved to cell 3, queue wrapped past the end.
        for i in 0..4u64 {
            r.try_push(i, i).unwrap();
            want.push_back((i, i));
        }
        for _ in 0..3 {
            assert_eq!(r.pop_front(), want.pop_front());
        }
        for i in 4..7u64 {
            r.try_push(i, i).unwrap();
            want.push_back((i, i));
        }
        assert_eq!((cells(&r), r.head, r.len()), (4, 3, 4));
        // The fifth entry doubles the cells from the wrapped state.
        for i in 7..16u64 {
            r.try_push(i, i).unwrap();
            want.push_back((i, i));
        }
        assert_eq!(cells(&r), 16);
        while let Some(e) = r.pop_front() {
            assert_eq!(Some(e), want.pop_front());
        }
        assert!(want.is_empty());
    }

    #[test]
    fn a_steady_stream_never_adds_cells() {
        let mut r = TimedRing::with_capacity(144);
        for i in 0..5u64 {
            r.try_push(i, i as u8).unwrap();
        }
        assert_eq!(cells(&r), 8);
        for i in 5..10_005u64 {
            r.try_push(i, i as u8).unwrap();
            assert_eq!(r.pop_front().map(|e| e.0), Some(i - 5));
        }
        assert_eq!((cells(&r), r.len()), (8, 5));
    }

    #[test]
    fn random_pushes_and_pops_match_a_vecdeque() {
        let mut rng = SplitMix64::new(0x7173);
        for cap in [1usize, 2, 3, 5, 9, 16, 144] {
            let mut r = TimedRing::with_capacity(cap);
            let mut want = VecDeque::new();
            let mut peak = 0;
            for t in 0..4_000u64 {
                if !rng.next_u64().is_multiple_of(3) {
                    let ok = r.try_push(t, t as u32).is_ok();
                    assert_eq!(ok, want.len() < cap, "cap {cap}");
                    if ok {
                        want.push_back((t, t as u32));
                    }
                } else {
                    assert_eq!(r.pop_front(), want.pop_front(), "cap {cap}");
                }
                peak = peak.max(want.len());
                let want_cells = if peak == 0 {
                    0
                } else {
                    peak.next_power_of_two()
                };
                assert_eq!(cells(&r), want_cells, "cap {cap}");
                assert!(cells(&r) <= cap.next_power_of_two());
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
