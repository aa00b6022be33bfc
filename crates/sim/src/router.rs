//! Runtime router and endpoint state machines.
//!
//! One [`RouterRt`] is an input-queued virtual-channel router with
//! credit-based flow control and separable round-robin allocation (Dally &
//! Towles, *Principles and Practices of Interconnection Networks*,
//! ch. 18–19).
//!
//! Each port is one 64-byte, cache-line-aligned record (`Port`): its
//! occupancy word, its SA pointer, its input quota and its input and
//! output wiring, so an allocator visit to a port loads one line. Input
//! and output VCs have flat ids `port << s | vc`, where the VC stride
//! `1 << s` is the VC count rounded up to a power of two: decoding a flat
//! id is a shift and a mask, and flat order is `(port, vc)` order. The
//! stride pads only VC counts that are not powers of two, at 16 bytes per
//! input VC and 8 per output VC: switch-based Valiant routing's 24 VCs
//! take 32 slots per port and switch-less Valiant's 12 take 16, while the
//! 16, 8 and 4 VCs of the benchmark workloads take no padding.
//!
//! A busy router-cycle makes one walk over its occupied input VCs, in
//! ascending flat id, skipping empty ports and VCs through occupancy
//! words:
//!
//! * **RC** — an input VC whose front flit is a head without a route
//!   queries the [`crate::RouteOracle`], in walk order, so the per-router
//!   RNG stream sees the oracle calls in (port, VC) order.
//! * **VA** — an ungranted input VC requests the exact output VC the oracle
//!   chose, if that VC is free. Each output VC grants the first requester
//!   at or after its rotating pointer, wrapping to the first requester; the
//!   walk finds that winner without a sort (`VaSlot`).
//! * **SA** — every granted input VC (held over, or granted by VA this
//!   cycle) joins the step's candidate list as `out_port << 16 | flat id`.
//!   SA insertion-sorts the list (it holds one or two entries on a typical
//!   step), so each output port's candidates form one ascending run, and
//!   serves the ports in ascending order. A port grants up to
//!   `width(out_channel)` flits per cycle: it visits its run from the first
//!   candidate at or after its rotating pointer, wrapping to the run's
//!   start, and sweeps again while quota and progress remain. Each input
//!   port forwards at most `width(in_channel) × speedup` flits per cycle;
//!   its quota is read when one of its VCs first competes in the step.
//! * **ST/LT** — granted flits move onto the output channel (arriving
//!   `latency` cycles later), a credit returns upstream, and a tail flit
//!   releases its output VC.
//!
//! Every arbiter grants the candidate with the smallest `(f + n − ptr) %
//! n` over flat ids `f` and pointer `ptr`. Padding the stride keeps that
//! order: the padded ids are a monotone map of `port × vcs + vc`, and no
//! candidate sits in the padding.
//!
//! The requests and candidates live in an `AllocScratch` that the routers
//! of one partition share: they step one at a time, and each step leaves
//! the scratch clear.
//!
//! Flits live in one `FlitPool` per partition, shared the same way. Each
//! input VC is a FIFO of pool slots linked through the slots themselves
//! (a dynamically allocated multi-queue buffer: Tamir & Frazier, *IEEE
//! Trans. Computers* 41(6), 1992), so an empty VC holds no storage.
//!
//! A send over a partition-local channel appends two 12-byte events to
//! the partition's delivery wheel (`crate::channel::Wheel`): the flit's
//! slot with the router, input port and VC it joins, and the credit for
//! the input VC it left. The flit is never copied; one crossing into
//! another partition travels by value in a [`Msg`] and gets a slot in
//! the receiving partition's pool at delivery. The engine drains the
//! events due at a cycle before any agent steps, so a router steps only
//! while it buffers a flit.
//!
//! Endpoints ([`EndpointRt`]) are open-loop sources with unbounded packet
//! queues plus sinks with bounded ejection bandwidth. All cross-router
//! communication flows through per-partition wheels or [`Msg`] mailboxes
//! so the engine can run partitions in parallel without locks.

use crate::channel::{ChannelClass, Delivery, End, Wheel};
use crate::flit::{Flit, PacketHeader};
use crate::metrics::Metrics;
use crate::network::MAX_PORTS;
use crate::oracle::{RouteChoice, RouteOracle};
use crate::pattern::TrafficPattern;
use crate::rng::SplitMix64;
use crate::telemetry::PartTrace;
use std::collections::VecDeque;

/// Cross-partition message: a flit or credit for a channel end in
/// another partition, which pushes it onto its wheel at delivery.
#[derive(Debug, Clone, Copy)]
pub enum Msg {
    /// `flit` reaches the receiving end of channel `ch` at cycle
    /// `arrive` and joins input VC `vc` there.
    Flit {
        /// Global channel id.
        ch: u32,
        /// Arrival cycle.
        arrive: u64,
        /// Input VC the flit joins at the receiving router.
        vc: u8,
        /// The flit.
        flit: Flit,
    },
    /// One credit for VC `vc` reaches the sending end of channel `ch` at
    /// cycle `arrive`.
    Credit {
        /// Global channel id.
        ch: u32,
        /// Arrival cycle.
        arrive: u64,
        /// Virtual channel the credit frees.
        vc: u8,
    },
}

const _: () = assert!(std::mem::size_of::<Msg>() == 48);

/// A fully ejected packet, reported to a closed-loop workload driver.
///
/// Emitted once per packet, at its *tail* flit's ejection. Because flits
/// of one packet ride the same channel in order, the tail arrives last, so
/// `arrive` is the cycle at which the whole packet has reached `dst` —
/// the reassembly timestamp closed-loop workloads key dependency release
/// off. Recording happens at send time with the future arrival cycle
/// stamped in (the ejection channel has latency ≥ 1), so a driver may see
/// events up to one channel latency ahead of the current cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Cycle at which the packet's last flit reaches the endpoint.
    pub arrive: u64,
    /// Packet id (closed-loop drivers encode their message tag here).
    pub id: u64,
    /// Destination endpoint.
    pub dst: u32,
    /// Packet length in flits.
    pub flits: u8,
}

/// Where a flit sent on an output port lands.
#[derive(Debug, Clone, Copy)]
pub enum FlitTarget {
    /// An input port of a router in this partition.
    Local(End),
    /// A router in another partition; route via mailbox.
    Remote {
        /// Out-edge slot within the emitting partition's outbox range of
        /// the sparse exchange (compiled from the partition adjacency
        /// graph; `u32::MAX` sentinel for dead channels, which assert
        /// before emission).
        slot: u32,
        /// Global channel id (owner resolves its own local index).
        ch: u32,
    },
}

/// Where a credit for a consumed flit goes (upstream of an input port).
#[derive(Debug, Clone, Copy)]
pub enum CreditTarget {
    /// An output port of a router, or an endpoint, in this partition.
    Local(End),
    /// An agent in another partition.
    Remote {
        /// Out-edge slot within the emitting partition's outbox range
        /// (see [`FlitTarget::Remote`]).
        slot: u32,
        /// Global channel id.
        ch: u32,
    },
}

/// Compiled input-port wiring.
#[derive(Debug, Clone, Copy)]
pub struct PortIn {
    /// Upstream credit destination.
    pub credit_to: CreditTarget,
    /// Credit return latency (= channel latency).
    pub credit_latency: u32,
    /// Incoming channel width — the input port's forwarding quota.
    pub width: u8,
}

/// Compiled output-port wiring.
#[derive(Debug, Clone, Copy)]
pub struct PortOut {
    /// Global channel id (per-channel statistics).
    pub ch: u32,
    /// Downstream flit destination.
    pub flit_to: FlitTarget,
    /// Channel latency in cycles.
    pub latency: u32,
    /// Channel width — the output port's grant quota per cycle.
    pub width: u8,
    /// Channel class for metrics/energy accounting.
    pub class: ChannelClass,
    /// True if the channel ends at an endpoint (ejection).
    pub is_ejection: bool,
    /// True if the channel is faulted: any traversal attempt is a hard
    /// assert (see [`crate::FaultMap`]).
    pub dead: bool,
}

/// Per-input-VC state: a FIFO of [`FlitPool`] slots, linked through the
/// slots, plus the packet state of its front.
#[derive(Debug, Clone, Copy)]
struct InputVc {
    /// Front slot ([`NIL`] when empty).
    head: u32,
    /// Back slot (meaningful while `len > 0`).
    tail: u32,
    /// Buffered flits; credit flow control bounds it by `buffer_flits`.
    len: u16,
    /// Routing decision for the packet whose flits are at the front.
    route: Option<RouteChoice>,
    /// True once VA granted the requested output VC.
    granted: bool,
}

const _: () = assert!(std::mem::size_of::<InputVc>() == 16);

impl InputVc {
    const EMPTY: InputVc = InputVc {
        head: NIL,
        tail: NIL,
        len: 0,
        route: None,
        granted: false,
    };

    /// Append slot `s` at the back.
    #[inline]
    fn link(&mut self, pool: &mut FlitPool, s: u32) {
        pool.slots[s as usize].next = NIL;
        if self.len == 0 {
            self.head = s;
        } else {
            pool.slots[self.tail as usize].next = s;
        }
        self.tail = s;
        self.len += 1;
    }

    /// Remove the front flit and return its slot, which stays allocated.
    #[inline]
    fn unlink(&mut self, pool: &FlitPool) -> u32 {
        debug_assert!(self.len > 0, "unlink from an empty input VC");
        let s = self.head;
        self.head = pool.slots[s as usize].next;
        self.len -= 1;
        s
    }

    /// The front flit.
    #[inline]
    fn front<'p>(&self, pool: &'p FlitPool) -> &'p Flit {
        debug_assert!(self.len > 0, "front of an empty input VC");
        pool.flit(self.head)
    }
}

/// "No slot": the end of an input-VC FIFO or of the free list.
pub(crate) const NIL: u32 = u32::MAX;

/// One [`FlitPool`] cell: a flit, and the next slot of the FIFO or free
/// list the slot is on.
#[derive(Debug, Clone, Copy)]
struct Slot {
    flit: Flit,
    next: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 40);

/// The flit store of one partition: every flit buffered in one of its
/// routers or riding its delivery wheel sits in a slot here. Its routers
/// step one at a time, so they share it.
///
/// The free list is LIFO, so the slot a router step frees is the next one
/// allocated, while it is still in cache. The pool grows to the
/// partition's peak count of live flits and never shrinks.
#[derive(Debug)]
pub(crate) struct FlitPool {
    slots: Vec<Slot>,
    /// Head of the free list ([`NIL`] when every slot is live).
    free: u32,
}

impl Default for FlitPool {
    fn default() -> Self {
        FlitPool {
            slots: Vec::new(),
            free: NIL,
        }
    }
}

impl FlitPool {
    /// Store `flit` in a slot: the last one freed, else a new one.
    #[inline]
    pub(crate) fn alloc(&mut self, flit: Flit) -> u32 {
        let s = self.free;
        if s == NIL {
            return self.grow(flit);
        }
        let slot = &mut self.slots[s as usize];
        self.free = slot.next;
        slot.flit = flit;
        s
    }

    #[cold]
    #[inline(never)]
    fn grow(&mut self, flit: Flit) -> u32 {
        let s = self.slots.len();
        assert!(s < NIL as usize, "flit pool outgrew u32 slot indices");
        self.slots.push(Slot { flit, next: NIL });
        s as u32
    }

    /// Return slot `s` to the free list.
    #[inline]
    pub(crate) fn free(&mut self, s: u32) {
        self.slots[s as usize].next = self.free;
        self.free = s;
    }

    /// The flit in slot `s`.
    #[inline]
    pub(crate) fn flit(&self, s: u32) -> &Flit {
        &self.slots[s as usize].flit
    }

    /// Debug builds: every slot is in exactly one place — the free list,
    /// one input-VC FIFO of `routers`, or one of `wheel`'s flit events —
    /// and every FIFO walk takes exactly `len` steps and ends at its tail.
    /// O(slots + wheel events + routers).
    #[cfg(debug_assertions)]
    pub(crate) fn assert_conserved(&self, routers: &[RouterRt], wheel: &Wheel) {
        let n = self.slots.len();
        let mut placed = vec![false; n];
        let mut place = |s: u32, what: &dyn Fn() -> String| {
            assert!(
                (s as usize) < n,
                "flit pool conservation violated: {} names slot {s} of {n}",
                what()
            );
            assert!(
                !std::mem::replace(&mut placed[s as usize], true),
                "flit pool conservation violated: slot {s} is in two places, one of them {}",
                what()
            );
        };
        let mut s = self.free;
        while s != NIL {
            place(s, &|| "the free list".into());
            s = self.slots[s as usize].next;
        }
        for r in routers {
            let mut held = 0u32;
            for port in Ones(r.occ_ports) {
                for vc in Ones(r.ports[port].occ) {
                    let iv = &r.inputs[port << r.shift | vc];
                    let fifo = || format!("router {} port {port} VC {vc}", r.id);
                    let mut s = iv.head;
                    for step in 0..iv.len {
                        assert_ne!(
                            s,
                            NIL,
                            "flit pool conservation violated: the FIFO of {} ends after \
                             {step} of its {} slots",
                            fifo(),
                            iv.len
                        );
                        place(s, &fifo);
                        if step + 1 == iv.len {
                            assert_eq!(
                                s,
                                iv.tail,
                                "flit pool conservation violated: the FIFO walk of {} ends at \
                                 slot {s}, not at its tail",
                                fifo()
                            );
                        }
                        s = self.slots[s as usize].next;
                    }
                    assert_eq!(
                        s,
                        NIL,
                        "flit pool conservation violated: the FIFO of {} runs past its {} slots",
                        fifo(),
                        iv.len
                    );
                    held += iv.len as u32;
                }
            }
            assert_eq!(
                held, r.buffered,
                "flit pool conservation violated: router {} buffers {} flits, but its \
                 occupied input-VC FIFOs hold {held}",
                r.id, r.buffered
            );
        }
        for d in wheel.iter().filter(|d| d.slot != NIL) {
            place(d.slot, &|| "a wheel event".into());
        }
        if let Some(s) = placed.iter().position(|&p| !p) {
            let lost = placed.iter().filter(|&&p| !p).count();
            panic!(
                "flit pool conservation violated: {lost} of {n} slots are in no place \
                 (first: slot {s}), neither free, buffered nor on the delivery wheel"
            );
        }
    }
}

/// Per-output-VC state.
#[derive(Debug, Clone, Copy)]
struct OutputVc {
    /// Input VC (flat id) currently holding this output VC.
    owner: Option<u16>,
    /// Remaining credits (free downstream buffer slots).
    credits: u16,
    /// Rotating priority pointer of the VC arbiter (VA), a flat id.
    va_ptr: u16,
}

const _: () = assert!(std::mem::size_of::<OutputVc>() == 8);

/// One router port: the input and output halves the allocator reads
/// together, in one cache line.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Port {
    /// Occupancy word: bit v set ⇔ input VC v buffers a flit. Keeps the
    /// allocation walk proportional to occupied VCs, not to ports × VCs
    /// (the hot-path cost at scale).
    occ: u64,
    /// Rotating priority pointer of the switch arbiter (SA), a flat id.
    sa_ptr: u16,
    /// Flits the input port may forward per cycle: the incoming channel's
    /// width × the crossbar speedup, 0 while unwired.
    quota: u16,
    pin: Option<PortIn>,
    pout: Option<PortOut>,
}

const _: () = assert!(std::mem::size_of::<Port>() == 64);

impl Port {
    const UNWIRED: Port = Port {
        occ: 0,
        sa_ptr: 0,
        quota: 0,
        pin: None,
        pout: None,
    };
}

/// Mutable per-cycle context handed to routers/endpoints by the engine.
/// All slices are partition-local.
pub struct CycleCtx<'a> {
    /// Current cycle.
    pub now: u64,
    /// This partition's delivery wheel: every send over a
    /// partition-local channel appends its flit and credit here.
    pub(crate) wheel: &'a mut Wheel,
    /// Outgoing mailboxes, one per out-edge of this partition in the
    /// sparse partition adjacency graph (indexed by the compiled
    /// [`FlitTarget::Remote`]/[`CreditTarget::Remote`] slot).
    pub outboxes: &'a mut [Vec<Msg>],
    /// Partition-local metrics.
    pub metrics: &'a mut Metrics,
    /// Packet-arrival events for the closed-loop workload driver (tail
    /// ejections); unused (and never pushed) in open-loop runs.
    pub arrivals: &'a mut Vec<Arrival>,
    /// True when a closed-loop run wants [`Arrival`] events collected.
    pub collect_arrivals: bool,
    /// Count of flit movements this cycle (watchdog).
    pub moved: &'a mut u64,
    /// Net change in in-network flits this cycle (watchdog bookkeeping).
    pub in_flight: &'a mut i64,
    /// True while inside the measurement window.
    pub measuring: bool,
    /// True while injection is allowed (false during drain).
    pub injecting: bool,
    /// First cycle of the measurement window (latency filter).
    pub measure_start: u64,
    /// First cycle after the measurement window.
    pub measure_end: u64,
    /// Earliest arrival among this cycle's outbound cross-partition
    /// messages (reset to `u64::MAX` each advance). They reach the
    /// receiving wheel only at delivery, so the engine caps idle
    /// fast-forwards here — keeping the jump schedule identical for every
    /// partition count.
    pub out_min: &'a mut u64,
    /// Opt-in telemetry buffer (`None` when tracing is off — the hot path
    /// pays one branch per emission site and nothing else). Observe-only:
    /// nothing here may feed back into simulated state.
    pub trace: Option<&'a mut PartTrace>,
    /// This partition's flit store, shared by its routers and endpoints.
    pub(crate) pool: &'a mut FlitPool,
}

impl CycleCtx<'_> {
    #[inline]
    fn emit(&mut self, slot: u32, msg: Msg) {
        // Tracked on every cycle: the emissions sit undelivered in the
        // mailboxes, on no wheel yet, until the next executed cycle, and a
        // jump must not overshoot them.
        let arrive = match &msg {
            Msg::Flit { arrive, .. } | Msg::Credit { arrive, .. } => *arrive,
        };
        *self.out_min = (*self.out_min).min(arrive);
        self.outboxes[slot as usize].push(msg);
    }
}

/// One partition's pending-work bitmaps: the engine's only record of
/// which agents have work, one bit per local agent. A router's bit means
/// a buffered flit; an endpoint's, a queued packet or an open-loop
/// emission due this cycle.
///
/// A flit the wheel delivers marks its router, a closed-loop submission
/// marks its endpoint, and an agent clears its own bit after a step that
/// leaves it idle. Every executed cycle visits exactly the agents whose
/// bit is set; the step of any other agent would be a strict no-op.
#[derive(Debug, Default)]
pub(crate) struct Pending {
    pub(crate) routers: Vec<u64>,
    pub(crate) endpoints: Vec<u64>,
}

impl Pending {
    /// All-clear bitmaps for `routers` × `endpoints` local agents.
    pub(crate) fn new(routers: usize, endpoints: usize) -> Self {
        Pending {
            routers: vec![0; routers.div_ceil(64)],
            endpoints: vec![0; endpoints.div_ceil(64)],
        }
    }

    /// Mark local router `r` (a flit arrived).
    #[inline]
    pub(crate) fn mark_router(&mut self, r: usize) {
        set_bit(&mut self.routers, r);
    }

    /// Mark local endpoint `e` (a queued packet, or an emission due).
    #[inline]
    pub(crate) fn mark_endpoint(&mut self, e: usize) {
        set_bit(&mut self.endpoints, e);
    }

    /// True when some agent has work.
    #[inline]
    pub(crate) fn any(&self) -> bool {
        self.routers.iter().chain(&self.endpoints).any(|&w| w != 0)
    }
}

#[inline]
pub(crate) fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

#[inline]
pub(crate) fn clear_bit(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1 << (i % 64));
}

/// The set-bit positions of one word, ascending. Iterating copies the
/// word, so bits set meanwhile are not visited.
pub(crate) struct Ones(pub(crate) u64);

impl Iterator for Ones {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(i)
    }
}

/// The set-bit positions of a multi-word mask (bit `i` in word `i / 64`)
/// at or after `ptr`, then before it, each ascending: a round-robin
/// arbiter's priority order with its pointer at `ptr`. For any `n` that
/// covers the set bits this is ascending `(i + n − ptr) % n`, with no
/// sort. `ptr` must lie inside the mask (`ptr < 64 × mask.len()`).
pub(crate) struct RotatedOnes<'a> {
    mask: &'a [u64],
    /// Unvisited bits of word `word`.
    bits: u64,
    word: usize,
    /// Words still to load. The last load is the pointer's own word
    /// again, masked to the bits `below` the pointer.
    loads: usize,
    below: u64,
}

impl<'a> RotatedOnes<'a> {
    pub(crate) fn new(mask: &'a [u64], ptr: usize) -> Self {
        let (word, bit) = (ptr / 64, ptr % 64);
        RotatedOnes {
            mask,
            bits: mask[word] & (!0 << bit),
            word,
            loads: mask.len(),
            below: (1 << bit) - 1,
        }
    }
}

impl Iterator for RotatedOnes<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            if self.loads == 0 {
                return None;
            }
            self.loads -= 1;
            self.word = if self.word + 1 == self.mask.len() {
                0
            } else {
                self.word + 1
            };
            self.bits = self.mask[self.word];
            if self.loads == 0 {
                self.bits &= self.below;
            }
        }
        let i = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.word * 64 + i)
    }
}

/// One output VC's round-robin VC arbiter, offered its requesters in
/// ascending input-VC id: the winner is the first requester at or after
/// the pointer, else the first requester — the requester with the
/// smallest `(f + n − ptr) % n`, found without a sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct VaSlot {
    first: u16,
    at_ptr: u16,
}

impl VaSlot {
    const NONE: u16 = u16::MAX;
    const EMPTY: VaSlot = VaSlot {
        first: Self::NONE,
        at_ptr: Self::NONE,
    };

    /// Offer requester `f`, greater than every earlier offer; true on the
    /// slot's first offer.
    #[inline]
    fn offer(&mut self, f: u16, ptr: u16) -> bool {
        let fresh = self.first == Self::NONE;
        if fresh {
            self.first = f;
        }
        if f >= ptr && self.at_ptr == Self::NONE {
            self.at_ptr = f;
        }
        fresh
    }

    #[inline]
    fn winner(self) -> u16 {
        if self.at_ptr == Self::NONE {
            self.first
        } else {
            self.at_ptr
        }
    }
}

/// Allocation scratch of one partition. Its routers step one at a time, so
/// they share it, and it stays cache-hot from router to router. Sized when
/// the network is compiled, to the partition's largest router; every
/// router step leaves it clear.
#[derive(Debug, Default)]
pub(crate) struct AllocScratch {
    /// VC arbiter per output VC (flat id); `VaSlot::EMPTY` unless
    /// requested in the current step.
    va: Vec<VaSlot>,
    /// Output VCs requested in the current step, in first-request order.
    va_touched: Vec<u16>,
    /// SA candidates of the current step, `out_port << 16 | flat id`: each
    /// granted input VC once.
    cands: Vec<u32>,
    /// Forwarding quota left per input port in the current step; an entry
    /// is live only once SA has read it, which SA tracks in a seen-mask.
    quota: Vec<u16>,
    /// Debug builds: the input VCs (flat ids) in `cands`.
    #[cfg(debug_assertions)]
    listed: Vec<u64>,
}

impl AllocScratch {
    /// Scratch for the largest of `routers`.
    pub(crate) fn for_routers(routers: &[RouterRt]) -> Self {
        let ports = routers.iter().map(|r| r.ports.len()).max().unwrap_or(0);
        let nflat = routers.iter().map(|r| r.inputs.len()).max().unwrap_or(0);
        AllocScratch {
            va: vec![VaSlot::EMPTY; nflat],
            va_touched: Vec::with_capacity(nflat),
            cands: Vec::with_capacity(nflat),
            quota: vec![0; ports],
            #[cfg(debug_assertions)]
            listed: vec![0; nflat.div_ceil(64)],
        }
    }

    /// Input VC `f` competes for output port `port` in SA.
    #[inline]
    fn candidate(&mut self, port: usize, f: usize) {
        #[cfg(debug_assertions)]
        {
            let (w, bit) = (f / 64, 1 << (f % 64));
            assert!(
                self.listed[w] & bit == 0,
                "input VC {f} entered the SA candidate list twice in one step"
            );
            self.listed[w] |= bit;
        }
        self.cands.push((port as u32) << 16 | f as u32);
    }

    /// Empty the candidate list at the end of a step.
    #[inline]
    fn clear_candidates(&mut self) {
        #[cfg(debug_assertions)]
        for &c in &self.cands {
            clear_bit(&mut self.listed, c as u16 as usize);
        }
        self.cands.clear();
    }

    /// Debug builds: every request and candidate is cleared.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_clear(&self) {
        assert!(
            self.va_touched.is_empty()
                && self.cands.is_empty()
                && self.va.iter().all(|&v| v == VaSlot::EMPTY)
                && self.listed.iter().all(|&w| w == 0),
            "allocator scratch left dirty by a router step"
        );
    }
}

/// The flat ids of one output port's run of sorted SA candidates in its
/// arbiter's priority order: from the first at or after `ptr` onwards,
/// then from the run's start. For any `n` above the ids this is ascending
/// `(f + n − ptr) % n`, with no sort.
#[inline]
fn rotated(run: &[u32], ptr: u16) -> impl Iterator<Item = usize> + Clone + '_ {
    let k = run.partition_point(|&c| (c as u16) < ptr);
    run[k..].iter().chain(&run[..k]).map(|&c| c as u16 as usize)
}

/// Sort a step's SA candidates ascending. The list is short (one or two
/// entries on most busy steps), so an insertion sort beats the library
/// sort's set-up.
#[inline]
fn insertion_sort(v: &mut [u32]) {
    for i in 1..v.len() {
        let x = v[i];
        let mut j = i;
        while j > 0 && v[j - 1] > x {
            v[j] = v[j - 1];
            j -= 1;
        }
        v[j] = x;
    }
}

/// Runtime state of one router.
#[derive(Debug, Clone)]
pub struct RouterRt {
    /// Global router id (passed to the oracle).
    pub id: u32,
    /// VCs per port.
    vcs: u8,
    /// log2 of the VC stride: input and output VC `vc` of port `port` has
    /// flat id `port << shift | vc`.
    shift: u8,
    /// Crossbar input speedup (flits one input port may forward per cycle).
    speedup: u8,
    ports: Vec<Port>,
    /// Input VCs by flat id; the stride's padding slots stay empty.
    inputs: Vec<InputVc>,
    /// Output VCs by flat id.
    outputs: Vec<OutputVc>,
    /// Buffered flits across all input VCs. Non-zero keeps the router's
    /// pending-work bit set, so it steps every cycle until it drains.
    buffered: u32,
    /// Deterministic stream for adaptive oracles.
    rng: SplitMix64,
    /// Bit p set ⇔ port p's occupancy word is non-zero ([`MAX_PORTS`]
    /// bounds the port count), so the walk skips empty ports too.
    occ_ports: u64,
    /// `buffer_flits`: the most flits an input VC buffers and the most
    /// credits an output VC holds.
    depth: u16,
}

impl RouterRt {
    /// Build a router with all ports unwired; the engine compiler attaches
    /// [`PortIn`]/[`PortOut`] afterwards.
    pub fn new(id: u32, ports: u8, vcs: u8, buffer_flits: u16, speedup: u8, seed: u64) -> Self {
        debug_assert!(ports as usize <= MAX_PORTS && (1..=64).contains(&vcs));
        let shift = vcs.next_power_of_two().trailing_zeros() as u8;
        let nflat = (ports as usize) << shift;
        RouterRt {
            id,
            vcs,
            shift,
            speedup: speedup.max(1),
            ports: vec![Port::UNWIRED; ports as usize],
            inputs: vec![InputVc::EMPTY; nflat],
            outputs: vec![
                OutputVc {
                    owner: None,
                    credits: buffer_flits,
                    va_ptr: 0,
                };
                nflat
            ],
            buffered: 0,
            rng: SplitMix64::for_agent(seed, 0x5157 ^ (id as u64) << 1),
            occ_ports: 0,
            depth: buffer_flits,
        }
    }

    /// Attach input wiring to `port`.
    pub fn wire_in(&mut self, port: u8, pin: PortIn) {
        let p = &mut self.ports[port as usize];
        p.quota = pin.width as u16 * self.speedup as u16;
        p.pin = Some(pin);
    }

    /// Attach output wiring to `port`.
    pub fn wire_out(&mut self, port: u8, pout: PortOut) {
        self.ports[port as usize].pout = Some(pout);
    }

    /// Flits currently buffered in this router.
    pub fn buffered(&self) -> u32 {
        self.buffered
    }

    /// Debug builds: credits held by output VC `vc` of `port`.
    #[cfg(debug_assertions)]
    pub(crate) fn out_credits(&self, port: u8, vc: u8) -> u16 {
        self.outputs[self.flat(port, vc)].credits
    }

    /// Debug builds: flits buffered in input VC `vc` of `port`.
    #[cfg(debug_assertions)]
    pub(crate) fn in_buffered(&self, port: u8, vc: u8) -> usize {
        self.inputs[self.flat(port, vc)].len as usize
    }

    /// Debug builds: ejection is final at the router, which returns each
    /// ejected flit's credit at once, so every ejection output VC holds
    /// all `buffer_flits` credits between cycles.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_ejection_credits(&self, buffer_flits: u16) {
        for (port, p) in self.ports.iter().enumerate() {
            if !p.pout.is_some_and(|pout| pout.is_ejection) {
                continue;
            }
            for vc in 0..self.vcs {
                let credits = self.out_credits(port as u8, vc);
                assert_eq!(
                    credits, buffer_flits,
                    "credit conservation violated: router {} ejection port {port} VC {vc} \
                     holds {credits} credits, not {buffer_flits}",
                    self.id
                );
            }
        }
    }

    #[inline]
    fn flat(&self, port: u8, vc: u8) -> usize {
        (port as usize) << self.shift | vc as usize
    }

    /// The port and VC of flat id `f`.
    #[inline]
    fn port_vc(&self, f: usize) -> (usize, usize) {
        (f >> self.shift, f & ((1 << self.shift) - 1))
    }

    /// The rotating pointer that follows a grant to flat id `f`: `f + 1`,
    /// wrapping to 0 past the last flat id.
    #[inline]
    fn after(&self, f: usize) -> u16 {
        let next = f + 1;
        if next == self.inputs.len() {
            0
        } else {
            next as u16
        }
    }

    /// One simulation cycle: RC, VA, SA, traversal.
    ///
    /// The engine calls this only for routers whose pending-work bit is
    /// set, after it has delivered the cycle's flits and credits: a
    /// router with no flit buffered would do nothing, so skipping it
    /// changes no state.
    ///
    /// Generic over the oracle so the per-flit route computation
    /// monomorphizes — no virtual dispatch on the hot path. A type-erased
    /// `Simulation<&dyn RouteOracle>` instantiates this with
    /// `O = &dyn RouteOracle` instead.
    pub fn cycle<O: RouteOracle + ?Sized>(
        &mut self,
        ctx: &mut CycleCtx<'_>,
        scratch: &mut AllocScratch,
        oracle: &O,
    ) {
        debug_assert!(self.buffered > 0, "router {} stepped idle", self.id);
        self.route_and_request(oracle, scratch, ctx.pool);
        self.switch_allocate(ctx, scratch);
        debug_assert!(
            scratch.va_touched.is_empty() && scratch.cands.is_empty(),
            "router {} left the allocator scratch dirty",
            self.id
        );
    }

    /// True when [`cycle`](Self::cycle) would be a strict no-op: nothing
    /// buffered. A router clears its pending-work bit after a step that
    /// leaves it idle.
    #[inline]
    pub(crate) fn idle(&self) -> bool {
        self.buffered == 0
    }

    /// Link the flit in pool slot `slot`, just arrived, into input VC
    /// `vc` of `port`.
    ///
    /// # Panics
    /// If that VC already buffers `buffer_flits` flits: credit flow
    /// control never lets a sender exceed it.
    #[inline]
    pub(crate) fn accept(&mut self, pool: &mut FlitPool, port: u8, vc: u8, slot: u32) {
        let f = self.flat(port, vc);
        let iv = &mut self.inputs[f];
        assert!(
            iv.len < self.depth,
            "flit overflow: router {} port {port} VC {vc} already buffers {} flits",
            self.id,
            self.depth
        );
        iv.link(pool, slot);
        self.ports[port as usize].occ |= 1 << vc;
        self.occ_ports |= 1 << port;
        self.buffered += 1;
    }

    /// Return one credit to output VC `vc` of `port`.
    ///
    /// # Panics
    /// If that VC already holds `buffer_flits` credits: a credit returns
    /// only for a flit the VC sent.
    #[inline]
    pub(crate) fn credit(&mut self, port: u8, vc: u8) {
        let f = self.flat(port, vc);
        let out = &mut self.outputs[f];
        assert!(
            out.credits < self.depth,
            "credit overflow: router {} port {port} VC {vc} already holds {} credits",
            self.id,
            self.depth
        );
        out.credits += 1;
    }

    /// The walk: one pass over the occupied input VCs in ascending flat
    /// id. It routes each unrouted head (RC), records each ungranted VC's
    /// request for its output VC if that VC is free, and lists each granted
    /// VC as an SA candidate on its output port. VA then grants every
    /// requested output VC to its round-robin winner (see `VaSlot`), which
    /// becomes a candidate too.
    fn route_and_request<O: RouteOracle + ?Sized>(
        &mut self,
        oracle: &O,
        s: &mut AllocScratch,
        pool: &FlitPool,
    ) {
        let shift = self.shift;
        for port in Ones(self.occ_ports) {
            for vc in Ones(self.ports[port].occ) {
                let f = port << shift | vc;
                let iu = &mut self.inputs[f];
                let rc = match iu.route {
                    Some(rc) => rc,
                    None => {
                        let front = iu.front(pool);
                        debug_assert!(
                            front.kind.is_head(),
                            "non-head flit {:?} at front of unrouted VC (router {}, port {port}, vc {vc})",
                            front.kind,
                            self.id
                        );
                        let choice = oracle.route(
                            self.id,
                            port as u8,
                            vc as u8,
                            &front.header(),
                            &mut self.rng,
                        );
                        debug_assert!(
                            (choice.out_port as usize) < self.ports.len(),
                            "oracle chose invalid port {} on router {} ({} ports)",
                            choice.out_port,
                            self.id,
                            self.ports.len()
                        );
                        debug_assert!(choice.out_vc < self.vcs);
                        iu.route = Some(choice);
                        iu.granted = false;
                        choice
                    }
                };
                if iu.granted {
                    s.candidate(rc.out_port as usize, f);
                    continue;
                }
                let o = self.flat(rc.out_port, rc.out_vc);
                let out = &self.outputs[o];
                if out.owner.is_none() && s.va[o].offer(f as u16, out.va_ptr) {
                    s.va_touched.push(o as u16);
                }
            }
        }
        for i in 0..s.va_touched.len() {
            let o = s.va_touched[i] as usize;
            let winner = std::mem::replace(&mut s.va[o], VaSlot::EMPTY).winner();
            let va_ptr = self.after(winner as usize);
            let out = &mut self.outputs[o];
            out.owner = Some(winner);
            out.va_ptr = va_ptr;
            self.inputs[winner as usize].granted = true;
            s.candidate(o >> shift, winner as usize);
        }
        s.va_touched.clear();
    }

    /// Switch allocation + traversal over the step's candidate list,
    /// sorted so each output port's candidates form one ascending run.
    /// Each port, in ascending order, grants up to `width` flits: it visits
    /// its run in rotated order from its pointer, and sweeps again while
    /// quota and progress remain (a wide link may take several flits from
    /// one VC per cycle). Each input port forwards at most
    /// `width × speedup` flits. Empties the list.
    fn switch_allocate(&mut self, ctx: &mut CycleCtx<'_>, s: &mut AllocScratch) {
        insertion_sort(&mut s.cands);
        // Bit p set ⇔ `s.quota[p]` holds input port p's quota left.
        let mut seen = 0u64;
        for run in s.cands.chunk_by(|a, b| a >> 16 == b >> 16) {
            let oport = (run[0] >> 16) as usize;
            let port = &self.ports[oport];
            let pout = port.pout.expect("route to unwired output port");
            let last = if run.len() == 1 && pout.width == 1 {
                let f = run[0] as u16 as usize;
                self.grant(f, pout, &mut s.quota, &mut seen, ctx)
                    .then_some(f)
            } else {
                let order = rotated(run, port.sa_ptr);
                let mut quota = pout.width;
                let mut last = None;
                'sweeps: loop {
                    let mut progressed = false;
                    for f in order.clone() {
                        if self.grant(f, pout, &mut s.quota, &mut seen, ctx) {
                            last = Some(f);
                            progressed = true;
                            quota -= 1;
                            if quota == 0 {
                                break 'sweeps;
                            }
                        }
                    }
                    if !progressed {
                        break;
                    }
                }
                last
            };
            if let Some(f) = last {
                self.ports[oport].sa_ptr = self.after(f);
            }
        }
        s.clear_candidates();
    }

    /// Send one flit from candidate input VC `f` over `pout` if it still
    /// may: its input port has quota left, and it holds its output VC,
    /// which has a credit, with a flit buffered. A tail sent earlier in the
    /// step clears the VC's route and grant, and its next packet must pass
    /// RC and VA again before it competes. An input port's quota enters
    /// `quota` when one of its VCs first competes in the step (`seen`).
    #[inline]
    fn grant(
        &mut self,
        f: usize,
        pout: PortOut,
        quota: &mut [u16],
        seen: &mut u64,
        ctx: &mut CycleCtx<'_>,
    ) -> bool {
        let in_port = f >> self.shift;
        if *seen & (1 << in_port) == 0 {
            *seen |= 1 << in_port;
            quota[in_port] = self.ports[in_port].quota;
        }
        let iu = &self.inputs[f];
        let Some(rc) = iu.route else {
            return false;
        };
        if quota[in_port] == 0
            || !iu.granted
            || iu.len == 0
            || self.outputs[self.flat(rc.out_port, rc.out_vc)].credits == 0
        {
            return false;
        }
        self.send_one(f, rc, pout, ctx);
        quota[in_port] -= 1;
        true
    }

    /// Move one flit from input VC `f` onto the output port `rc` names.
    fn send_one(&mut self, f: usize, rc: RouteChoice, pout: PortOut, ctx: &mut CycleCtx<'_>) {
        let (in_port, in_vc) = self.port_vc(f);
        assert!(
            !pout.dead,
            "routing oracle sent a flit over dead channel {} (router {}, out port {}, dst {})",
            pout.ch,
            self.id,
            rc.out_port,
            self.inputs[f].front(ctx.pool).dst
        );
        let s = self.inputs[f].unlink(ctx.pool);
        let tail = ctx.pool.flit(s).kind.is_tail();
        if self.inputs[f].len == 0 {
            let p = &mut self.ports[in_port];
            p.occ &= !(1 << in_vc);
            if p.occ == 0 {
                self.occ_ports &= !(1 << in_port);
            }
        }
        self.buffered -= 1;
        *ctx.moved += 1;
        let ovc_flat = self.flat(rc.out_port, rc.out_vc);
        self.outputs[ovc_flat].credits -= 1;

        // Metrics: hop accounting during the measurement window.
        if ctx.measuring {
            ctx.metrics.class_hops.record(pout.class);
            if !ctx.metrics.flits_per_channel.is_empty() {
                ctx.metrics.flits_per_channel[pout.ch as usize] += 1;
            }
        }
        // Telemetry: every traversal counts toward the channel's window
        // (not just measured ones — utilization is a physical quantity).
        if let Some(t) = ctx.trace.as_deref_mut() {
            t.link(pout.ch);
        }

        // Credit back upstream for the freed buffer slot.
        let pin = self.ports[in_port]
            .pin
            .expect("flit came from a wired input");
        let credit_arrive = ctx.now + pin.credit_latency as u64;
        match pin.credit_to {
            CreditTarget::Local(to) => ctx
                .wheel
                .push(credit_arrive, Delivery::credit(to, in_vc as u8)),
            CreditTarget::Remote { slot, ch } => ctx.emit(
                slot,
                Msg::Credit {
                    ch,
                    arrive: credit_arrive,
                    vc: in_vc as u8,
                },
            ),
        }

        // Deliver the flit downstream (or eject).
        let arrive = ctx.now + pout.latency as u64;
        if pout.is_ejection {
            // Ejection is final: record, free in-flight and the slot,
            // return the downstream credit immediately (the endpoint sink
            // is always ready; bandwidth is already bounded by SA width).
            eject(*ctx.pool.flit(s), arrive, ctx);
            ctx.pool.free(s);
            self.outputs[ovc_flat].credits += 1;
        } else {
            let vc = rc.out_vc;
            match pout.flit_to {
                // The slot moves with the flit: the receiver links it.
                FlitTarget::Local(to) => ctx.wheel.push(arrive, Delivery::flit(s, to, vc)),
                // The flit leaves this partition's pool by value.
                FlitTarget::Remote { slot, ch } => {
                    let flit = *ctx.pool.flit(s);
                    ctx.pool.free(s);
                    ctx.emit(
                        slot,
                        Msg::Flit {
                            ch,
                            arrive,
                            vc,
                            flit,
                        },
                    );
                }
            }
        }

        // Tail: release the output VC and the input VC's packet state.
        if tail {
            self.outputs[ovc_flat].owner = None;
            self.inputs[f].route = None;
            self.inputs[f].granted = false;
        }
    }
}

/// Record an ejected flit: throughput always, latency for measured packets.
fn eject(flit: Flit, arrive: u64, ctx: &mut CycleCtx<'_>) {
    *ctx.in_flight -= 1;
    let in_window = arrive >= ctx.measure_start && arrive < ctx.measure_end;
    if in_window {
        ctx.metrics.flits_ejected_measured += 1;
        if !ctx.metrics.ejected_per_endpoint.is_empty() {
            ctx.metrics.ejected_per_endpoint[flit.dst as usize] += 1;
        }
    }
    if flit.kind.is_tail() {
        let created = flit.created;
        if created >= ctx.measure_start && created < ctx.measure_end {
            let lat = arrive - created;
            ctx.metrics.packets_ejected += 1;
            ctx.metrics.latency_sum += lat;
            ctx.metrics.latency_max = ctx.metrics.latency_max.max(lat);
            ctx.metrics.latency_hist.record(lat);
            // Telemetry: gated exactly like the report's latency stats so
            // the trace stream reconciles with the summary aggregates.
            if let Some(t) = ctx.trace.as_deref_mut() {
                t.latency(flit.dst, lat);
            }
        }
        if ctx.collect_arrivals {
            ctx.arrivals.push(Arrival {
                arrive,
                id: flit.id,
                dst: flit.dst,
                flits: flit.len,
            });
        }
    }
}

// --- Endpoint --------------------------------------------------------------

/// Packets an open-loop endpoint must have emitted by the end of cycle `t`
/// at `q` packets/cycle: `floor((t + 1) · q)`. Shared by generation and
/// the engine's next-emission scheduling so the two can never disagree.
#[inline]
fn emission_target(t: u64, q: f64) -> u64 {
    ((t + 1) as f64 * q) as u64
}

/// Runtime state of one endpoint: open-loop source + sink.
#[derive(Debug, Clone)]
pub struct EndpointRt {
    /// Global endpoint id.
    pub id: u32,
    /// Packets waiting to be serialized into the network.
    queue: VecDeque<PacketHeader>,
    /// Next flit sequence number of the packet at the queue front.
    send_seq: u8,
    /// VC chosen for the packet at the queue front (set when its head goes).
    send_vc: u8,
    /// Credits per VC of the injection channel (downstream input buffer).
    credits: Vec<u16>,
    /// Global channel id of the injection channel (statistics).
    inj_ch: u32,
    /// Where the injection channel delivers flits.
    inj_to: FlitTarget,
    /// Injection channel latency/width.
    inj_latency: u32,
    inj_width: u8,
    /// Persistent stream for closed-loop submission tagging (submissions
    /// happen in identical order under dense and event-driven stepping,
    /// so the stream positions stay identical too).
    rng: SplitMix64,
    /// Global seed, kept for the per-cycle keyed open-loop streams
    /// ([`SplitMix64::for_event`]).
    seed: u64,
    /// Monotone packet id: endpoint id from bit 20 up, sequence below.
    next_pkt: u64,
    /// Open-loop packets emitted so far. The closed-form schedule pins
    /// this to `floor((now + 1) · rate / packet_len)` at the end of every
    /// cycle — a pure function of the cycle, independent of whether idle
    /// cycles were stepped or fast-forwarded.
    emitted: u64,
    /// True if the injection channel is faulted (attach router dead): any
    /// injection attempt is a hard assert.
    inj_dead: bool,
    /// `buffer_flits`: the most credits an injection VC holds.
    depth: u16,
}

impl EndpointRt {
    /// Create an endpoint; wiring indices are attached by the compiler.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: u32,
        vcs: u8,
        buffer_flits: u16,
        inj_ch: u32,
        inj_to: FlitTarget,
        inj_latency: u32,
        inj_width: u8,
        seed: u64,
        inj_dead: bool,
    ) -> Self {
        EndpointRt {
            id,
            queue: VecDeque::new(),
            send_seq: 0,
            send_vc: 0,
            credits: vec![buffer_flits; vcs as usize],
            inj_ch,
            inj_to,
            inj_latency,
            inj_width,
            rng: SplitMix64::for_agent(seed, 0xE9D0 ^ ((id as u64) << 1 | 1)),
            seed,
            next_pkt: (id as u64) << 20,
            emitted: 0,
            inj_dead,
            depth: buffer_flits,
        }
    }

    /// Packets waiting in the source queue (backpressure indicator).
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Enqueue a fully formed packet into the source queue (closed-loop
    /// injection: the engine's [`crate::engine::Injector`] calls this
    /// between cycles). The packet serializes into the network through the
    /// same credit-limited [`inject_flits`](Self::inject_flits) path as
    /// open-loop traffic — as fast as backpressure allows, no faster.
    pub(crate) fn push_packet(&mut self, pkt: PacketHeader) {
        debug_assert_ne!(pkt.src, pkt.dst, "closed-loop self-traffic");
        self.queue.push_back(pkt);
    }

    /// One cycle: generate new packets, inject flits. (Ejection is final
    /// at the router: see `RouterRt::send_one`.)
    ///
    /// Generic over oracle and pattern for the same monomorphization
    /// reason as [`RouterRt::cycle`].
    pub fn cycle<O: RouteOracle + ?Sized, P: TrafficPattern + ?Sized>(
        &mut self,
        ctx: &mut CycleCtx<'_>,
        oracle: &O,
        pattern: &P,
        packet_len: u8,
    ) {
        if ctx.injecting {
            self.generate(ctx, oracle, pattern, packet_len);
        }
        self.inject_flits(ctx, oracle);
    }

    /// Open-loop generation, closed form: by the end of cycle `t` exactly
    /// `floor((t + 1) · rate / len)` whole packets have been emitted, so
    /// the emission count — and timing — is a pure function of the cycle
    /// number, reproducing the mean rate exactly while staying identical
    /// whether the engine stepped every cycle or fast-forwarded over idle
    /// stretches. All stochastic draws of a cycle (destination, oracle
    /// tag) come from a stream keyed on `(seed, endpoint, cycle)`
    /// ([`SplitMix64::for_event`]), never from draw history — the
    /// determinism contract event-driven stepping relies on.
    fn generate<O: RouteOracle + ?Sized, P: TrafficPattern + ?Sized>(
        &mut self,
        ctx: &mut CycleCtx<'_>,
        oracle: &O,
        pattern: &P,
        packet_len: u8,
    ) {
        let rate = pattern.rate(self.id);
        if rate <= 0.0 {
            return;
        }
        let target = emission_target(ctx.now, rate / packet_len as f64);
        if target <= self.emitted {
            return;
        }
        let mut rng = SplitMix64::for_event(self.seed, self.gen_stream_id(), ctx.now);
        while self.emitted < target {
            self.emitted += 1;
            let seq = self.next_pkt & 0xF_FFFF;
            let Some(dst) = pattern.dest(self.id, seq, &mut rng) else {
                continue;
            };
            debug_assert_ne!(dst, self.id, "pattern produced self-traffic");
            let mut pkt = PacketHeader {
                id: self.next_pkt,
                src: self.id,
                dst,
                inter_w: crate::flit::NO_INTERMEDIATE,
                created: ctx.now,
                len: packet_len,
            };
            self.next_pkt += 1;
            oracle.tag_packet(&mut pkt, &mut rng);
            if ctx.measuring {
                ctx.metrics.packets_created += 1;
            }
            self.queue.push_back(pkt);
        }
    }

    /// True with nothing queued. Unless an open-loop emission is due
    /// (which the engine tracks in its emission schedule), this cycle's
    /// [`cycle`](Self::cycle) would be a strict no-op: no state change, no
    /// RNG draw. An endpoint clears its pending-work bit after a step that
    /// leaves it idle.
    #[inline]
    pub(crate) fn idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Stream id of the per-cycle keyed generation RNG (distinct from the
    /// persistent closed-loop stream's agent id).
    #[inline]
    fn gen_stream_id(&self) -> u64 {
        0xE9D0 ^ ((self.id as u64) << 1 | 1)
    }

    /// First cycle ≥ `from` at which this endpoint's open-loop schedule
    /// emits a packet, or `u64::MAX` if it never does — the engine's
    /// per-endpoint emission schedule.
    pub(crate) fn next_gen_cycle<P: TrafficPattern + ?Sized>(
        &self,
        pattern: &P,
        packet_len: u8,
        from: u64,
    ) -> u64 {
        let rate = pattern.rate(self.id);
        if rate <= 0.0 {
            return u64::MAX;
        }
        let q = rate / packet_len as f64;
        // target(t) first exceeds `emitted` near t ≈ (emitted + 1)/q − 1;
        // the float guess can be off by a few ulps in either direction, so
        // start slightly below it and settle with two exact walks.
        let guess = (self.emitted + 1) as f64 / q - 1.0;
        if guess >= u64::MAX as f64 {
            return u64::MAX;
        }
        let mut t = from.max((guess as u64).saturating_sub(3));
        while t > from && emission_target(t - 1, q) > self.emitted {
            t -= 1;
        }
        while emission_target(t, q) <= self.emitted {
            t += 1;
        }
        t
    }

    /// Serialize queued packets into the injection channel, up to
    /// `inj_width` flits/cycle, respecting downstream credits.
    fn inject_flits<O: RouteOracle + ?Sized>(&mut self, ctx: &mut CycleCtx<'_>, oracle: &O) {
        let mut budget = self.inj_width;
        while budget > 0 {
            let Some(&pkt) = self.queue.front() else {
                break;
            };
            assert!(
                !self.inj_dead,
                "endpoint {} injecting over a dead channel (attach router faulted); \
                 the workload must exclude dead endpoints",
                self.id
            );
            if self.send_seq == 0 {
                // Head flit: the routing policy fixes the VC for the packet.
                self.send_vc = oracle.initial_vc(&pkt);
            }
            let vc = self.send_vc;
            if self.credits[vc as usize] == 0 {
                break;
            }
            self.credits[vc as usize] -= 1;
            let flit = Flit::new(pkt, self.send_seq);
            let arrive = ctx.now + self.inj_latency as u64;
            match self.inj_to {
                FlitTarget::Local(to) => {
                    let slot = ctx.pool.alloc(flit);
                    ctx.wheel.push(arrive, Delivery::flit(slot, to, vc));
                }
                FlitTarget::Remote { slot, ch } => ctx.emit(
                    slot,
                    Msg::Flit {
                        ch,
                        arrive,
                        vc,
                        flit,
                    },
                ),
            }
            *ctx.in_flight += 1;
            *ctx.moved += 1;
            if ctx.measuring {
                ctx.metrics.flits_injected_measured += 1;
                if !ctx.metrics.flits_per_channel.is_empty() {
                    ctx.metrics.flits_per_channel[self.inj_ch as usize] += 1;
                }
            }
            // Telemetry mirror of the router-side traversal count: the
            // injection channel's only sender is this endpoint.
            if let Some(t) = ctx.trace.as_deref_mut() {
                t.link(self.inj_ch);
            }
            budget -= 1;
            self.send_seq += 1;
            if self.send_seq == pkt.len {
                self.queue.pop_front();
                self.send_seq = 0;
            }
        }
    }

    /// Return one credit to injection VC `vc`.
    ///
    /// # Panics
    /// If that VC already holds `buffer_flits` credits.
    #[inline]
    pub(crate) fn credit(&mut self, vc: u8) {
        let credits = &mut self.credits[vc as usize];
        assert!(
            *credits < self.depth,
            "credit overflow: endpoint {} injection VC {vc} already holds {} credits",
            self.id,
            self.depth
        );
        *credits += 1;
    }

    /// The persistent stream `Injector::submit` tags closed-loop packets
    /// with (Valiant intermediate groups and the like).
    pub(crate) fn rng_mut(&mut self) -> &mut SplitMix64 {
        &mut self.rng
    }

    /// Debug builds: injection credits held for `vc`.
    #[cfg(debug_assertions)]
    pub(crate) fn inj_credits(&self, vc: u8) -> u16 {
        self.credits[vc as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::NO_INTERMEDIATE;

    fn mk_flit(id: u64) -> Flit {
        let pkt = PacketHeader {
            id,
            src: 0,
            dst: 1,
            inter_w: NO_INTERMEDIATE,
            created: 0,
            len: 1,
        };
        Flit::new(pkt, 0)
    }

    /// The flits of input VC `iv`, front to back, by walking its FIFO.
    fn fifo_ids(iv: &InputVc, pool: &FlitPool) -> Vec<u64> {
        let mut ids = Vec::new();
        let mut s = iv.head;
        for _ in 0..iv.len {
            ids.push(pool.flit(s).id);
            s = pool.slots[s as usize].next;
        }
        assert_eq!(s, NIL, "FIFO runs past its length");
        ids
    }

    #[test]
    fn flit_pool_matches_one_vecdeque_per_input_vc() {
        const VCS: usize = 80;
        let mut rng = SplitMix64::new(0xF1_17);
        let mut pool = FlitPool::default();
        let mut inputs = vec![InputVc::EMPTY; VCS];
        let mut model: Vec<VecDeque<u64>> = vec![VecDeque::new(); VCS];
        // Allocated slots outside every FIFO, as wheel events hold them.
        let mut loose: Vec<u32> = Vec::new();
        let (mut next_id, mut peak, mut last_freed) = (0u64, 0usize, None);
        for _ in 0..50_000 {
            let v = (rng.next_u64() % VCS as u64) as usize;
            match rng.next_u64() % 4 {
                0 => {
                    let s = pool.alloc(mk_flit(next_id));
                    if let Some(f) = last_freed.take() {
                        assert_eq!(s, f, "the last slot freed is the next allocated");
                    }
                    assert_eq!(pool.flit(s).id, next_id);
                    next_id += 1;
                    loose.push(s);
                }
                1 if !loose.is_empty() => {
                    let s = loose.swap_remove((rng.next_u64() % loose.len() as u64) as usize);
                    model[v].push_back(pool.flit(s).id);
                    inputs[v].link(&mut pool, s);
                }
                2 if !model[v].is_empty() => {
                    assert_eq!(inputs[v].front(&pool).id, model[v][0]);
                    let s = inputs[v].unlink(&pool);
                    assert_eq!(Some(pool.flit(s).id), model[v].pop_front());
                    loose.push(s);
                }
                3 if !loose.is_empty() => {
                    let s = loose.swap_remove((rng.next_u64() % loose.len() as u64) as usize);
                    pool.free(s);
                    last_freed = Some(s);
                }
                _ => continue,
            }
            assert_eq!(inputs[v].len as usize, model[v].len());
            assert!(fifo_ids(&inputs[v], &pool).iter().eq(model[v].iter()));
            if !model[v].is_empty() {
                assert_eq!(pool.flit(inputs[v].tail).id, *model[v].back().unwrap());
            }
            let live = loose.len() + model.iter().map(VecDeque::len).sum::<usize>();
            peak = peak.max(live);
            assert_eq!(
                pool.slots.len(),
                peak,
                "slots grow only to the peak live count"
            );
        }
        for (iv, want) in inputs.iter().zip(&model) {
            assert!(fifo_ids(iv, &pool).iter().eq(want.iter()));
        }
        assert!(peak > VCS, "the mix never filled the VCs (peak {peak})");
    }

    /// Input-VC counts to test the rotation rules at: one word and less,
    /// a word boundary either side, and the 256-VC and largest routers.
    const SIZES: [usize; 6] = [1, 63, 64, 65, 256, 4096];

    /// Pointers at both ends of `0..n` and at every word edge inside it.
    fn pointers(n: usize) -> Vec<usize> {
        let mut ptrs = vec![0, n - 1];
        for edge in (64..n).step_by(64) {
            ptrs.extend([edge - 1, edge]);
        }
        ptrs
    }

    /// SplitMix64-random masks over `n` bits: empty, full, and densities
    /// 1/2, 1/4 and 1/8.
    fn masks(n: usize, rng: &mut SplitMix64) -> Vec<Vec<u64>> {
        let words = n.div_ceil(64);
        let valid = |w: usize| {
            let bits = (n - w * 64).min(64);
            if bits == 64 {
                !0
            } else {
                (1u64 << bits) - 1
            }
        };
        let mut out = vec![vec![0; words], (0..words).map(valid).collect()];
        for ands in 0..3 {
            out.push(
                (0..words)
                    .map(|w| {
                        let mut x = rng.next_u64();
                        for _ in 0..ands {
                            x &= rng.next_u64();
                        }
                        x & valid(w)
                    })
                    .collect(),
            );
        }
        out
    }

    fn set_bits(mask: &[u64]) -> Vec<usize> {
        (0..mask.len() * 64)
            .filter(|&i| mask[i / 64] >> (i % 64) & 1 == 1)
            .collect()
    }

    #[test]
    fn rotated_ones_matches_the_sorted_rotation() {
        let mut rng = SplitMix64::new(0x5A);
        for n in SIZES {
            for mask in masks(n, &mut rng) {
                for ptr in pointers(n) {
                    let mut want = set_bits(&mask);
                    want.sort_unstable_by_key(|&f| (f + n - ptr) % n);
                    let got: Vec<usize> = RotatedOnes::new(&mask, ptr).collect();
                    assert_eq!(got, want, "n {n}, ptr {ptr}");
                }
            }
        }
    }

    #[test]
    fn candidate_runs_match_the_sorted_rotation() {
        let mut rng = SplitMix64::new(0xC4);
        for n in SIZES {
            for mask in masks(n, &mut rng) {
                // Each candidate on one of up to 64 output ports, listed in
                // a random order, as VA winners join after the walk's.
                let ports = 1 + rng.next_u64() % MAX_PORTS as u64;
                let mut cands: Vec<u32> = set_bits(&mask)
                    .into_iter()
                    .map(|f| ((rng.next_u64() % ports) as u32) << 16 | f as u32)
                    .collect();
                for i in (1..cands.len()).rev() {
                    cands.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
                }
                insertion_sort(&mut cands);
                assert!(cands.windows(2).all(|w| w[0] < w[1]), "n {n}: unsorted");
                for run in cands.chunk_by(|a, b| a >> 16 == b >> 16) {
                    let port = run[0] >> 16;
                    let ids: Vec<usize> = cands
                        .iter()
                        .filter(|&&c| c >> 16 == port)
                        .map(|&c| c as u16 as usize)
                        .collect();
                    assert_eq!(ids.len(), run.len(), "n {n}: port {port} split");
                    for ptr in pointers(n) {
                        let mut want = ids.clone();
                        want.sort_unstable_by_key(|&f| (f + n - ptr) % n);
                        let got: Vec<usize> = rotated(run, ptr as u16).collect();
                        assert_eq!(got, want, "n {n}, port {port}, ptr {ptr}");
                    }
                }
            }
        }
    }

    #[test]
    fn flat_ids_are_monotone_and_decode_by_shift() {
        for vcs in 1..=64u8 {
            let r = RouterRt::new(0, MAX_PORTS as u8, vcs, 1, 1, 1);
            let stride = 1 << r.shift;
            assert!(
                (vcs as usize..2 * vcs as usize).contains(&stride),
                "vcs {vcs}: stride {stride}"
            );
            assert_eq!(r.inputs.len(), MAX_PORTS * stride);
            let mut prev = None;
            for id in 0..MAX_PORTS * vcs as usize {
                let (port, vc) = (id / vcs as usize, id % vcs as usize);
                let f = r.flat(port as u8, vc as u8);
                assert_eq!(r.port_vc(f), (port, vc), "vcs {vcs}, id {id}");
                assert!(
                    prev.is_none_or(|p| p < f),
                    "vcs {vcs}: flat id {f} of id {id} breaks (port, vc) order"
                );
                prev = Some(f);
            }
            assert!(prev.is_some_and(|f| f < r.inputs.len()));
        }
    }

    #[test]
    fn va_slot_matches_the_rotated_minimum() {
        let mut rng = SplitMix64::new(0xA5);
        for n in SIZES {
            for mask in masks(n, &mut rng) {
                let requesters = set_bits(&mask);
                for ptr in pointers(n) {
                    let mut slot = VaSlot::EMPTY;
                    for (i, &f) in requesters.iter().enumerate() {
                        assert_eq!(slot.offer(f as u16, ptr as u16), i == 0);
                    }
                    let want = requesters.iter().min_by_key(|&&f| (f + n - ptr) % n);
                    match want {
                        Some(&w) => assert_eq!(slot.winner() as usize, w, "n {n}, ptr {ptr}"),
                        None => assert_eq!(slot, VaSlot::EMPTY),
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "flit overflow: router 3 port 1 VC 1 already buffers 2 flits")]
    fn a_flit_past_the_buffer_depth_panics() {
        let mut r = RouterRt::new(3, 2, 2, 2, 1, 1);
        let mut pool = FlitPool::default();
        for id in 0..3 {
            let s = pool.alloc(mk_flit(id));
            r.accept(&mut pool, 1, 1, s);
            assert_eq!(r.buffered(), id as u32 + 1);
        }
    }

    #[test]
    #[should_panic(expected = "credit overflow: router 3 port 0 VC 1 already holds 2 credits")]
    fn a_credit_past_the_buffer_depth_panics() {
        let mut r = RouterRt::new(3, 2, 2, 2, 1, 1);
        r.credit(0, 1);
    }

    #[test]
    #[should_panic(expected = "credit overflow: endpoint 5 injection VC 0 already holds 4 credits")]
    fn an_injection_credit_past_the_buffer_depth_panics() {
        let to = FlitTarget::Local(End { agent: 0, port: 0 });
        let mut e = EndpointRt::new(5, 2, 4, 0, to, 1, 1, 1, false);
        e.credit(0);
    }

    #[test]
    fn router_new_has_full_credits() {
        let r = RouterRt::new(0, 4, 2, 32, 1, 1);
        assert!(r
            .outputs
            .iter()
            .all(|o| o.credits == 32 && o.owner.is_none()));
        assert_eq!(r.inputs.len(), 8);
        assert_eq!(r.buffered(), 0);
    }
}
