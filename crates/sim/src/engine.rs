//! Simulation engine: network compilation, the cycle loop, and the BSP
//! parallel scheme.
//!
//! Routers are split into `partitions` — by default contiguous id blocks,
//! or any explicit router→partition assignment via
//! [`SimConfig::partition_map`] (e.g. `wsdf_topo::locality_partition`,
//! which minimizes cut channels) — executed on the persistent [`BspPool`]
//! executor (`wsdf-exec`). Every cycle is one [`BspPool::broadcast`] — a
//! release/collect round trip on the pool's reusable two-phase barrier,
//! *not* a thread spawn/join. Each pool slot owns a fixed contiguous range
//! of partitions for the whole run (weight-balanced over routers +
//! endpoints at compile time), so the same OS thread touches the same
//! router and wheel state every cycle: cache and NUMA affinity come from
//! the mapping, no `sched_setaffinity` needed.
//!
//! Inside a broadcast, each partition:
//!
//! 1. **Delivers** last cycle's cross-partition messages: it drains the
//!    *read* mailbox of every in-edge of the partition adjacency graph
//!    onto its delivery wheel.
//! 2. **Advances** one cycle: it drains the wheel's events due now, then
//!    steps its endpoints and routers. Flits/credits crossing into
//!    another partition are appended to the *write* mailbox of the
//!    corresponding out-edge.
//!
//! Cross-partition exchange is **sparse**: the partition adjacency graph
//! is computed at network-compile time (one directed edge per adjacent
//! (src, dst) partition pair that shares a live channel), and the
//! double-buffered mailboxes (the private `Exchange`) hold exactly one
//! cell per edge — not a dense P×P grid. A partition physically borders
//! only a handful of others on a mesh or wafer, so barriers touch O(E)
//! cells, not O(P²). Out-edges are written by their source partition,
//! in-edges drained by their destination partition (disjoint, so the
//! whole exchange runs inside the parallel section without locks), and
//! the two buffers swap in O(1) between cycles. Per-edge written/drained
//! counters make the exchange auditable ([`Simulation::exchange_edges`]).
//!
//! Because every channel has latency ≥ 1, nothing produced in cycle *t* can
//! be consumed before *t+1*, so partitions never observe each other's
//! in-cycle state, and the executor never re-splits or re-orders work:
//! results are bit-identical for any partition count *and* any worker
//! count (see the determinism matrix in `tests/determinism_and_vcs.rs`).
//!
//! ## Monomorphized hot path
//!
//! [`Simulation`] is generic over its [`RouteOracle`], so the per-flit
//! route computation compiles to direct calls — no vtable dispatch in the
//! cycle loop. Callers that only know the oracle at runtime dispatch on
//! it once and enter with the concrete type (see [`simulate_traced_on`]
//! and `wsdf::Bench`), or build a `Simulation<&dyn RouteOracle>`: the
//! blanket `impl RouteOracle for &T` makes both share one implementation.
//!
//! ## One cycle loop
//!
//! Open-loop ([`Simulation::run_on`]) and closed-loop
//! ([`Simulation::run_closed_loop_on`]) runs share one private loop: an
//! open-loop run is a closed-loop run whose driver injects nothing and is
//! always done, with a measurement window and a hard stop. Stepping, the
//! storm regime, the arrival hand-off, the quiescence exit, the deadlock
//! watchdog and the idle fast-forward therefore exist once.
//!
//! ## Pending-work bitmaps
//!
//! The bitmaps (`router::Pending`) are the one record of which agents have
//! work: one bit per local router (a buffered flit) and per local endpoint
//! (a queued packet). A flit the wheel delivers marks its router, a
//! closed-loop submission marks its endpoint, and an agent clears its bit
//! after a step that leaves it idle.
//!
//! Every executed cycle — event-driven, storm or dense — drains the
//! wheel's events due now, marks the endpoints whose open-loop emission is
//! due, then steps the endpoints and then the routers whose bit is set, in
//! ascending order. Any other agent's step would be a strict no-op.
//! Between cycles the same bits give the next-event cycle for the idle
//! fast-forward: a partition with a bit set is due now, any other at the
//! earliest of its first non-empty wheel bucket, its earliest undelivered
//! outbound message and its next open-loop emission. Debug builds assert
//! that every bit is exact at every storm exit and at both run exits.
//!
//! ## One delivery wheel and one flit store per partition
//!
//! Every flit and credit in flight to a partition's agents is an event on
//! its delivery wheel (`channel::Wheel`): `W` buckets, `W` the power of two
//! above the longest channel latency, with bucket `due & (W − 1)` holding
//! the events due at `due` in push order. A partition-local send appends
//! its flit and its credit. A cross-partition message is appended when it
//! is delivered, before the cycle's drain, since a latency-1 message is
//! due the cycle it arrives. Each executed cycle drains its bucket after
//! the telemetry queue-depth sample and before any agent steps: flits link
//! into their input VCs and count as moved, credits go back to output VCs
//! or endpoints. The flits of one input VC come over one channel, so they
//! join it in send order. A flit joining an input VC that already buffers
//! `buffer_flits` flits, or a credit returning to a VC that already holds
//! `buffer_flits` credits, panics in every build.
//!
//! The flits on a partition's wheel and in its router buffers sit in its
//! flit pool (`router::FlitPool`): input VCs are FIFOs of pool slots, and
//! a flit event carries a slot index. Storage grows only at a new peak: a
//! bucket grows like any `Vec`, the pool adds a slot when its free list is
//! empty, and neither ever shrinks. Once a run has seen its peak
//! occupancy, stepping allocates nothing.

use crate::channel::{Delivery, End, Terminus, Wheel, EP_PORT};
use crate::config::SimConfig;
use crate::fault::FaultMap;
use crate::flit::{PacketHeader, NO_INTERMEDIATE};
use crate::metrics::Metrics;
use crate::network::NetworkDesc;
use crate::oracle::RouteOracle;
use crate::pattern::TrafficPattern;
use crate::router::{
    clear_bit, AllocScratch, Arrival, CreditTarget, CycleCtx, EndpointRt, FlitPool, FlitTarget,
    Msg, Ones, Pending, PortIn, PortOut, RouterRt, NIL,
};
use crate::telemetry::{self, PartTrace, TraceRec, Tracer};
use wsdf_exec::BspPool;

/// Engine errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The network or configuration failed validation.
    Invalid(String),
    /// The deadlock watchdog fired: no flit moved for the configured window
    /// while flits were in flight or the workload driver named no future
    /// release.
    Deadlock {
        /// Cycle at which the watchdog gave up.
        cycle: u64,
        /// Flits stuck in the network.
        in_flight: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Invalid(m) => write!(f, "invalid simulation input: {m}"),
            SimError::Deadlock { cycle, in_flight } => write!(
                f,
                "deadlock detected at cycle {cycle}: {in_flight} flits stuck"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Result alias for engine operations.
pub type SimResult<T> = Result<T, SimError>;

/// One BSP partition: the routers one partition id names in the
/// router→partition assignment, their endpoints, and the wheel of the
/// flits and credits in flight to them. The cross-partition mailboxes
/// live outside the partition, in the sparse `Exchange`, so the exchange
/// can run in parallel.
struct Partition {
    routers: Vec<RouterRt>,
    endpoints: Vec<EndpointRt>,
    /// The flits and credits in flight to these agents, by due cycle.
    wheel: Wheel,
    /// The flits buffered in these routers or riding this wheel.
    pool: FlitPool,
    metrics: Metrics,
    moved: u64,
    in_flight: i64,
    /// Packet-arrival events of this cycle (closed-loop runs only; stays
    /// empty — and unallocated — in open-loop runs).
    arrivals: Vec<Arrival>,
    /// Which local agents have work (see [`Pending`]).
    pend: Pending,
    /// Allocator scratch shared by this partition's routers.
    alloc: AllocScratch,
    /// Next open-loop emission cycle per local endpoint (`u64::MAX` if its
    /// schedule never fires), and the minimum over them.
    next_gen: Vec<u64>,
    gen_min: u64,
    /// Earliest arrival cycle among the cross-partition messages this
    /// partition emitted on its latest advance (`u64::MAX` if none). After
    /// the barrier those messages sit undelivered in the read mailboxes,
    /// on no wheel yet, so this bounds the idle fast-forward.
    out_min: u64,
    /// Opt-in telemetry state ([`Simulation::attach_trace`]); `None`
    /// keeps the hot path allocation- and branch-cost-free apart from one
    /// `Option` check per emission site.
    trace: Option<Box<PartTrace>>,
}

impl Partition {
    /// Deliver one source partition's mailbox onto this partition's
    /// wheel. Each delivered flit takes a slot in this partition's pool.
    fn deliver(&mut self, msgs: &mut Vec<Msg>, flit_end: &[(u32, End)], credit_end: &[(u32, End)]) {
        for msg in msgs.drain(..) {
            match msg {
                Msg::Flit {
                    ch,
                    arrive,
                    vc,
                    flit,
                } => {
                    let slot = self.pool.alloc(flit);
                    let to = flit_end[ch as usize].1;
                    self.wheel.push(arrive, Delivery::flit(slot, to, vc));
                }
                Msg::Credit { ch, arrive, vc } => {
                    let to = credit_end[ch as usize].1;
                    self.wheel.push(arrive, Delivery::credit(to, vc));
                }
            }
        }
    }

    /// Debug-build invariant: the pending-work bitmaps are exact. A
    /// router's bit is set iff it buffers a flit, an endpoint's iff it
    /// queues a packet. Both stepping modes read the same bitmaps, so the
    /// dense/event equivalence suites cannot see a missed bit; this check
    /// can. The wheel's bucket bitmask, and the allocator scratch, which
    /// every router step must leave clear, are swept here as well.
    #[cfg(debug_assertions)]
    fn assert_pending_bitmaps(&self) {
        use crate::router::set_bit;
        self.alloc.assert_clear();
        self.wheel.assert_busy_exact();
        let pend = &self.pend;
        let mut routers = vec![0u64; pend.routers.len()];
        let mut endpoints = vec![0u64; pend.endpoints.len()];
        for (lr, r) in self.routers.iter().enumerate() {
            if !r.idle() {
                set_bit(&mut routers, lr);
            }
        }
        for (le, e) in self.endpoints.iter().enumerate() {
            if !e.idle() {
                set_bit(&mut endpoints, le);
            }
        }
        assert_eq!(
            pend.routers, routers,
            "router pending bitmap out of step with the routers"
        );
        assert_eq!(
            pend.endpoints, endpoints,
            "endpoint pending bitmap out of step with the endpoints"
        );
    }

    /// Advance one cycle, appending outbound cross-partition messages to
    /// `outboxes` (this partition's row of the write-side mailbox buffer).
    /// Monomorphizes per oracle/pattern.
    ///
    /// Every executed cycle — event, storm or dense — first drains the
    /// wheel's events due now, then walks the pending-work bitmaps:
    /// endpoints, then routers, in ascending order, after marking every
    /// endpoint whose open-loop emission is due. An agent without its bit
    /// set would have been a strict no-op — nothing buffered or queued,
    /// nothing to generate — so every stepping mode executes the identical
    /// sequence of state changes, in the identical order.
    #[allow(clippy::too_many_arguments)]
    fn advance<O: RouteOracle + ?Sized, P: TrafficPattern + ?Sized>(
        &mut self,
        oracle: &O,
        pattern: &P,
        now: u64,
        measure_start: u64,
        measure_end: u64,
        packet_len: u8,
        collect_arrivals: bool,
        outboxes: &mut [Vec<Msg>],
    ) {
        self.moved = 0;
        self.out_min = u64::MAX;
        let Partition {
            routers,
            endpoints,
            wheel,
            pool,
            metrics,
            moved,
            in_flight,
            arrivals,
            pend,
            alloc,
            next_gen,
            gen_min,
            out_min,
            trace,
        } = self;
        // Telemetry cycle entry: flush any completed sampling window and
        // take the boundary queue-depth sample *before* this cycle's state
        // changes, the wheel's deliveries included. Runs for every
        // partition at every executed cycle (even with no agent to step),
        // which is what makes the emitted stream independent of the
        // stepping mode — see `crate::telemetry`.
        let mut trace = trace.as_deref_mut();
        if let Some(t) = trace.as_deref_mut() {
            t.begin_cycle(now, routers);
        }
        // Deliver the flits and credits due now, before any agent steps:
        // an agent reads its own flits and credits only in its own step,
        // so delivering them all first changes nothing a step sees.
        for d in wheel.drain(now) {
            if d.slot != NIL {
                routers[d.agent as usize].accept(pool, d.port, d.vc, d.slot);
                pend.mark_router(d.agent as usize);
                *moved += 1;
            } else if d.port == EP_PORT {
                endpoints[d.agent as usize].credit(d.vc);
            } else {
                routers[d.agent as usize].credit(d.port, d.vc);
            }
        }
        let mut ctx = CycleCtx {
            now,
            wheel,
            outboxes,
            metrics,
            arrivals,
            collect_arrivals,
            moved,
            in_flight,
            measuring: now >= measure_start && now < measure_end,
            injecting: now < measure_end,
            measure_start,
            measure_end,
            out_min,
            trace,
            pool,
        };
        let gen_due = ctx.injecting && *gen_min <= now;
        if gen_due {
            for (e, &ng) in next_gen.iter().enumerate() {
                if ng <= now {
                    pend.mark_endpoint(e);
                }
            }
        }
        // No step sets a bit: what a step sends goes onto a wheel or into
        // a mailbox, due at `now + 1` or later.
        for w in 0..pend.endpoints.len() {
            for b in Ones(pend.endpoints[w]) {
                let e = w * 64 + b;
                let ep = &mut endpoints[e];
                ep.cycle(&mut ctx, oracle, pattern, packet_len);
                if ep.idle() {
                    clear_bit(&mut pend.endpoints, e);
                }
                // Re-arm the emission schedule of an endpoint that fired.
                if gen_due && next_gen[e] <= now {
                    next_gen[e] = ep.next_gen_cycle(pattern, packet_len, now + 1);
                }
            }
        }
        if gen_due {
            *gen_min = next_gen.iter().copied().min().unwrap_or(u64::MAX);
        }
        for w in 0..pend.routers.len() {
            for b in Ones(pend.routers[w]) {
                let lr = w * 64 + b;
                let r = &mut routers[lr];
                r.cycle(&mut ctx, alloc, oracle);
                if r.idle() {
                    clear_bit(&mut pend.routers, lr);
                }
            }
        }
    }

    /// Earliest cycle ≥ `now` at which this partition has work: `now`
    /// while an agent's bit is set (a buffered flit or a queued packet),
    /// else the earliest of its first non-empty wheel bucket, its earliest
    /// undelivered outbound message and, while `gen_live`, its next
    /// open-loop emission. Every wheel event is drained at its due cycle,
    /// so none is due before `now`.
    fn next_event(&self, now: u64, gen_live: bool) -> u64 {
        if self.pend.any() {
            return now;
        }
        let t = self.out_min.min(self.wheel.next_due(now));
        if gen_live {
            t.min(self.gen_min)
        } else {
            t
        }
    }
}

/// Sparse double-buffered cross-partition mailboxes over the partition
/// adjacency graph.
///
/// `edges` holds one directed `(src, dst)` pair per adjacent partition
/// pair, sorted by `(src, dst)` and computed once at network-compile time
/// from the live cross-partition channels: each such channel induces a
/// flit edge (producer partition → consumer partition) and a credit edge
/// in the opposite direction, so the edge set is the symmetric closure of
/// "shares a live boundary channel". Both message buffers hold exactly one
/// cell per edge — there is no dense P×P grid anywhere.
///
/// During cycle *t* every partition *p* drains the read cells of its
/// in-edges (`in_flat[in_start[p]..in_start[p+1]]`, ascending source
/// order) and fills the write cells of its out-edges
/// (`edges[out_start[p]..out_start[p+1]]`, which are contiguous because
/// the edge list is sorted). In- and out-edge sets are disjoint across
/// partitions, so the whole exchange runs inside the parallel section
/// without locks; the buffers swap in O(1) at the barrier — by then the
/// read buffer is fully drained and becomes next cycle's write side.
///
/// `written`/`drained` count lifetime messages per edge; each counter is
/// updated by exactly one partition (the writer for `written`, the
/// drainer for `drained`), making the sparse exchange auditable.
struct Exchange {
    /// Directed adjacency edges, sorted by `(src, dst)`.
    edges: Vec<(u32, u32)>,
    /// Edge-id range of partition `p`'s out-edges: `out_start[p]..out_start[p+1]`.
    out_start: Vec<u32>,
    /// Flattened in-edge ids per destination partition (ascending source).
    in_flat: Vec<u32>,
    /// In-edge range of partition `p`: `in_flat[in_start[p]..in_start[p+1]]`.
    in_start: Vec<u32>,
    read: Vec<Vec<Msg>>,
    write: Vec<Vec<Msg>>,
    written: Vec<u64>,
    drained: Vec<u64>,
}

impl Exchange {
    /// Build the sparse exchange for `nparts` partitions from the directed
    /// adjacency `edges` (deduplicated, any order).
    fn new(nparts: usize, mut edges: Vec<(u32, u32)>) -> Self {
        edges.sort_unstable();
        edges.dedup();
        let ne = edges.len();
        let mut out_start = vec![0u32; nparts + 1];
        for &(src, _) in &edges {
            out_start[src as usize + 1] += 1;
        }
        for p in 0..nparts {
            out_start[p + 1] += out_start[p];
        }
        let mut in_lists: Vec<Vec<u32>> = vec![Vec::new(); nparts];
        for (e, &(_, dst)) in edges.iter().enumerate() {
            // Edge ids ascend in (src, dst) order, so each dst's list comes
            // out in ascending-source order — the deterministic drain order
            // the dense column walk used to impose.
            in_lists[dst as usize].push(e as u32);
        }
        let mut in_start = vec![0u32; nparts + 1];
        let mut in_flat = Vec::with_capacity(ne);
        for (p, list) in in_lists.into_iter().enumerate() {
            in_flat.extend_from_slice(&list);
            in_start[p + 1] = in_flat.len() as u32;
        }
        Exchange {
            edges,
            out_start,
            in_flat,
            in_start,
            read: (0..ne).map(|_| Vec::new()).collect(),
            write: (0..ne).map(|_| Vec::new()).collect(),
            written: vec![0; ne],
            drained: vec![0; ne],
        }
    }

    /// Out-edge slot of `(src, dst)` within `src`'s outbox range, if the
    /// partitions are adjacent.
    fn slot(&self, src: u32, dst: u32) -> Option<u32> {
        let lo = self.out_start[src as usize] as usize;
        let hi = self.out_start[src as usize + 1] as usize;
        self.edges[lo..hi]
            .binary_search(&(src, dst))
            .ok()
            .map(|i| i as u32)
    }

    fn swap(&mut self) {
        std::mem::swap(&mut self.read, &mut self.write);
    }
}

/// Raw shared view of one cycle's mutable state, handed to the pool
/// workers. Soundness rests on the slot→partition mapping: each partition
/// index is processed by exactly one slot per broadcast, and partition `p`
/// touches only `parts[p]`, the read cells + `drained` counters of its
/// in-edges, and the write cells + `written` counters of its out-edges —
/// disjoint edge sets across partitions by construction.
struct CycleShared<'a> {
    parts: *mut Partition,
    read: *mut Vec<Msg>,
    write: *mut Vec<Msg>,
    written: *mut u64,
    drained: *mut u64,
    out_start: &'a [u32],
    in_flat: &'a [u32],
    in_start: &'a [u32],
}

// SAFETY: slots dereference disjoint partitions/edge cells (see above).
unsafe impl Sync for CycleShared<'_> {}

impl CycleShared<'_> {
    /// Deliver + advance partition `p`.
    ///
    /// # Safety
    /// `p` must be a valid partition index, and no other thread may
    /// process `p` concurrently.
    #[allow(clippy::too_many_arguments)]
    unsafe fn run_partition<O: RouteOracle + ?Sized, P: TrafficPattern + ?Sized>(
        &self,
        p: usize,
        oracle: &O,
        pattern: &P,
        now: u64,
        measure_start: u64,
        measure_end: u64,
        flit_end: &[(u32, End)],
        credit_end: &[(u32, End)],
        packet_len: u8,
        collect_arrivals: bool,
    ) {
        let part = &mut *self.parts.add(p);
        // Drain this partition's in-edges in ascending source order (the
        // same deterministic order the dense column walk used to impose —
        // non-adjacent sources never had anything to contribute).
        for &e in &self.in_flat[self.in_start[p] as usize..self.in_start[p + 1] as usize] {
            let cell = &mut *self.read.add(e as usize);
            *self.drained.add(e as usize) += cell.len() as u64;
            part.deliver(cell, flit_end, credit_end);
        }
        // This partition's out-edge cells are its outbox set; emit targets
        // were compiled to slot indices within this range.
        let o0 = self.out_start[p] as usize;
        let o1 = self.out_start[p + 1] as usize;
        let outboxes = std::slice::from_raw_parts_mut(self.write.add(o0), o1 - o0);
        part.advance(
            oracle,
            pattern,
            now,
            measure_start,
            measure_end,
            packet_len,
            collect_arrivals,
            outboxes,
        );
        for (i, ob) in outboxes.iter().enumerate() {
            if !ob.is_empty() {
                *self.written.add(o0 + i) += ob.len() as u64;
            }
        }
    }
}

/// One directed edge of the partition adjacency graph with its lifetime
/// message counters (see [`Simulation::exchange_edges`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangeEdge {
    /// Source partition.
    pub src: u32,
    /// Destination partition.
    pub dst: u32,
    /// Messages (flits + credits) written into this edge's mailbox.
    pub written: u64,
    /// Messages drained out of this edge's mailbox.
    pub drained: u64,
    /// Messages currently sitting undelivered in the read buffer
    /// (`written == drained + pending` always holds between cycles).
    pub pending: u64,
}

/// A compiled, runnable simulation bound to its routing oracle.
///
/// The oracle is a type parameter (owned by value; pass `&MyOracle` thanks
/// to the blanket `impl RouteOracle for &T` to borrow instead), which
/// monomorphizes the entire cycle loop. When the oracle type is only known
/// at runtime, `Simulation<&dyn RouteOracle>` runs the same engine with
/// per-flit virtual dispatch.
pub struct Simulation<O: RouteOracle> {
    cfg: SimConfig,
    oracle: O,
    partitions: Vec<Partition>,
    exch: Exchange,
    /// channel id → its receiving end, with that end's partition: where
    /// the channel's flits are delivered.
    flit_end: Vec<(u32, End)>,
    /// channel id → its sending end, with that end's partition: where the
    /// channel's credits are delivered.
    credit_end: Vec<(u32, End)>,
    /// endpoint id → (owning partition, local endpoint index)
    ep_loc: Vec<(u32, u32)>,
    /// endpoint id → attach router id (canonical arrival ordering).
    ep_router: Vec<u32>,
    now: u64,
    endpoints_total: u64,
    packet_len: u8,
    /// Event-driven stepping enabled (compiled in from the config): idle
    /// stretches may be fast-forwarded.
    event: bool,
    /// Cycles actually simulated / fast-forwarded over (metrics).
    busy_cycles: u64,
    skipped_cycles: u64,
    /// Saturation storm: event stepping has stopped fast-forwarding
    /// (see [`update_regime`](Self::update_regime)).
    storm: bool,
    /// Consecutive saturated cycles observed while not yet in a storm.
    storm_hot: u32,
    /// Total agents (routers + endpoints): the storm-entry threshold base.
    agents: u64,
    /// Telemetry emit handle ([`Simulation::attach_trace`]); `None` = off.
    tracer: Option<Tracer>,
    /// Serial-section scratch: records drained from the partitions at the
    /// barrier, canonicalized and emitted by `emit_trace_batch`.
    trace_batch: Vec<TraceRec>,
}

/// Consecutive cycles with ≥ a quarter of all agents moving flits before
/// the event engine declares a saturation storm and stops fast-forwarding
/// (hysteresis against entering on a single bursty cycle).
const STORM_ENTER: u32 = 4;

/// What distinguishes the two run kinds inside the one cycle loop.
struct Plan {
    /// Measurement window `[start, end)`; open-loop injection stops at
    /// `end`.
    window: (u64, u64),
    /// Hard stop: no cycle at or past it is simulated.
    stop: u64,
    /// Closed loop: collect arrival events and measure every simulated
    /// cycle.
    closed: bool,
}

impl<O: RouteOracle> Simulation<O> {
    /// Compile `net` under `cfg` with `oracle`. Fails on structural errors
    /// or when the oracle needs more VCs than the config provides.
    pub fn new(net: &NetworkDesc, cfg: &SimConfig, oracle: O) -> SimResult<Self> {
        Self::with_faults(net, cfg, oracle, None)
    }

    /// [`Simulation::new`] with an optional [`FaultMap`]: dead channels are
    /// compiled into per-port flags that make any traversal attempt a hard
    /// assert (a fault-aware oracle must route around them), and automatic
    /// partition sizing counts *live* routers only — a heavily degraded
    /// fabric does not get over-partitioned for compute it no longer has.
    pub fn with_faults(
        net: &NetworkDesc,
        cfg: &SimConfig,
        oracle: O,
        faults: Option<&FaultMap>,
    ) -> SimResult<Self> {
        cfg.validate().map_err(SimError::Invalid)?;
        net.validate().map_err(SimError::Invalid)?;
        if let Some(f) = faults {
            f.validate(net).map_err(SimError::Invalid)?;
        }
        if oracle.num_vcs() > cfg.num_vcs {
            return Err(SimError::Invalid(format!(
                "oracle needs {} VCs but config provides {}",
                oracle.num_vcs(),
                cfg.num_vcs
            )));
        }
        let live_routers = faults.map_or(net.num_routers(), |f| f.live_routers());
        let channel_dead = |c: usize| faults.is_some_and(|f| f.channel_dead(c as u32));
        let nr = net.num_routers();

        // Router→partition assignment: an explicit map when provided
        // (locality-aware maps come from `wsdf_topo::locality_partition`),
        // otherwise contiguous id blocks balanced by count. Results are
        // bit-identical for any valid assignment — only barrier traffic
        // and parallel balance change.
        let (nparts, assign): (usize, Vec<u32>) = if let Some(map) = &cfg.partition_map {
            if map.len() != nr {
                return Err(SimError::Invalid(format!(
                    "partition_map covers {} routers but the network has {nr}",
                    map.len()
                )));
            }
            let p = map.iter().copied().max().map_or(0, |m| m as usize + 1);
            if p == 0 || p > nr {
                return Err(SimError::Invalid(format!(
                    "partition_map has {p} partitions for {nr} routers"
                )));
            }
            let mut counts = vec![0usize; p];
            for &q in map.iter() {
                counts[q as usize] += 1;
            }
            if let Some(empty) = counts.iter().position(|&c| c == 0) {
                return Err(SimError::Invalid(format!(
                    "partition_map leaves partition {empty} empty (ids must be dense in 0..P)"
                )));
            }
            (p, map.as_ref().clone())
        } else {
            let p = effective_partitions(
                cfg.partitions,
                live_routers,
                wsdf_exec::configured_threads(),
            );
            (p, (0..nr).map(|r| (r * p / nr.max(1)) as u32).collect())
        };
        let part_of = |r: usize| -> u32 { assign[r] };

        // Endpoints live with their router.
        let router_loc = locate((0..nr).map(part_of), nparts);
        let ep_loc = locate(
            net.endpoints.iter().map(|ed| part_of(ed.router as usize)),
            nparts,
        );
        // Every channel end with its partition: the receiving end takes
        // the channel's flits, the sending end its credits.
        let end_of = |t: Terminus| -> (u32, End) {
            let ((p, agent), port) = match t {
                Terminus::Router { router, port } => (router_loc[router as usize], port),
                Terminus::Endpoint { endpoint } => (ep_loc[endpoint as usize], EP_PORT),
            };
            (p, End { agent, port })
        };
        let flit_end: Vec<(u32, End)> = net.channels.iter().map(|ch| end_of(ch.dst)).collect();
        let credit_end: Vec<(u32, End)> = net.channels.iter().map(|ch| end_of(ch.src)).collect();

        let max_latency = net.channels.iter().map(|ch| ch.latency).max().unwrap_or(1);
        let mut partitions: Vec<Partition> = (0..nparts)
            .map(|_| Partition {
                routers: Vec::new(),
                endpoints: Vec::new(),
                wheel: Wheel::new(max_latency),
                pool: FlitPool::default(),
                metrics: Metrics {
                    ejected_per_endpoint: if cfg.per_endpoint_stats {
                        vec![0; net.num_endpoints()]
                    } else {
                        Vec::new()
                    },
                    flits_per_channel: if cfg.per_channel_stats {
                        vec![0; net.channels.len()]
                    } else {
                        Vec::new()
                    },
                    ..Default::default()
                },
                moved: 0,
                in_flight: 0,
                arrivals: Vec::new(),
                pend: Pending::default(),
                alloc: AllocScratch::default(),
                next_gen: Vec::new(),
                gen_min: u64::MAX,
                out_min: u64::MAX,
                trace: None,
            })
            .collect();

        // Routers.
        for (r, rd) in net.routers.iter().enumerate() {
            let p = part_of(r) as usize;
            partitions[p].routers.push(RouterRt::new(
                r as u32,
                rd.ports,
                cfg.num_vcs,
                cfg.buffer_flits,
                rd.speedup,
                cfg.seed,
            ));
        }

        // Partition adjacency: every live cross-partition channel induces a
        // flit edge (producer partition → consumer partition, i.e. the
        // sending end's partition → the receiving end's) and a credit edge
        // in the opposite direction. Dead channels are skipped, so a
        // `seal`-ed fault map shrinks the graph consistently with the
        // dead-channel traversal asserts.
        let mut adj_edges: Vec<(u32, u32)> = Vec::new();
        for c in 0..net.channels.len() {
            if channel_dead(c) {
                continue;
            }
            let (fp, _) = flit_end[c];
            let (cp, _) = credit_end[c];
            if fp != cp {
                adj_edges.push((cp, fp));
                adj_edges.push((fp, cp));
            }
        }
        let exch = Exchange::new(nparts, adj_edges);
        // Cross-partition message targets compile to the *slot index* of
        // the (emitter, owner) edge within the emitter's outbox range.
        // Dead cross-partition channels have no edge; any traversal
        // attempt hard-asserts on the dead flag before the slot is read.
        let remote_slot = |from: u32, to: u32, dead: bool| -> u32 {
            match exch.slot(from, to) {
                Some(s) => s,
                None => {
                    debug_assert!(dead, "missing adjacency edge {from}->{to} for live channel");
                    u32::MAX
                }
            }
        };

        // Port wiring.
        for (c, ch) in net.channels.iter().enumerate() {
            let (fp, to) = flit_end[c];
            let (cp, from) = credit_end[c];
            // Output side.
            if let Terminus::Router { port, .. } = ch.src {
                let flit_to = if fp == cp {
                    FlitTarget::Local(to)
                } else {
                    FlitTarget::Remote {
                        slot: remote_slot(cp, fp, channel_dead(c)),
                        ch: c as u32,
                    }
                };
                partitions[cp as usize].routers[from.agent as usize].wire_out(
                    port,
                    PortOut {
                        ch: c as u32,
                        flit_to,
                        latency: ch.latency,
                        width: ch.width,
                        class: ch.class,
                        is_ejection: matches!(ch.dst, Terminus::Endpoint { .. }),
                        dead: channel_dead(c),
                    },
                );
            }
            // Input side.
            if let Terminus::Router { port, .. } = ch.dst {
                let credit_to = if cp == fp {
                    CreditTarget::Local(from)
                } else {
                    CreditTarget::Remote {
                        slot: remote_slot(fp, cp, channel_dead(c)),
                        ch: c as u32,
                    }
                };
                partitions[fp as usize].routers[to.agent as usize].wire_in(
                    port,
                    PortIn {
                        credit_to,
                        credit_latency: ch.latency,
                        width: ch.width,
                    },
                );
            }
        }

        // Endpoints: locate their injection channels. (Ejection is final
        // at the router, so nothing on the endpoint side of an ejection
        // channel needs wiring.)
        let mut inj_of = vec![usize::MAX; net.num_endpoints()];
        for (c, ch) in net.channels.iter().enumerate() {
            if let Terminus::Endpoint { endpoint } = ch.src {
                inj_of[endpoint as usize] = c;
            }
        }
        for (e, &(p, _)) in ep_loc.iter().enumerate() {
            let inj = inj_of[e];
            let inj_ch = &net.channels[inj];
            let (ifp, to) = flit_end[inj];
            let inj_to = if ifp == p {
                FlitTarget::Local(to)
            } else {
                FlitTarget::Remote {
                    slot: remote_slot(p, ifp, channel_dead(inj)),
                    ch: inj as u32,
                }
            };
            partitions[p as usize].endpoints.push(EndpointRt::new(
                e as u32,
                cfg.num_vcs,
                cfg.buffer_flits,
                inj as u32,
                inj_to,
                inj_ch.latency,
                inj_ch.width,
                cfg.seed,
                channel_dead(inj),
            ));
        }
        for part in &mut partitions {
            part.pend = Pending::new(part.routers.len(), part.endpoints.len());
            part.alloc = AllocScratch::for_routers(&part.routers);
            part.next_gen = vec![u64::MAX; part.endpoints.len()];
        }

        Ok(Simulation {
            cfg: cfg.clone(),
            oracle,
            exch,
            partitions,
            flit_end,
            credit_end,
            ep_loc,
            ep_router: net.endpoints.iter().map(|ed| ed.router).collect(),
            now: 0,
            endpoints_total: net.num_endpoints() as u64,
            packet_len: cfg.packet_len,
            event: cfg.event_driven,
            busy_cycles: 0,
            skipped_cycles: 0,
            storm: false,
            storm_hot: 0,
            agents: (net.num_routers() + net.num_endpoints()) as u64,
            tracer: None,
            trace_batch: Vec::new(),
        })
    }

    /// Arm streaming telemetry: allocate each partition's [`PartTrace`]
    /// buffers and keep a clone of `tracer` for the barrier drain. Call
    /// before the run; the emitted stream covers the whole schedule.
    ///
    /// Observe-only by construction — partitions record into private
    /// buffers inside the parallel section, the engine drains them in
    /// partition order in the serial barrier section, sorts the batch into
    /// the canonical `(cycle, kind, id)` order, and the tracer appends it
    /// to its JSONL stream. Simulated state never depends on any of it,
    /// and the emitted bytes are identical for every partition count,
    /// worker count, and stepping mode.
    pub fn attach_trace(&mut self, tracer: &Tracer) {
        let cfg = tracer.config();
        let channels = self.flit_end.len();
        let endpoints = self.ep_loc.len();
        for part in &mut self.partitions {
            part.trace = Some(Box::new(PartTrace::new(cfg, channels, endpoints)));
        }
        self.tracer = Some(tracer.clone());
    }

    /// Canonicalize and emit the batch drained since the last emit.
    fn emit_trace_batch(&mut self) {
        if self.trace_batch.is_empty() {
            return;
        }
        telemetry::canonicalize(&mut self.trace_batch);
        if let Some(t) = &self.tracer {
            t.emit(&self.trace_batch);
        }
        self.trace_batch.clear();
    }

    /// End-of-run telemetry: flush each partition's final (possibly
    /// partial) window, drain, and emit.
    fn finish_trace(&mut self) {
        if self.tracer.is_none() {
            return;
        }
        let mut batch = std::mem::take(&mut self.trace_batch);
        for part in &mut self.partitions {
            if let Some(tr) = part.trace.as_deref_mut() {
                tr.finish();
                tr.drain_into(&mut batch);
            }
        }
        self.trace_batch = batch;
        self.emit_trace_batch();
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of BSP partitions this simulation compiled to (auto mode
    /// resolves against *live* routers when a fault map is present).
    pub fn partitions(&self) -> usize {
        self.partitions.len()
    }

    /// The oracle driving this simulation.
    pub fn oracle(&self) -> &O {
        &self.oracle
    }

    /// The partition adjacency graph with per-edge lifetime message
    /// counters: one entry per directed (src, dst) partition pair that
    /// shares a live boundary channel, sorted by (src, dst). Between
    /// cycles `written == drained + pending` holds for every edge, and
    /// messages only ever flow on these edges — the sparse exchange never
    /// touches a non-adjacent pair (there is no cell to touch).
    pub fn exchange_edges(&self) -> Vec<ExchangeEdge> {
        self.exch
            .edges
            .iter()
            .enumerate()
            .map(|(e, &(src, dst))| ExchangeEdge {
                src,
                dst,
                written: self.exch.written[e],
                drained: self.exch.drained[e],
                pending: self.exch.read[e].len() as u64,
            })
            .collect()
    }

    /// Fixed slot→partition ranges for a run on `pool`: contiguous,
    /// weight-balanced by per-partition agent count (routers + endpoints),
    /// so a locality map with uneven partition sizes still spreads compute
    /// evenly. Deterministic — worker count never affects results, only
    /// which thread advances which partition.
    fn slot_ranges(&self, pool: &BspPool) -> Vec<std::ops::Range<usize>> {
        let weights: Vec<u64> = self
            .partitions
            .iter()
            .map(|p| (p.routers.len() + p.endpoints.len() + 1) as u64)
            .collect();
        wsdf_exec::balanced_ranges(&weights, pool.workers())
    }

    /// Run the full schedule (warm-up + measurement + drain) on the
    /// process-wide executor ([`wsdf_exec::global_pool`]) and return the
    /// merged metrics. Errors out if a deadlock is detected.
    pub fn run<P: TrafficPattern + ?Sized>(&mut self, pattern: &P) -> SimResult<Metrics> {
        self.run_on(wsdf_exec::global_pool(), pattern)
    }

    /// Like [`run`](Self::run), but on an explicit executor. Results are
    /// bit-identical for any pool size (the determinism matrix test); the
    /// pool only bounds how many partitions advance concurrently.
    ///
    /// Note that auto partitioning (`cfg.partitions == 0`) was resolved at
    /// [`Simulation::new`] against the *process-wide* pool size
    /// ([`wsdf_exec::configured_threads`]); when targeting a pool of a
    /// different size, set `cfg.partitions` explicitly to match it.
    pub fn run_on<P: TrafficPattern + ?Sized>(
        &mut self,
        pool: &BspPool,
        pattern: &P,
    ) -> SimResult<Metrics> {
        let warm = self.cfg.warmup_cycles;
        let meas_end = warm + self.cfg.measure_cycles;
        let plan = Plan {
            window: (warm, meas_end),
            stop: meas_end + self.cfg.drain_cycles,
            closed: false,
        };
        self.run_loop(pool, pattern, &mut NoDriver, plan)
    }

    /// The cycle loop behind both run kinds. Each iteration hands the
    /// driver its injection point, advances the network one BSP
    /// broadcast, and — at the barrier, where partition state is globally
    /// consistent — hands the driver the cycle's packet [`Arrival`]s, then
    /// decides between exiting, tripping the watchdog, stepping the next
    /// cycle, or fast-forwarding over idle ones.
    fn run_loop<P: TrafficPattern + ?Sized, W: WorkloadDriver>(
        &mut self,
        pool: &BspPool,
        pattern: &P,
        driver: &mut W,
        plan: Plan,
    ) -> SimResult<Metrics> {
        let (measure_start, measure_end) = plan.window;
        let watchdog = self.cfg.watchdog_cycles;
        let ranges = self.slot_ranges(pool);
        let mut events: Vec<Arrival> = Vec::new();
        let mut stall = 0;
        self.init_gen(pattern);
        while self.now < plan.stop {
            {
                // Serial injection point: deterministic by construction
                // (runs between broadcasts, in whatever order the driver
                // submits — the driver owns that order).
                let Simulation {
                    partitions,
                    oracle,
                    ep_loc,
                    now,
                    ..
                } = self;
                let mut inj = Injector {
                    parts: partitions,
                    ep_loc,
                    oracle,
                    now: *now,
                };
                driver.pre_cycle(*now, &mut inj);
            }
            let cycle = self.now;
            let (moved, in_flight) = self.step(
                pool,
                pattern,
                &ranges,
                measure_start,
                measure_end,
                plan.closed,
            );
            self.update_regime(moved);
            // Hand this cycle's arrival events over in canonical order:
            // ascending ejecting-router id, ties preserving each router's
            // own ejection sequence (the stable sort keeps the
            // within-partition order, which is ascending-local-router and
            // therefore ascending-global within any one partition). This
            // reproduces the single-partition dense order for *any*
            // router→partition assignment, contiguous or not.
            events.clear();
            for p in &mut self.partitions {
                events.append(&mut p.arrivals);
            }
            let ep_router = &self.ep_router;
            events.sort_by_key(|a| ep_router[a.dst as usize]);
            driver.on_arrivals(cycle, &events);
            // Merge the driver's job-lifecycle records (stamped `cycle`)
            // into this cycle's batch before the canonical sort, keeping
            // the emitted stream cycle-monotonic.
            if self.tracer.is_some() {
                driver.drain_trace(&mut self.trace_batch);
            }
            self.emit_trace_batch();

            // Quiescence: nothing in flight or queued, the driver done,
            // and (open loop) the measurement window over.
            let finished = |sim: &Self, driver: &W| {
                in_flight == 0
                    && (plan.closed || sim.now >= measure_end)
                    && driver.done()
                    && sim.backlog() == 0
            };
            if finished(self, driver) {
                break;
            }
            // The driver's next release, capped at the next window edge.
            // Consulted only when it matters: for a jump, or for the
            // stall rule on an idle cycle with nothing in flight.
            let may_jump = self.event && !self.storm;
            let release = if may_jump || moved == 0 && in_flight == 0 {
                let edge = if self.now < measure_end {
                    measure_end
                } else {
                    plan.stop
                };
                driver.next_release().map(|r| r.min(edge))
            } else {
                None
            };
            // Watchdog: an idle cycle counts toward a deadlock only while
            // flits are in flight or the driver names no future release —
            // a promised arrival is a wait, not a stall.
            let counts = in_flight > 0 || release.is_none_or(|r| r == u64::MAX);
            stall = if moved == 0 && counts { stall + 1 } else { 0 };
            // Idle fast-forward: jump to the earlier of the network's next
            // event and the release. Cycles in between would have been
            // strict no-op steps, so metrics stay bit-identical, and the
            // stall advances as if they had been stepped. With the watchdog
            // off nothing would end a jump to `u64::MAX`: keep stepping.
            let target = match release {
                Some(rel) if may_jump => self.next_event_cycle(self.now < measure_end).min(rel),
                _ => self.now,
            };
            let skip = if watchdog > 0 || target < u64::MAX {
                target - self.now
            } else {
                0
            };
            if watchdog > 0 && counts && skip >= watchdog - stall {
                self.now += watchdog - stall;
                self.check_invariants();
                return Err(SimError::Deadlock {
                    cycle: self.now,
                    in_flight: in_flight.max(0) as u64,
                });
            }
            if skip > 0 {
                if counts {
                    stall += skip;
                }
                self.now = target;
                self.skipped_cycles += skip;
                // A stepped loop re-checks quiescence after every cycle;
                // the jump may have crossed the measurement end.
                if finished(self, driver) {
                    break;
                }
            }
        }
        self.check_invariants();
        self.finish_trace();
        let measured = if plan.closed {
            self.now
        } else {
            self.cfg.measure_cycles
        };
        Ok(self.collect(measured))
    }

    /// Earliest cycle ≥ `now` at which any partition has pending work
    /// (see `Partition::next_event`), stopping early once that is `now`.
    /// Cross-partition messages sitting undelivered in the read mailboxes
    /// have marked no consumer yet (that happens at delivery), so their
    /// earliest arrival counts too: the set of pending event cycles — and
    /// therefore the busy/skipped split — is the same for every partition
    /// count.
    fn next_event_cycle(&self, gen_live: bool) -> u64 {
        let mut t = u64::MAX;
        for p in &self.partitions {
            if t <= self.now {
                break;
            }
            t = t.min(p.next_event(self.now, gen_live));
        }
        t.max(self.now)
    }

    /// Saturation-storm hysteresis on the merged per-cycle `moved` count.
    ///
    /// Under heavy load the next-event search and jump checks cost more
    /// than they save: once the merged flit-movement count reaches a
    /// quarter of the agent count for [`STORM_ENTER`] consecutive cycles,
    /// the engine enters a *storm* and stops fast-forwarding. Storm cycles
    /// step exactly like every other cycle, through the pending-work
    /// bitmaps. The first globally idle cycle (`moved == 0`) ends the
    /// storm.
    ///
    /// The regime decides jumps only, so it cannot change results; and
    /// every input here (the merged `moved` sum, the agent count) is
    /// partition- and worker-invariant, so the regime schedule — and with
    /// it the busy/skipped split — stays bit-identical across the
    /// determinism matrix.
    fn update_regime(&mut self, moved: u64) {
        if !self.event {
            return;
        }
        if self.storm {
            if moved == 0 {
                self.storm = false;
                self.storm_hot = 0;
                self.check_invariants();
            }
        } else if moved * 4 >= self.agents {
            self.storm_hot += 1;
            if self.storm_hot >= STORM_ENTER {
                self.storm = true;
            }
        } else {
            self.storm_hot = 0;
        }
    }

    /// Debug builds: assert every partition's pending bitmaps against its
    /// agents (see `Partition::assert_pending_bitmaps`), that
    /// every slot of its flit pool is in exactly one place (see
    /// `FlitPool::assert_conserved`), and that flits and credits are
    /// conserved (see `assert_conservation`). Runs at every storm exit and
    /// at the end of every run, the deadlock exit included; free in
    /// release builds.
    fn check_invariants(&self) {
        #[cfg(debug_assertions)]
        {
            for part in &self.partitions {
                part.assert_pending_bitmaps();
                part.pool.assert_conserved(&part.routers, &part.wheel);
            }
            self.assert_conservation();
        }
    }

    /// Debug-build invariant: flits and credits are conserved.
    ///
    /// * Every flit injected and not yet ejected is on a wheel, buffered
    ///   in a router, or in an undelivered `Msg::Flit`: the partitions'
    ///   `in_flight` counters add up to exactly that.
    /// * For every channel into a router and every VC on it, each slot of
    ///   the receiving input VC's buffer is accounted for exactly once: a
    ///   credit held by the sender (output VC or endpoint), a credit on its
    ///   way back (a wheel event or an undelivered `Msg::Credit`), a flit
    ///   on its way (a wheel event or an undelivered `Msg::Flit`), or a
    ///   flit in the buffer. The sum is `buffer_flits`.
    /// * Ejection outputs hold all `buffer_flits` credits.
    ///
    /// O(wheel events + buffered flits + channels × VCs).
    #[cfg(debug_assertions)]
    fn assert_conservation(&self) {
        use std::collections::HashMap;
        let vcs = self.cfg.num_vcs as usize;
        let depth = self.cfg.buffer_flits as i64;
        // Slots accounted per (channel, VC); the undelivered messages and
        // the wheel events go in first, then each channel adds its sender's
        // credits and its receiver's buffer.
        let mut slots = vec![0i64; self.flit_end.len() * vcs];
        let mut flits = 0i64;
        for msg in self.exch.read.iter().chain(&self.exch.write).flatten() {
            match *msg {
                Msg::Flit { ch, vc, .. } => {
                    slots[ch as usize * vcs + vc as usize] += 1;
                    flits += 1;
                }
                Msg::Credit { ch, vc, .. } => slots[ch as usize * vcs + vc as usize] += 1,
            }
        }
        // A wheel event names a channel end; each end has one channel.
        let index = |ends: &[(u32, End)]| -> HashMap<(u32, End), usize> {
            ends.iter().enumerate().map(|(c, &end)| (end, c)).collect()
        };
        let (flit_ch, credit_ch) = (index(&self.flit_end), index(&self.credit_end));
        for (p, part) in self.partitions.iter().enumerate() {
            for d in part.wheel.iter() {
                let end = (p as u32, d.end());
                let c = if d.slot != NIL {
                    flits += 1;
                    flit_ch[&end]
                } else {
                    credit_ch[&end]
                };
                slots[c * vcs + d.vc as usize] += 1;
            }
        }
        for (c, (&(fp, to), &(cp, from))) in self.flit_end.iter().zip(&self.credit_end).enumerate()
        {
            if to.port == EP_PORT {
                continue;
            }
            let (dst, src) = (&self.partitions[fp as usize], &self.partitions[cp as usize]);
            let receiver = &dst.routers[to.agent as usize];
            for (vc, n) in slots[c * vcs..][..vcs].iter_mut().enumerate() {
                let vc = vc as u8;
                let held = if from.port == EP_PORT {
                    src.endpoints[from.agent as usize].inj_credits(vc)
                } else {
                    src.routers[from.agent as usize].out_credits(from.port, vc)
                };
                *n += held as i64 + receiver.in_buffered(to.port, vc) as i64;
                assert_eq!(
                    *n, depth,
                    "credit conservation violated on channel {c} VC {vc}: credits held, \
                     credits and flits in flight, and buffered flits add up to {n}, \
                     not buffer_flits {depth}"
                );
            }
        }
        let mut in_flight = 0;
        for part in &self.partitions {
            in_flight += part.in_flight;
            for r in &part.routers {
                flits += r.buffered() as i64;
                r.assert_ejection_credits(self.cfg.buffer_flits);
            }
        }
        assert_eq!(
            in_flight, flits,
            "flit conservation violated: in_flight counts {in_flight} flits, but wheels, \
             router buffers and undelivered messages hold {flits}"
        );
    }

    /// Prime the per-endpoint open-loop emission schedule at run start;
    /// every executed cycle keeps it current from then on.
    fn init_gen<P: TrafficPattern + ?Sized>(&mut self, pattern: &P) {
        let plen = self.packet_len;
        let from = self.now;
        for part in &mut self.partitions {
            let Partition {
                endpoints,
                next_gen,
                gen_min,
                ..
            } = part;
            for (e, ep) in endpoints.iter().enumerate() {
                next_gen[e] = ep.next_gen_cycle(pattern, plen, from);
            }
            *gen_min = next_gen.iter().copied().min().unwrap_or(u64::MAX);
        }
    }

    /// Advance one cycle: one pool broadcast over the partitions, then an
    /// O(1) mailbox-buffer swap. Returns (flits moved, flits in flight).
    fn step<P: TrafficPattern + ?Sized>(
        &mut self,
        pool: &BspPool,
        pattern: &P,
        ranges: &[std::ops::Range<usize>],
        measure_start: u64,
        measure_end: u64,
        collect_arrivals: bool,
    ) -> (u64, i64) {
        let now = self.now;
        let flit_end = &self.flit_end;
        let credit_end = &self.credit_end;
        let packet_len = self.packet_len;
        let oracle = &self.oracle;

        let slots = ranges.len();
        let shared = CycleShared {
            parts: self.partitions.as_mut_ptr(),
            read: self.exch.read.as_mut_ptr(),
            write: self.exch.write.as_mut_ptr(),
            written: self.exch.written.as_mut_ptr(),
            drained: self.exch.drained.as_mut_ptr(),
            out_start: &self.exch.out_start,
            in_flat: &self.exch.in_flat,
            in_start: &self.exch.in_start,
        };
        pool.broadcast(slots, |s| {
            // Fixed slot→partition mapping for the whole run (weight-
            // balanced contiguous ranges, computed once): slot s always
            // owns the same partitions, so its thread keeps this state
            // cache-hot for the whole run (partition pinning).
            for p in ranges[s].clone() {
                // SAFETY: the ranges tile 0..nparts disjointly and the
                // broadcast joins before `shared` dies.
                unsafe {
                    shared.run_partition(
                        p,
                        oracle,
                        pattern,
                        now,
                        measure_start,
                        measure_end,
                        flit_end,
                        credit_end,
                        packet_len,
                        collect_arrivals,
                    );
                }
            }
        });
        // Two-phase swap: this cycle's write side becomes next cycle's
        // read side (the read side was fully drained above).
        self.exch.swap();

        // Serial telemetry drain: move every partition's buffered records
        // into the batch (partition order — the canonical sort at emit
        // time erases it from the output).
        if self.tracer.is_some() {
            let batch = &mut self.trace_batch;
            for part in &mut self.partitions {
                if let Some(tr) = part.trace.as_deref_mut() {
                    tr.drain_into(batch);
                }
            }
        }

        self.busy_cycles += 1;
        self.now += 1;
        let moved: u64 = self.partitions.iter().map(|p| p.moved).sum();
        let in_flight: i64 = self.partitions.iter().map(|p| p.in_flight).sum();
        (moved, in_flight)
    }

    /// Total packets waiting in source queues.
    fn backlog(&self) -> usize {
        self.partitions
            .iter()
            .flat_map(|p| p.endpoints.iter())
            .map(|e| e.backlog())
            .sum()
    }

    /// Merge per-partition metrics into the final result, with rates
    /// normalized over `measure_cycles` (closed-loop runs measure every
    /// cycle actually simulated, not the configured open-loop window).
    fn collect(&self, measure_cycles: u64) -> Metrics {
        let mut m = Metrics {
            measure_cycles,
            endpoints: self.endpoints_total,
            cycles_run: self.now,
            busy_cycles: self.busy_cycles,
            skipped_cycles: self.skipped_cycles,
            ..Default::default()
        };
        for p in &self.partitions {
            m.merge(&p.metrics);
        }
        m
    }

    /// Run a closed-loop workload to quiescence on the process-wide
    /// executor. See [`run_closed_loop_on`](Self::run_closed_loop_on).
    pub fn run_closed_loop<W: WorkloadDriver>(&mut self, driver: &mut W) -> SimResult<Metrics> {
        self.run_closed_loop_on(wsdf_exec::global_pool(), driver)
    }

    /// Run a closed-loop workload to quiescence on an explicit executor.
    ///
    /// Unlike [`run_on`](Self::run_on), there is no fixed cycle schedule:
    /// every cycle starts with [`WorkloadDriver::pre_cycle`] (the driver
    /// submits whatever messages became eligible through the [`Injector`]),
    /// advances the network one BSP broadcast, and ends — at the barrier,
    /// where partition state is globally consistent — by handing the cycle's
    /// packet [`Arrival`] events to [`WorkloadDriver::on_arrivals`]. The
    /// run terminates at **quiescence**: the driver reports
    /// [`done`](WorkloadDriver::done), no flit is in flight, and every
    /// source queue is empty. All three conditions are functions of merged
    /// per-partition state evaluated between broadcasts, so the stopping
    /// cycle — and every metric — is bit-identical for any partition or
    /// worker count, exactly like the open-loop path.
    ///
    /// The whole run is measured (`measure_start = 0`, no drain phase);
    /// the returned [`Metrics::measure_cycles`] equals the cycles actually
    /// simulated. The deadlock watchdog stays armed: if nothing moves for
    /// `watchdog_cycles` consecutive cycles before quiescence while flits
    /// are stuck *or* the driver names no future release (a driver that
    /// never finishes), the run fails with [`SimError::Deadlock`] instead
    /// of spinning forever. Idle cycles before a promised
    /// [`next_release`](WorkloadDriver::next_release) do not count.
    pub fn run_closed_loop_on<W: WorkloadDriver>(
        &mut self,
        pool: &BspPool,
        driver: &mut W,
    ) -> SimResult<Metrics> {
        let plan = Plan {
            window: (0, u64::MAX),
            stop: u64::MAX,
            closed: true,
        };
        self.run_loop(pool, &IdlePattern, driver, plan)
    }
}

/// Driver side of a closed-loop (workload-driven) simulation: the engine
/// owns the cycle loop, the driver owns *what* gets injected *when*.
///
/// Contract for determinism: decisions may depend only on the cycle number
/// and on previously observed [`Arrival`] events (both are partition- and
/// worker-count-invariant), and submissions for one cycle must come in a
/// deterministic order — e.g. sorted by a message id.
pub trait WorkloadDriver {
    /// Called before cycle `now` advances. Submit every packet that is
    /// eligible at `now` through `inj`; packets queue at their source
    /// endpoint and serialize into the network under credit backpressure.
    fn pre_cycle(&mut self, now: u64, inj: &mut Injector<'_>);

    /// Called after cycle `now`, at the BSP barrier, with every packet
    /// whose tail was ejected this cycle. `Arrival::arrive` may lie up to
    /// one ejection-channel latency in the future (see [`Arrival`]).
    fn on_arrivals(&mut self, now: u64, arrivals: &[Arrival]);

    /// True once every expected arrival has been observed. Quiescence —
    /// the end of the run — additionally requires the network and all
    /// source queues to be empty.
    fn done(&self) -> bool;

    /// Earliest future cycle at which [`pre_cycle`](Self::pre_cycle) might
    /// submit something, given everything observed so far — the driver's
    /// contribution to the event-driven engine's next-event computation.
    ///
    /// `None` (the default) means "unknown": the engine steps every cycle
    /// densely, which is always correct, and idle cycles count toward the
    /// deadlock watchdog. `Some(c)` promises that `pre_cycle` is a no-op
    /// strictly before cycle `c` (use `u64::MAX` when nothing is scheduled
    /// at all), letting the engine fast-forward idle stretches; while `c`
    /// is finite, idle cycles with nothing in flight are a wait for it,
    /// not a stall. The promise must be consistent with the determinism
    /// contract above, i.e. derived from cycle numbers and observed
    /// arrivals only.
    fn next_release(&self) -> Option<u64> {
        None
    }

    /// Move any buffered telemetry records (job admissions/retirements,
    /// workload phase markers) into `out`. Called at the BSP barrier of
    /// every cycle when tracing is armed, right before the batch is
    /// canonicalized — stamp records with the cycle passed to
    /// [`pre_cycle`](Self::pre_cycle)/[`on_arrivals`](Self::on_arrivals)
    /// so the stream stays cycle-monotonic. The default buffers nothing.
    fn drain_trace(&mut self, out: &mut Vec<TraceRec>) {
        let _ = out;
    }
}

/// Closed-loop injection handle passed to [`WorkloadDriver::pre_cycle`].
///
/// Lives only between BSP broadcasts, so pushing into endpoint source
/// queues needs no synchronization.
pub struct Injector<'a> {
    parts: &'a mut [Partition],
    ep_loc: &'a [(u32, u32)],
    oracle: &'a dyn RouteOracle,
    now: u64,
}

impl Injector<'_> {
    /// Current cycle (packets submitted now are created at this cycle).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of endpoints in the network.
    pub fn endpoints(&self) -> u32 {
        self.ep_loc.len() as u32
    }

    /// Submit one packet of `len` flits from endpoint `src` to `dst`.
    ///
    /// `id` is the caller's tag (message id + sequence in the low 56 bits;
    /// the top 8 are reserved) and comes back verbatim in the matching
    /// [`Arrival`]. The packet is tagged by the routing oracle (Valiant
    /// intermediate groups etc.) using the source endpoint's deterministic
    /// RNG stream and then queued; `Metrics::packets_created` counts it
    /// this cycle.
    ///
    /// # Panics
    /// If `src`/`dst` are out of range, equal, `len` is 0, or `id` uses
    /// the reserved top 8 bits. The engine itself no longer writes there
    /// (a flit's VC rides beside it on a channel, not in its id), but the
    /// bits stay reserved so that ids keep one layout.
    pub fn submit(&mut self, src: u32, dst: u32, id: u64, len: u8) {
        assert!(len >= 1, "zero-length packet");
        assert_ne!(src, dst, "closed-loop self-traffic is not routable");
        assert_eq!(
            id >> 56,
            0,
            "packet id {id:#x} uses the reserved top 8 bits"
        );
        for (name, ep) in [("src", src), ("dst", dst)] {
            assert!(
                (ep as usize) < self.ep_loc.len(),
                "{name} {ep} out of range ({} endpoints)",
                self.ep_loc.len()
            );
        }
        let (p, e) = self.ep_loc[src as usize];
        let part = &mut self.parts[p as usize];
        let mut pkt = PacketHeader {
            id,
            src,
            dst,
            inter_w: NO_INTERMEDIATE,
            created: self.now,
            len,
        };
        let ep = &mut part.endpoints[e as usize];
        self.oracle.tag_packet(&mut pkt, ep.rng_mut());
        ep.push_packet(pkt);
        part.metrics.packets_created += 1;
        // Marked, the endpoint steps in the upcoming cycle.
        part.pend.mark_endpoint(e as usize);
    }
}

/// The pattern bound of a closed-loop run: offers zero open-loop load, so
/// endpoint generation is inert and every injected flit comes from the
/// [`Injector`].
struct IdlePattern;

/// The driver bound of an open-loop run: injects nothing and is always
/// done, so the pattern's emission schedule and the window edges alone
/// drive the loop.
struct NoDriver;

impl WorkloadDriver for NoDriver {
    fn pre_cycle(&mut self, _now: u64, _inj: &mut Injector<'_>) {}
    fn on_arrivals(&mut self, _now: u64, _arrivals: &[Arrival]) {}
    fn done(&self) -> bool {
        true
    }
    fn next_release(&self) -> Option<u64> {
        Some(u64::MAX)
    }
}

impl TrafficPattern for IdlePattern {
    fn rate(&self, _src: u32) -> f64 {
        0.0
    }
    fn dest(&self, _src: u32, _seq: u64, _rng: &mut crate::rng::SplitMix64) -> Option<u32> {
        None
    }
}

/// (partition, partition-local index) of each agent, given each agent's
/// partition in ascending global id order. Agents are pushed onto their
/// partitions in that order, so a local index is the agent's rank within
/// its partition, for any assignment, contiguous or not.
fn locate(parts: impl Iterator<Item = u32>, nparts: usize) -> Vec<(u32, u32)> {
    let mut counts = vec![0u32; nparts];
    parts
        .map(|p| {
            let i = counts[p as usize];
            counts[p as usize] += 1;
            (p, i)
        })
        .collect()
}

/// Resolve the partition count. Explicit requests are honored verbatim
/// (clamped to the router count — determinism makes any value valid);
/// auto (`0`) scales to the executor's worker count, capped so no
/// partition drops below ~256 routers (below that, barrier overhead beats
/// the per-partition compute it buys).
///
/// `routers` is the *live* router count: under a [`FaultMap`] dead routers
/// contribute no compute, so they must not count toward the ≥256 guard.
///
/// Public so callers that build an explicit [`SimConfig::partition_map`]
/// (e.g. with `wsdf_topo::locality_partition`) can resolve the same count
/// the engine would have picked on its own.
pub fn effective_partitions(requested: usize, routers: usize, workers: usize) -> usize {
    let n = if requested == 0 {
        // Don't over-partition small networks: ≥ 256 routers per partition.
        workers.min(routers / 256 + 1)
    } else {
        requested
    };
    n.clamp(1, routers.max(1))
}

/// The full-surface one-shot entry point: optional [`FaultMap`] (`None`
/// is byte-for-byte the pristine path) and optional streaming telemetry
/// ([`Tracer`]). Every open-loop run kind of the `wsdf::Session` builder
/// bottoms out here; prefer `Session` for anything user-facing.
pub fn simulate_traced_on<O: RouteOracle, P: TrafficPattern + ?Sized>(
    net: &NetworkDesc,
    cfg: &SimConfig,
    oracle: O,
    pattern: &P,
    pool: &BspPool,
    faults: Option<&FaultMap>,
    trace: Option<&Tracer>,
) -> SimResult<Metrics> {
    let mut sim = Simulation::with_faults(net, cfg, oracle, faults)?;
    if let Some(t) = trace {
        sim.attach_trace(t);
    }
    sim.run_on(pool, pattern)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelClass;
    use crate::flit::PacketHeader;
    use crate::oracle::RouteChoice;
    use crate::pattern::UniformPattern;
    use crate::rng::SplitMix64;

    /// A ring of `n` routers, endpoint on port 0, ring links on ports 1 (cw
    /// out) and 2 (cw in).
    pub(super) fn ring(n: u32) -> NetworkDesc {
        ring_with_latency(n, 1)
    }

    /// [`ring`] with ring links `latency` cycles long.
    fn ring_with_latency(n: u32, latency: u32) -> NetworkDesc {
        let mut net = NetworkDesc::new();
        for _ in 0..n {
            net.add_router(3);
        }
        for r in 0..n {
            let e = net.add_endpoint(r);
            net.attach_endpoint(e, r, 0, 1, 1);
            let next = (r + 1) % n;
            // r port1 -> next port2
            net.add_channel(crate::channel::ChannelDesc::router_to_router(
                r,
                1,
                next,
                2,
                latency,
                1,
                ChannelClass::ShortReach,
            ));
        }
        net
    }

    /// Clockwise ring routing with the classic dateline VC scheme: packets
    /// start on VC 0 and switch to VC 1 after wrapping past router 0, which
    /// breaks the ring's cyclic channel dependency.
    pub(super) struct RingOracle {
        pub(super) n: u32,
    }
    impl RouteOracle for RingOracle {
        fn route(
            &self,
            router: u32,
            _in_port: u8,
            _in_vc: u8,
            pkt: &PacketHeader,
            _rng: &mut SplitMix64,
        ) -> RouteChoice {
            if pkt.dst == router {
                RouteChoice {
                    out_port: 0,
                    out_vc: 0,
                }
            } else {
                // Crossed the dateline iff we are now below our source.
                let vc = u8::from(router < pkt.src);
                RouteChoice {
                    out_port: 1,
                    out_vc: vc,
                }
            }
        }
        fn initial_vc(&self, _pkt: &PacketHeader) -> u8 {
            0
        }
        fn num_vcs(&self) -> u8 {
            let _ = self.n;
            2
        }
    }

    pub(super) fn small_cfg() -> SimConfig {
        SimConfig {
            num_vcs: 2,
            warmup_cycles: 200,
            measure_cycles: 500,
            drain_cycles: 200,
            watchdog_cycles: 500,
            ..Default::default()
        }
    }

    #[test]
    fn ring_delivers_traffic() {
        let net = ring(8);
        let m = Simulation::new(&net, &small_cfg(), &RingOracle { n: 8 })
            .unwrap()
            .run(&UniformPattern::new(8, 0.1))
            .unwrap();
        assert!(m.packets_ejected > 0, "no packets delivered");
        let lat = m.avg_latency().unwrap();
        // Zero-load-ish: inj 1 + avg 4 ring hops + ej 1 + serialization 3.
        assert!(lat > 4.0 && lat < 40.0, "implausible latency {lat}");
        assert!(!m.deadlocked);
    }

    #[test]
    fn throughput_tracks_offered_load_below_saturation() {
        let net = ring(8);
        // Uni ring uniform saturation ≈ 2/avg_dist/... keep well below.
        let m = Simulation::new(&net, &small_cfg(), &RingOracle { n: 8 })
            .unwrap()
            .run(&UniformPattern::new(8, 0.2))
            .unwrap();
        let acc = m.accepted_rate();
        assert!(
            (acc - 0.2).abs() < 0.04,
            "accepted {acc} should track offered 0.2"
        );
    }

    #[test]
    fn saturated_ring_keeps_running_without_deadlock() {
        let net = ring(8);
        let m = Simulation::new(&net, &small_cfg(), &RingOracle { n: 8 })
            .unwrap()
            .run(&UniformPattern::new(8, 1.0))
            .unwrap();
        // Uniform on a unidirectional 8-ring: avg distance 4 hops, 8 links of
        // 1 flit/cycle → ideal capacity 0.25 flits/cycle/node. Wormhole +
        // round-robin arbitration lands at roughly 60-70% of ideal.
        let acc = m.accepted_rate();
        assert!(
            acc > 0.12 && acc <= 0.27,
            "saturation rate {acc} out of range"
        );
    }

    #[test]
    fn deterministic_across_partition_counts() {
        let net = ring(16);
        let cfg = small_cfg();
        let run = |parts: usize| {
            let mut c = cfg.clone();
            c.partitions = parts;
            Simulation::new(&net, &c, &RingOracle { n: 16 })
                .unwrap()
                .run(&UniformPattern::new(16, 0.3))
                .unwrap()
        };
        let a = run(1);
        let b = run(2);
        let c4 = run(4);
        for (x, y) in [(&a, &b), (&a, &c4)] {
            assert_eq!(x.packets_ejected, y.packets_ejected);
            assert_eq!(x.latency_sum, y.latency_sum);
            assert_eq!(x.flits_injected_measured, y.flits_injected_measured);
            assert_eq!(x.class_hops.total(), y.class_hops.total());
        }
        // And across worker counts: the same partitioned run on explicit
        // pools of 1, 2, and 4 workers must reproduce the sequential
        // metrics bit for bit.
        for workers in [1usize, 2, 4] {
            let pool = BspPool::new(workers);
            let mut c = cfg.clone();
            c.partitions = 4;
            let m = Simulation::new(&net, &c, &RingOracle { n: 16 })
                .unwrap()
                .run_on(&pool, &UniformPattern::new(16, 0.3))
                .unwrap();
            assert_eq!(m.packets_ejected, a.packets_ejected, "workers={workers}");
            assert_eq!(m.latency_sum, a.latency_sum, "workers={workers}");
            assert_eq!(
                m.class_hops.total(),
                a.class_hops.total(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn long_links_wrap_the_wheel_and_event_stepping_matches_dense() {
        // 100-cycle ring links: a 128-bucket wheel, wrapping every 128
        // cycles, under traffic light enough to leave idle stretches.
        let net = ring_with_latency(8, 100);
        let run = |event_driven: bool, partitions: usize| {
            let cfg = SimConfig {
                event_driven,
                partitions,
                ..small_cfg()
            };
            let mut sim = Simulation::new(&net, &cfg, &RingOracle { n: 8 }).unwrap();
            assert!(sim.partitions.iter().all(|p| p.wheel.width() == 128));
            sim.run(&UniformPattern::new(8, 0.02)).unwrap()
        };
        let dense = run(false, 1);
        assert_eq!((dense.packets_ejected, dense.latency_sum), (7, 1448));
        assert_eq!((dense.busy_cycles, dense.skipped_cycles), (900, 0));
        for partitions in [1, 2, 4] {
            let event = run(true, partitions);
            assert_eq!(event.packets_created, dense.packets_created);
            assert_eq!(event.packets_ejected, dense.packets_ejected);
            assert_eq!(event.latency_sum, dense.latency_sum);
            assert_eq!(event.latency_hist, dense.latency_hist);
            assert_eq!(event.flits_ejected_measured, dense.flits_ejected_measured);
            assert_eq!(event.class_hops.flit_hops, dense.class_hops.flit_hops);
            assert_eq!(event.cycles_run, dense.cycles_run);
            assert_eq!(
                (event.busy_cycles, event.skipped_cycles),
                (65, 835),
                "P={partitions}"
            );
        }
    }

    #[test]
    fn effective_partitions_honors_guard_and_caps() {
        // Auto mode caps at the pool's worker count...
        assert_eq!(effective_partitions(0, 10_000, 4), 4);
        // ...and at the ≥256-routers-per-partition guard: small networks
        // stay sequential no matter how many workers exist.
        assert_eq!(effective_partitions(0, 100, 8), 1);
        assert_eq!(effective_partitions(0, 255, 8), 1);
        assert_eq!(effective_partitions(0, 256, 8), 2);
        assert_eq!(effective_partitions(0, 1024, 8), 5);
        assert_eq!(effective_partitions(0, 1_000_000, 8), 8);
        // Explicit requests are honored (determinism makes them all valid),
        // clamped only by the router count.
        assert_eq!(effective_partitions(7, 16, 1), 7);
        assert_eq!(effective_partitions(99, 16, 4), 16);
        // Degenerate inputs stay sane.
        assert_eq!(effective_partitions(0, 0, 8), 1);
        assert_eq!(effective_partitions(3, 0, 8), 1);
    }

    #[test]
    fn explicit_partitions_clamp_to_live_routers() {
        // 16-ring with 12 dead routers: an explicit request for 16
        // partitions must clamp to the 4 *live* routers, not the total.
        let net = ring(16);
        let mut faults = crate::fault::FaultMap::pristine(&net);
        for r in 4..16 {
            faults.kill_router(r);
        }
        faults.seal(&net);
        let mut cfg = small_cfg();
        cfg.partitions = 16;
        let sim =
            Simulation::with_faults(&net, &cfg, &RingOracle { n: 16 }, Some(&faults)).unwrap();
        assert_eq!(sim.partitions(), 4);
        let pristine = Simulation::new(&net, &cfg, &RingOracle { n: 16 }).unwrap();
        assert_eq!(pristine.partitions(), 16);
    }

    #[test]
    fn effective_partitions_guard_counts_live_routers() {
        // The ≥256-routers-per-partition guard operates on *live* routers:
        // a 10k-router fabric with only 255 survivors stays sequential,
        // and one with 256 survivors gets exactly two partitions — the
        // same thresholds as a pristine fabric of that size.
        assert_eq!(effective_partitions(0, 255, 8), 1);
        assert_eq!(effective_partitions(0, 256, 8), 2);
        assert_eq!(effective_partitions(0, 1024, 8), 5);
    }

    #[test]
    #[should_panic(expected = "dead channel")]
    fn traversing_a_faulted_channel_asserts() {
        // Kill one ring link but route with the fault-oblivious oracle:
        // the first flit sent over the dead channel must hard-assert.
        let net = ring(4);
        let mut faults = crate::fault::FaultMap::pristine(&net);
        let cut = net
            .channels
            .iter()
            .position(|ch| ch.src.router() == Some(1) && ch.dst.router() == Some(2))
            .unwrap();
        faults.kill_channel(cut as u32);
        faults.seal(&net);
        let mut sim =
            Simulation::with_faults(&net, &small_cfg(), &RingOracle { n: 4 }, Some(&faults))
                .unwrap();
        let _ = sim.run(&UniformPattern::new(4, 0.5));
    }

    #[test]
    #[should_panic(expected = "dead channel")]
    fn injecting_from_a_dead_endpoint_asserts() {
        // Router 2 dies; its endpoint's injection channel dies with it
        // (seal), so open-loop generation from endpoint 2 must assert.
        let net = ring(4);
        let mut faults = crate::fault::FaultMap::pristine(&net);
        faults.kill_router(2);
        faults.seal(&net);
        let mut sim =
            Simulation::with_faults(&net, &small_cfg(), &RingOracle { n: 4 }, Some(&faults))
                .unwrap();
        let _ = sim.run(&UniformPattern::new(4, 0.5));
    }

    #[test]
    fn pristine_fault_map_changes_nothing() {
        // An all-alive map must be byte-identical to no map at all.
        let net = ring(8);
        let cfg = small_cfg();
        let pattern = UniformPattern::new(8, 0.3);
        let a = Simulation::new(&net, &cfg, &RingOracle { n: 8 })
            .unwrap()
            .run(&pattern)
            .unwrap();
        let faults = crate::fault::FaultMap::pristine(&net);
        let b = Simulation::with_faults(&net, &cfg, &RingOracle { n: 8 }, Some(&faults))
            .unwrap()
            .run(&pattern)
            .unwrap();
        assert_eq!(a.packets_ejected, b.packets_ejected);
        assert_eq!(a.latency_sum, b.latency_sum);
        assert_eq!(a.latency_hist, b.latency_hist);
    }

    #[test]
    fn dyn_entry_point_matches_monomorphized_engine() {
        let net = ring(8);
        let cfg = small_cfg();
        let oracle = RingOracle { n: 8 };
        let pattern = UniformPattern::new(8, 0.3);
        let a = Simulation::new(&net, &cfg, &oracle)
            .unwrap()
            .run(&pattern)
            .unwrap();
        let b = Simulation::<&dyn RouteOracle>::new(&net, &cfg, &oracle)
            .unwrap()
            .run(&pattern as &dyn TrafficPattern)
            .unwrap();
        assert_eq!(a.packets_created, b.packets_created);
        assert_eq!(a.packets_ejected, b.packets_ejected);
        assert_eq!(a.latency_sum, b.latency_sum);
        assert_eq!(a.latency_max, b.latency_max);
        assert_eq!(a.flits_injected_measured, b.flits_injected_measured);
        assert_eq!(a.flits_ejected_measured, b.flits_ejected_measured);
        assert_eq!(a.class_hops.flit_hops, b.class_hops.flit_hops);
    }

    #[test]
    fn zero_rate_runs_clean() {
        let net = ring(4);
        let m = Simulation::new(&net, &small_cfg(), &RingOracle { n: 4 })
            .unwrap()
            .run(&UniformPattern::new(4, 0.0))
            .unwrap();
        assert_eq!(m.packets_created, 0);
        assert_eq!(m.packets_ejected, 0);
    }

    /// Minimal closed-loop driver: a fixed burst of packets 0 → n/2, done
    /// when every flit has arrived.
    struct Burst {
        sent: bool,
        packets: u64,
        dst: u32,
        arrived_flits: u64,
        expect_flits: u64,
        last_arrival: u64,
    }

    impl WorkloadDriver for Burst {
        fn pre_cycle(&mut self, _now: u64, inj: &mut Injector<'_>) {
            if !self.sent {
                for i in 0..self.packets {
                    inj.submit(0, self.dst, i, 4);
                }
                self.sent = true;
            }
        }
        fn on_arrivals(&mut self, _now: u64, arrivals: &[Arrival]) {
            for a in arrivals {
                assert_eq!(a.dst, self.dst);
                self.arrived_flits += a.flits as u64;
                self.last_arrival = self.last_arrival.max(a.arrive);
            }
        }
        fn done(&self) -> bool {
            self.arrived_flits == self.expect_flits
        }
    }

    fn burst(packets: u64, dst: u32) -> Burst {
        Burst {
            sent: false,
            packets,
            dst,
            arrived_flits: 0,
            expect_flits: packets * 4,
            last_arrival: 0,
        }
    }

    #[test]
    fn closed_loop_runs_to_quiescence() {
        let net = ring(8);
        let mut sim = Simulation::new(&net, &small_cfg(), &RingOracle { n: 8 }).unwrap();
        let mut driver = burst(6, 4);
        let m = sim.run_closed_loop(&mut driver).unwrap();
        assert!(driver.done());
        assert_eq!(m.packets_created, 6);
        assert_eq!(m.packets_ejected, 6);
        // Quiescence, not a fixed budget: the loop stopped within one
        // ejection latency of the last arrival, far before the open-loop
        // schedule (900 cycles) would have.
        assert!(m.cycles_run <= driver.last_arrival + 1);
        assert!(m.cycles_run < 900, "quiescence exit ran {}", m.cycles_run);
        // Closed-loop rates are normalized over the cycles actually run.
        assert_eq!(m.measure_cycles, m.cycles_run);
        assert_eq!(m.latency_hist.count(), 6);
    }

    #[test]
    fn closed_loop_deterministic_across_partitions_and_workers() {
        let net = ring(16);
        let run = |parts: usize, workers: usize| {
            let mut c = small_cfg();
            c.partitions = parts;
            let mut sim = Simulation::new(&net, &c, &RingOracle { n: 16 }).unwrap();
            let mut driver = burst(10, 7);
            let pool = BspPool::new(workers);
            let m = sim.run_closed_loop_on(&pool, &mut driver).unwrap();
            (m, driver.last_arrival)
        };
        let (base, base_last) = run(1, 1);
        assert_eq!(base.packets_ejected, 10);
        for (parts, workers) in [(2, 1), (4, 2), (7, 4)] {
            let (m, last) = run(parts, workers);
            assert_eq!(m.cycles_run, base.cycles_run, "p={parts} w={workers}");
            assert_eq!(m.latency_sum, base.latency_sum, "p={parts} w={workers}");
            assert_eq!(m.latency_hist, base.latency_hist, "p={parts} w={workers}");
            assert_eq!(last, base_last, "p={parts} w={workers}");
        }
    }

    #[test]
    fn closed_loop_starved_driver_trips_watchdog() {
        /// Never submits, never done: the watchdog must end the run.
        struct Never;
        impl WorkloadDriver for Never {
            fn pre_cycle(&mut self, _now: u64, _inj: &mut Injector<'_>) {}
            fn on_arrivals(&mut self, _now: u64, _arrivals: &[Arrival]) {}
            fn done(&self) -> bool {
                false
            }
        }
        let net = ring(4);
        let mut cfg = small_cfg();
        cfg.watchdog_cycles = 50;
        let mut sim = Simulation::new(&net, &cfg, &RingOracle { n: 4 }).unwrap();
        let err = sim.run_closed_loop(&mut Never).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    /// Clockwise ring routing without a dateline: one VC, always VC 0, so
    /// the ring's cyclic channel dependency closes under load.
    struct NoDateline;
    impl RouteOracle for NoDateline {
        fn route(
            &self,
            router: u32,
            _: u8,
            _: u8,
            pkt: &PacketHeader,
            _: &mut SplitMix64,
        ) -> RouteChoice {
            RouteChoice {
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

    #[test]
    fn routing_deadlock_reported_alike_by_every_run_kind() {
        let net = ring(8);
        let cfg = |event_driven: bool, partitions: usize| SimConfig {
            num_vcs: 1,
            buffer_flits: 4,
            event_driven,
            partitions,
            ..small_cfg()
        };
        // Open loop: saturating uniform traffic closes the cycle. Dense
        // stepping and event stepping (whose fast-forward must carry the
        // stall across jumps) agree on every partition count.
        for event in [false, true] {
            for partitions in [1, 2, 4] {
                let err = Simulation::new(&net, &cfg(event, partitions), NoDateline)
                    .unwrap()
                    .run(&UniformPattern::new(8, 1.0))
                    .unwrap_err();
                assert_eq!(
                    err,
                    SimError::Deadlock {
                        cycle: 521,
                        in_flight: 64
                    },
                    "open loop, event={event} P={partitions}"
                );
            }
        }
        /// Every endpoint bursts 40 packets five hops ahead; never done,
        /// and nothing further is ever scheduled.
        struct Flood {
            sent: bool,
        }
        impl WorkloadDriver for Flood {
            fn pre_cycle(&mut self, _now: u64, inj: &mut Injector<'_>) {
                if !std::mem::replace(&mut self.sent, true) {
                    for s in 0..inj.endpoints() {
                        for i in 0..40 {
                            inj.submit(s, (s + 5) % 8, u64::from(s) * 40 + i, 4);
                        }
                    }
                }
            }
            fn on_arrivals(&mut self, _now: u64, _arrivals: &[Arrival]) {}
            fn done(&self) -> bool {
                false
            }
            fn next_release(&self) -> Option<u64> {
                Some(u64::MAX)
            }
        }
        for event in [false, true] {
            let err = Simulation::new(&net, &cfg(event, 1), NoDateline)
                .unwrap()
                .run_closed_loop(&mut Flood { sent: false })
                .unwrap_err();
            assert_eq!(
                err,
                SimError::Deadlock {
                    cycle: 509,
                    in_flight: 64
                },
                "closed loop, event={event}"
            );
        }
    }

    /// Submits one packet from `src` to endpoint 0 on the first cycle.
    struct SubmitFrom(u32);
    impl WorkloadDriver for SubmitFrom {
        fn pre_cycle(&mut self, _now: u64, inj: &mut Injector<'_>) {
            inj.submit(self.0, 0, 0, 1);
        }
        fn on_arrivals(&mut self, _now: u64, _arrivals: &[Arrival]) {}
        fn done(&self) -> bool {
            true
        }
    }

    #[test]
    #[should_panic(expected = "src 4 out of range (4 endpoints)")]
    fn submit_rejects_out_of_range_src() {
        let net = ring(4);
        let mut sim = Simulation::new(&net, &small_cfg(), &RingOracle { n: 4 }).unwrap();
        let _ = sim.run_closed_loop(&mut SubmitFrom(4));
    }

    #[test]
    fn routers_over_the_port_limit_are_rejected() {
        // Two routers with an endpoint each, linked on their last port.
        let pair = |ports: u8| {
            let mut net = NetworkDesc::new();
            for r in 0..2 {
                net.add_router(ports);
                let e = net.add_endpoint(r);
                net.attach_endpoint(e, r, 0, 1, 1);
            }
            net.connect(
                (0, ports - 1),
                (1, ports - 1),
                1,
                1,
                ChannelClass::ShortReach,
            );
            Simulation::new(&net, &small_cfg(), &RingOracle { n: 2 }).err()
        };
        // Valid by index, but port 69 overflows the 64-bit per-router
        // occupied-port word.
        assert_eq!(
            pair(70),
            Some(SimError::Invalid(
                "router 0 has 70 ports; the engine supports at most 64".into()
            ))
        );
        assert_eq!(pair(crate::MAX_PORTS as u8), None);
    }

    #[test]
    fn vc_mismatch_is_rejected() {
        struct Greedy;
        impl RouteOracle for Greedy {
            fn route(
                &self,
                _: u32,
                _: u8,
                _: u8,
                _: &PacketHeader,
                _: &mut SplitMix64,
            ) -> RouteChoice {
                RouteChoice {
                    out_port: 0,
                    out_vc: 0,
                }
            }
            fn initial_vc(&self, _: &PacketHeader) -> u8 {
                0
            }
            fn num_vcs(&self) -> u8 {
                8
            }
        }
        let net = ring(4);
        let err = Simulation::new(&net, &small_cfg(), &Greedy).err();
        assert!(matches!(err, Some(SimError::Invalid(_))));
    }
}

#[cfg(test)]
mod channel_stat_tests {
    use super::tests::{ring, small_cfg, RingOracle};
    use super::*;
    use crate::pattern::UniformPattern;

    /// Injection flits must equal the flits counted on injection channels,
    /// and every used channel's utilization must be ≤ 1.
    #[test]
    fn channel_stats_are_conserved_and_bounded() {
        let net = ring(8);
        let mut cfg = small_cfg();
        cfg.per_channel_stats = true;
        let m = Simulation::new(&net, &cfg, &RingOracle { n: 8 })
            .unwrap()
            .run(&UniformPattern::new(8, 0.3))
            .unwrap();
        let inj_total: u64 = net
            .channels
            .iter()
            .enumerate()
            .filter(|(_, c)| c.class == crate::ChannelClass::Injection)
            .map(|(i, _)| m.flits_per_channel[i] as u64)
            .sum();
        assert_eq!(inj_total, m.flits_injected_measured);
        for (i, ch) in net.channels.iter().enumerate() {
            let u = m.channel_utilization(i, ch.width).unwrap();
            assert!((0.0..=1.0 + 1e-9).contains(&u), "channel {i}: {u}");
        }
    }
}
