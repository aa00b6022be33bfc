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
//! router and ring state every cycle: cache and NUMA affinity come from
//! the mapping, no `sched_setaffinity` needed.
//!
//! Inside a broadcast, each partition:
//!
//! 1. **Delivers** last cycle's cross-partition messages: it drains the
//!    *read* mailbox of every in-edge of the partition adjacency graph
//!    into the channel queues it owns.
//! 2. **Advances** its endpoints and routers one cycle. Flits/credits
//!    crossing into another partition are appended to the *write* mailbox
//!    of the corresponding out-edge.
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
//! storm reseed, the arrival hand-off, the quiescence exit, the deadlock
//! watchdog and the idle fast-forward therefore exist once.
//!
//! ## Pending-work bitmaps
//!
//! Each partition keeps two bitmaps per local router, one `u64` each:
//! `flit_pend` (bit = input port whose flit ring holds a flit) and
//! `credit_pend` (bit = output port whose credit ring holds a credit).
//! Every ring push and mailbox delivery sets the consumer's bit, and the
//! router clears it when the ring drains, so absorption walks only ports
//! with work. They also make dense cycles — saturation storms and
//! `event_driven: false` — cheap on sparse fabrics: agents still run in
//! ascending order, but a router with nothing buffered and no bit set, or
//! an endpoint with nothing queued, no injection credit in flight and no
//! open-loop emission due, is skipped, since its step would be a strict
//! no-op. Debug builds assert that each bit is set iff its ring is
//! non-empty, at every storm reseed and at the end of every run.
//!
//! ## Fixed-capacity channel queues
//!
//! Channel queues are [`TimedRing`]s sized when the network is compiled:
//! a channel can hold at most `width` entries per cycle for `latency`
//! cycles (plus one cycle of producer/consumer skew within a BSP step), so
//! flit rings get `(latency + 1) × width` slots and credit rings
//! additionally scale by the consuming router's crossbar speedup (its
//! per-cycle credit-return bound). The hot path therefore never allocates.

use crate::channel::{Terminus, TimedRing};
use crate::config::SimConfig;
use crate::fault::FaultMap;
use crate::flit::Flit;
use crate::flit::{PacketHeader, NO_INTERMEDIATE};
use crate::metrics::Metrics;
use crate::network::NetworkDesc;
use crate::oracle::RouteOracle;
use crate::pattern::TrafficPattern;
use crate::router::{
    mark_pending, Arrival, CreditTarget, CycleCtx, EndpointRt, FlitTarget, Msg, PortIn, PortOut,
    RouterRt,
};
use crate::telemetry::{self, PartTrace, TraceRec, Tracer};
use crate::wake::{ep_code, router_code, WakeWheel, EP_BIT};
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

/// One BSP partition: a contiguous block of routers plus their endpoints
/// and the channel queues they own. Cross-partition mailboxes live outside
/// the partition (in `Mailboxes`) so the exchange can run in parallel.
struct Partition {
    routers: Vec<RouterRt>,
    endpoints: Vec<EndpointRt>,
    flit_qs: Vec<TimedRing<Flit>>,
    credit_qs: Vec<TimedRing<u8>>,
    metrics: Metrics,
    moved: u64,
    in_flight: i64,
    /// Packet-arrival events of this cycle (closed-loop runs only; stays
    /// empty — and unallocated — in open-loop runs).
    arrivals: Vec<Arrival>,
    /// This partition's wake wheel ([`WakeWheel::disabled`] when dense).
    wheel: WakeWheel,
    /// Local flit queue index → wake code of the consuming agent.
    flit_cons: Vec<u32>,
    /// Local credit queue index → wake code of the consuming agent.
    credit_cons: Vec<u32>,
    /// Local flit queue index → consuming router's input port.
    flit_cons_port: Vec<u8>,
    /// Local credit queue index → consuming router's output port.
    credit_cons_port: Vec<u8>,
    /// Pending-work bitmaps per local router: bit = input port whose flit
    /// ring, or output port whose credit ring, holds an entry. They let
    /// absorption touch only ports with work and let dense cycles skip
    /// idle routers; maintained in every stepping mode.
    flit_pend: Vec<u64>,
    credit_pend: Vec<u64>,
    /// Worklist dedup stamps: last cycle each local router / endpoint was
    /// enqueued (the wheel allows duplicate pushes).
    r_seen: Vec<u64>,
    e_seen: Vec<u64>,
    /// Next open-loop emission cycle per local endpoint (`u64::MAX` if its
    /// schedule never fires), and the minimum over them.
    next_gen: Vec<u64>,
    gen_min: u64,
    /// Per-cycle worklist scratch (kept to avoid re-allocating).
    work_r: Vec<u32>,
    work_e: Vec<u32>,
    /// Earliest arrival cycle among the cross-partition messages this
    /// partition emitted on its latest advance (`u64::MAX` if none). After
    /// the barrier those messages sit undelivered in the read mailboxes
    /// with no wheel wake yet, so this bounds the idle fast-forward.
    out_min: u64,
    /// Opt-in telemetry state ([`Simulation::attach_trace`]); `None`
    /// keeps the hot path allocation- and branch-cost-free apart from one
    /// `Option` check per emission site.
    trace: Option<Box<PartTrace>>,
}

impl Partition {
    /// Deliver one source partition's mailbox into the channel queues this
    /// partition owns, registering consumer wakes (the producer partition
    /// cannot reach this wheel, so remote messages wake at delivery).
    fn deliver(
        &mut self,
        msgs: &mut Vec<Msg>,
        flit_loc: &[(u32, u32)],
        credit_loc: &[(u32, u32)],
        event: bool,
    ) {
        for msg in msgs.drain(..) {
            match msg {
                Msg::Flit { ch, arrive, flit } => {
                    let (_, idx) = flit_loc[ch as usize];
                    self.flit_qs[idx as usize]
                        .try_push(arrive, flit)
                        .expect("remote flit ring overflow: capacity bound violated");
                    let code = self.flit_cons[idx as usize];
                    mark_pending(&mut self.flit_pend, code, self.flit_cons_port[idx as usize]);
                    if event {
                        self.wheel.push(arrive, code);
                    }
                }
                Msg::Credit { ch, arrive, vc } => {
                    let (_, idx) = credit_loc[ch as usize];
                    self.credit_qs[idx as usize]
                        .try_push(arrive, vc)
                        .expect("remote credit ring overflow: capacity bound violated");
                    let code = self.credit_cons[idx as usize];
                    mark_pending(
                        &mut self.credit_pend,
                        code,
                        self.credit_cons_port[idx as usize],
                    );
                    if event {
                        self.wheel.push(arrive, code);
                    }
                }
            }
        }
    }

    /// Debug-build invariant: every local router's pending bit is set iff
    /// the flit or credit ring behind that port holds an entry. Both
    /// stepping modes read the same bitmaps, so the dense/event
    /// equivalence suites cannot see a missed bit; this check can.
    #[cfg(debug_assertions)]
    fn assert_pending_bitmaps(&self) {
        fn expected<T: Copy>(
            rings: &[TimedRing<T>],
            cons: &[u32],
            port: &[u8],
            n: usize,
        ) -> Vec<u64> {
            let mut want = vec![0u64; n];
            for (q, ring) in rings.iter().enumerate() {
                if !ring.is_empty() {
                    mark_pending(&mut want, cons[q], port[q]);
                }
            }
            want
        }
        let n = self.routers.len();
        assert_eq!(
            self.flit_pend,
            expected(&self.flit_qs, &self.flit_cons, &self.flit_cons_port, n),
            "pending-flit bitmap out of step with the flit rings"
        );
        assert_eq!(
            self.credit_pend,
            expected(
                &self.credit_qs,
                &self.credit_cons,
                &self.credit_cons_port,
                n
            ),
            "pending-credit bitmap out of step with the credit rings"
        );
    }

    /// Advance all endpoints and routers one cycle, appending outbound
    /// cross-partition messages to `outboxes` (this partition's row of the
    /// write-side mailbox buffer). Monomorphizes per oracle/pattern.
    ///
    /// A dense cycle (`event` clear: a saturation storm or dense stepping)
    /// visits every agent in ascending order but skips the idle ones
    /// ([`RouterRt::idle`], [`EndpointRt::idle`]), whose step would be a
    /// strict no-op. With `event` set, only the agents on this cycle's
    /// worklist run: the wake-wheel bucket for `now` (queue pushes,
    /// deliveries, self-wakes, closed-loop submissions) plus every
    /// endpoint whose open-loop emission schedule fires now. An agent off the worklist would have
    /// been a strict no-op in the dense loop — no flit or credit due,
    /// nothing buffered, nothing to generate — so both modes execute the
    /// identical sequence of state changes, in the identical order
    /// (worklists are sorted; endpoints run before routers, as densely).
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
        event: bool,
    ) {
        self.moved = 0;
        self.out_min = u64::MAX;
        let Partition {
            routers,
            endpoints,
            flit_qs,
            credit_qs,
            metrics,
            moved,
            in_flight,
            arrivals,
            wheel,
            flit_cons,
            credit_cons,
            flit_cons_port,
            credit_cons_port,
            flit_pend,
            credit_pend,
            r_seen,
            e_seen,
            next_gen,
            gen_min,
            work_r,
            work_e,
            out_min,
            trace,
        } = self;
        // Telemetry cycle entry: flush any completed sampling window and
        // take the boundary queue-depth sample *before* this cycle's state
        // changes. Runs for every partition at every executed cycle (even
        // with an empty event worklist), which is what makes the emitted
        // stream independent of the stepping mode — see `crate::telemetry`.
        let mut trace = trace.as_deref_mut();
        if let Some(t) = trace.as_deref_mut() {
            t.begin_cycle(now, routers);
        }
        let mut ctx = CycleCtx {
            now,
            flit_qs,
            credit_qs,
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
            event,
            wheel,
            flit_cons,
            credit_cons,
            flit_cons_port,
            credit_cons_port,
            flit_pend,
            credit_pend,
            out_min,
            trace,
        };
        if !event {
            for ep in endpoints.iter_mut() {
                if ep.idle(&ctx, pattern, packet_len) {
                    continue;
                }
                ep.absorb_credits(&mut ctx);
                ep.cycle(&mut ctx, oracle, pattern, packet_len);
            }
            for (lr, r) in routers.iter_mut().enumerate() {
                if r.idle(&ctx, lr as u32) {
                    continue;
                }
                r.cycle(&mut ctx, oracle, lr as u32);
            }
            return;
        }

        // Build the worklist: generation wakes first (deduped against the
        // wheel with the same cycle stamps), then this cycle's bucket.
        work_r.clear();
        work_e.clear();
        let gen_due = ctx.injecting && *gen_min <= now;
        if gen_due {
            for (e, ng) in next_gen.iter().enumerate() {
                if *ng <= now && e_seen[e] != now {
                    e_seen[e] = now;
                    work_e.push(e as u32);
                }
            }
        }
        let mut bucket = std::mem::take(ctx.wheel.bucket_mut(now));
        for &code in &bucket {
            if code & EP_BIT != 0 {
                let e = (code & !EP_BIT) as usize;
                if e_seen[e] != now {
                    e_seen[e] = now;
                    work_e.push(e as u32);
                }
            } else if r_seen[code as usize] != now {
                r_seen[code as usize] = now;
                work_r.push(code);
            }
        }
        bucket.clear();
        *ctx.wheel.bucket_mut(now) = bucket;

        // Replay the dense iteration order: ascending ids, endpoints before
        // routers. Near saturation the worklist covers most of the
        // partition, and a stamp scan produces it already ordered for O(n) —
        // cheaper than sorting the bucket-ordered list.
        if work_e.len() >= endpoints.len() / 4 {
            work_e.clear();
            for (e, seen) in e_seen.iter().enumerate() {
                if *seen == now {
                    work_e.push(e as u32);
                }
            }
        } else {
            work_e.sort_unstable();
        }
        if work_r.len() >= routers.len() / 4 {
            work_r.clear();
            for (r, seen) in r_seen.iter().enumerate() {
                if *seen == now {
                    work_r.push(r as u32);
                }
            }
        } else {
            work_r.sort_unstable();
        }
        for &e in work_e.iter() {
            let ep = &mut endpoints[e as usize];
            ep.absorb_credits(&mut ctx);
            ep.cycle(&mut ctx, oracle, pattern, packet_len);
            if ep.backlog() > 0 {
                ctx.wheel.push(now + 1, ep_code(e as usize));
            }
        }
        for &rc in work_r.iter() {
            let r = &mut routers[rc as usize];
            r.cycle(&mut ctx, oracle, rc);
            if r.buffered() > 0 {
                ctx.wheel.push(now + 1, router_code(rc as usize));
            }
        }

        // Re-arm the emission schedule for every endpoint that fired.
        if gen_due {
            for &e in work_e.iter() {
                let ei = e as usize;
                if next_gen[ei] <= now {
                    next_gen[ei] = endpoints[ei].next_gen_cycle(pattern, packet_len, now + 1);
                }
            }
            *gen_min = next_gen.iter().copied().min().unwrap_or(u64::MAX);
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
        flit_loc: &[(u32, u32)],
        credit_loc: &[(u32, u32)],
        packet_len: u8,
        collect_arrivals: bool,
        event: bool,
    ) {
        let part = &mut *self.parts.add(p);
        // Drain this partition's in-edges in ascending source order (the
        // same deterministic order the dense column walk used to impose —
        // non-adjacent sources never had anything to contribute).
        for &e in &self.in_flat[self.in_start[p] as usize..self.in_start[p + 1] as usize] {
            let cell = &mut *self.read.add(e as usize);
            *self.drained.add(e as usize) += cell.len() as u64;
            part.deliver(cell, flit_loc, credit_loc, event);
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
            event,
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
    /// channel id → (owning partition, local flit-queue index)
    flit_loc: Vec<(u32, u32)>,
    /// channel id → (owning partition, local credit-queue index)
    credit_loc: Vec<(u32, u32)>,
    /// endpoint id → (owning partition, local endpoint index)
    ep_loc: Vec<(u32, u32)>,
    /// endpoint id → attach router id (canonical arrival ordering).
    ep_router: Vec<u32>,
    now: u64,
    endpoints_total: u64,
    packet_len: u8,
    /// Event-driven stepping enabled (compiled in from the config).
    event: bool,
    /// Cycles actually simulated / fast-forwarded over (metrics).
    busy_cycles: u64,
    skipped_cycles: u64,
    /// Saturation storm: event stepping has fallen back to dense cycles,
    /// which skip idle agents without any wheel bookkeeping
    /// (see [`update_regime`](Self::update_regime)).
    storm: bool,
    /// Consecutive saturated cycles observed while not yet in a storm.
    storm_hot: u32,
    /// Total agents (routers + endpoints): the storm-entry threshold base.
    agents: u64,
    /// Telemetry emit handle ([`Simulation::attach_trace`]); `None` = off.
    tracer: Option<Tracer>,
    /// Serial-section scratch: records drained from the partitions at the
    /// barrier, canonicalized and shipped by `emit_trace_batch`.
    trace_batch: Vec<TraceRec>,
}

/// Consecutive cycles with ≥ a quarter of all agents moving flits before
/// the event engine declares a saturation storm and drops to dense
/// stepping (hysteresis against entering on a single bursty cycle).
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

        // Queue ownership: flit queue with the channel's consumer, credit
        // queue with the channel's producer (endpoints live with their
        // router's partition). Ring capacities come from the physical
        // channel bound — see the module docs.
        let home = |t: &Terminus| -> u32 {
            match t {
                Terminus::Router { router, .. } => part_of(*router as usize),
                Terminus::Endpoint { endpoint } => {
                    part_of(net.endpoints[*endpoint as usize].router as usize)
                }
            }
        };
        let mut flit_loc = Vec::with_capacity(net.channels.len());
        let mut credit_loc = Vec::with_capacity(net.channels.len());
        let mut flit_caps: Vec<Vec<usize>> = vec![Vec::new(); nparts];
        let mut credit_caps: Vec<Vec<usize>> = vec![Vec::new(); nparts];
        for ch in &net.channels {
            // Credits for a channel are returned by its consuming router,
            // whose per-cycle forwarding (and hence credit) bound is
            // `width × speedup`; endpoints consume at channel width.
            let consumer_speedup = match ch.dst {
                Terminus::Router { router, .. } => {
                    net.routers[router as usize].speedup.max(1) as usize
                }
                Terminus::Endpoint { .. } => 1,
            };
            let base = (ch.latency as usize + 1) * ch.width as usize;
            let fp = home(&ch.dst);
            flit_loc.push((fp, flit_caps[fp as usize].len() as u32));
            flit_caps[fp as usize].push(base);
            let cp = home(&ch.src);
            credit_loc.push((cp, credit_caps[cp as usize].len() as u32));
            credit_caps[cp as usize].push(base * consumer_speedup);
        }

        let mut partitions: Vec<Partition> = flit_caps
            .iter()
            .zip(credit_caps.iter())
            .map(|(fc, cc)| Partition {
                routers: Vec::new(),
                endpoints: Vec::new(),
                flit_qs: fc.iter().map(|&c| TimedRing::with_capacity(c)).collect(),
                credit_qs: cc.iter().map(|&c| TimedRing::with_capacity(c)).collect(),
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
                wheel: WakeWheel::disabled(),
                flit_cons: Vec::new(),
                credit_cons: Vec::new(),
                flit_cons_port: Vec::new(),
                credit_cons_port: Vec::new(),
                flit_pend: Vec::new(),
                credit_pend: Vec::new(),
                r_seen: Vec::new(),
                e_seen: Vec::new(),
                next_gen: Vec::new(),
                gen_min: u64::MAX,
                work_r: Vec::new(),
                work_e: Vec::new(),
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
        // Port wiring. Routers were pushed in ascending global id order,
        // so a router's partition-local index is its insertion rank within
        // its partition (works for any assignment, contiguous or not).
        let local_idx: Vec<u32> = {
            let mut counts = vec![0u32; nparts];
            (0..nr)
                .map(|r| {
                    let p = part_of(r) as usize;
                    let idx = counts[p];
                    counts[p] += 1;
                    idx
                })
                .collect()
        };
        let local_router = |r: u32| -> (usize, usize) {
            (part_of(r as usize) as usize, local_idx[r as usize] as usize)
        };

        // Partition adjacency: every live cross-partition channel induces a
        // flit edge (producer partition → consumer partition, i.e. the
        // credit-queue home → flit-queue home) and a credit edge in the
        // opposite direction. Dead channels are skipped, so a `seal`-ed
        // fault map shrinks the graph consistently with the dead-channel
        // traversal asserts.
        let mut adj_edges: Vec<(u32, u32)> = Vec::new();
        for c in 0..net.channels.len() {
            if channel_dead(c) {
                continue;
            }
            let (fp, _) = flit_loc[c];
            let (cp, _) = credit_loc[c];
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

        for (c, ch) in net.channels.iter().enumerate() {
            let (fp, fq) = flit_loc[c];
            let (cp, cq) = credit_loc[c];
            // Output side.
            if let Terminus::Router { router, port } = ch.src {
                let (p, lr) = local_router(router);
                let flit_to = if fp as usize == p {
                    FlitTarget::Local(fq)
                } else {
                    FlitTarget::Remote {
                        slot: remote_slot(p as u32, fp, channel_dead(c)),
                        ch: c as u32,
                    }
                };
                partitions[p].routers[lr].wire_out(
                    port,
                    PortOut {
                        ch: c as u32,
                        credit_q: cq,
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
            if let Terminus::Router { router, port } = ch.dst {
                let (p, lr) = local_router(router);
                let credit_to = if cp as usize == p {
                    CreditTarget::Local(cq)
                } else {
                    CreditTarget::Remote {
                        slot: remote_slot(p as u32, cp, channel_dead(c)),
                        ch: c as u32,
                    }
                };
                partitions[p].routers[lr].wire_in(
                    port,
                    PortIn {
                        flit_q: fq,
                        credit_to,
                        credit_latency: ch.latency,
                        width: ch.width,
                    },
                );
            }
        }

        // Endpoints: locate their injection/ejection channels.
        let mut inj_of = vec![usize::MAX; net.num_endpoints()];
        let mut ej_of = vec![usize::MAX; net.num_endpoints()];
        for (c, ch) in net.channels.iter().enumerate() {
            if let Terminus::Endpoint { endpoint } = ch.src {
                inj_of[endpoint as usize] = c;
            }
            if let Terminus::Endpoint { endpoint } = ch.dst {
                ej_of[endpoint as usize] = c;
            }
        }
        let mut ep_loc = Vec::with_capacity(net.num_endpoints());
        for (e, ed) in net.endpoints.iter().enumerate() {
            let p = part_of(ed.router as usize) as usize;
            ep_loc.push((p as u32, partitions[p].endpoints.len() as u32));
            let inj = inj_of[e];
            let ej = ej_of[e];
            let inj_ch = &net.channels[inj];
            let ej_ch = &net.channels[ej];
            let (ifp, ifq) = flit_loc[inj];
            let inj_to = if ifp as usize == p {
                FlitTarget::Local(ifq)
            } else {
                FlitTarget::Remote {
                    slot: remote_slot(p as u32, ifp, channel_dead(inj)),
                    ch: inj as u32,
                }
            };
            let (icp, icq) = credit_loc[inj];
            debug_assert_eq!(icp as usize, p, "inj credit queue must be local");
            let (efp, efq) = flit_loc[ej];
            debug_assert_eq!(efp as usize, p, "ejection flit queue must be local");
            let (ecp, ecq) = credit_loc[ej];
            let ej_credit_to = if ecp as usize == p {
                CreditTarget::Local(ecq)
            } else {
                CreditTarget::Remote {
                    slot: remote_slot(p as u32, ecp, channel_dead(ej)),
                    ch: ej as u32,
                }
            };
            partitions[p].endpoints.push(EndpointRt::new(
                e as u32,
                cfg.num_vcs,
                cfg.buffer_flits,
                inj as u32,
                inj_to,
                icq,
                inj_ch.latency,
                inj_ch.width,
                efq,
                ej_credit_to,
                ej_ch.latency,
                cfg.seed,
                channel_dead(inj),
            ));
        }

        // Consumer maps (queue index → wake code) for the wake wheel and
        // the pending-work bitmaps: a channel's flits wake its dst, its
        // credits wake its src (the flit producer absorbs credit returns).
        let mut flit_cons: Vec<Vec<u32>> =
            flit_caps.iter().map(|v| vec![u32::MAX; v.len()]).collect();
        let mut credit_cons: Vec<Vec<u32>> = credit_caps
            .iter()
            .map(|v| vec![u32::MAX; v.len()])
            .collect();
        let mut flit_cons_port: Vec<Vec<u8>> =
            flit_caps.iter().map(|v| vec![0u8; v.len()]).collect();
        let mut credit_cons_port: Vec<Vec<u8>> =
            credit_caps.iter().map(|v| vec![0u8; v.len()]).collect();
        for (c, ch) in net.channels.iter().enumerate() {
            let (fp, fq) = flit_loc[c];
            match ch.dst {
                Terminus::Router { router, port } => {
                    flit_cons[fp as usize][fq as usize] = router_code(local_router(router).1);
                    flit_cons_port[fp as usize][fq as usize] = port;
                }
                Terminus::Endpoint { endpoint } => {
                    flit_cons[fp as usize][fq as usize] =
                        ep_code(ep_loc[endpoint as usize].1 as usize);
                }
            }
            let (cp, cq) = credit_loc[c];
            match ch.src {
                Terminus::Router { router, port } => {
                    credit_cons[cp as usize][cq as usize] = router_code(local_router(router).1);
                    credit_cons_port[cp as usize][cq as usize] = port;
                }
                Terminus::Endpoint { endpoint } => {
                    credit_cons[cp as usize][cq as usize] =
                        ep_code(ep_loc[endpoint as usize].1 as usize);
                }
            }
        }
        // Wake dues never exceed now + max channel latency (self-wakes are
        // now + 1), which bounds the wheel size — see `crate::wake`.
        let maxlat = net
            .channels
            .iter()
            .map(|c| c.latency as u64)
            .max()
            .unwrap_or(1)
            .max(1);
        for (p, part) in partitions.iter_mut().enumerate() {
            part.flit_cons = std::mem::take(&mut flit_cons[p]);
            part.credit_cons = std::mem::take(&mut credit_cons[p]);
            part.flit_cons_port = std::mem::take(&mut flit_cons_port[p]);
            part.credit_cons_port = std::mem::take(&mut credit_cons_port[p]);
            part.flit_pend = vec![0; part.routers.len()];
            part.credit_pend = vec![0; part.routers.len()];
            part.r_seen = vec![u64::MAX; part.routers.len()];
            part.e_seen = vec![u64::MAX; part.endpoints.len()];
            part.next_gen = vec![u64::MAX; part.endpoints.len()];
            if cfg.event_driven {
                part.wheel = WakeWheel::new(maxlat, part.routers.len(), part.endpoints.len());
            }
        }

        Ok(Simulation {
            cfg: cfg.clone(),
            oracle,
            exch,
            partitions,
            flit_loc,
            credit_loc,
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
    /// the canonical `(cycle, kind, id)` order, and hands it to the
    /// tracer's writer thread. Simulated state never depends on any of it,
    /// and the emitted bytes are identical for every partition count,
    /// worker count, and stepping mode.
    pub fn attach_trace(&mut self, tracer: &Tracer) {
        let cfg = tracer.config();
        let channels = self.flit_loc.len();
        let endpoints = self.ep_loc.len();
        for part in &mut self.partitions {
            part.trace = Some(Box::new(PartTrace::new(cfg, channels, endpoints)));
        }
        self.tracer = Some(tracer.clone());
    }

    /// Canonicalize and ship the batch drained since the last emit.
    fn emit_trace_batch(&mut self) {
        if self.trace_batch.is_empty() {
            return;
        }
        telemetry::canonicalize(&mut self.trace_batch);
        match &self.tracer {
            Some(t) => t.emit(std::mem::take(&mut self.trace_batch)),
            None => self.trace_batch.clear(),
        }
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
        if self.event {
            self.init_gen(pattern);
        }
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
                    event,
                    storm,
                    ..
                } = self;
                let mut inj = Injector {
                    parts: partitions,
                    ep_loc,
                    oracle,
                    now: *now,
                    // During a storm the wheels are unmaintained; skipping
                    // submission wakes keeps stale buckets from piling up
                    // (the post-storm reseed re-wakes queued endpoints).
                    event: *event && !*storm,
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
            if self.update_regime(moved) {
                // Storm over: the wheels and the emission schedule went
                // stale while stepping densely — rebuild both.
                self.reseed();
                self.init_gen(pattern);
            }
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
                self.check_pending();
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
        self.check_pending();
        self.finish_trace();
        let measured = if plan.closed {
            self.now
        } else {
            self.cfg.measure_cycles
        };
        Ok(self.collect(measured))
    }

    /// Earliest cycle ≥ `now` at which any partition has pending work:
    /// the minimum wheel due time, plus (while injecting) the earliest
    /// open-loop emission. Undelivered cross-partition messages pin the
    /// next event to `now` — their consumer wakes are only registered at
    /// delivery, so jumping over them would lose work.
    fn next_event_cycle(&self, gen_live: bool) -> u64 {
        let mut t = u64::MAX;
        for p in &self.partitions {
            if let Some(d) = p.wheel.next_due(self.now) {
                t = t.min(d);
            }
            // Cross-partition messages sitting undelivered in the read
            // mailboxes have no wheel wake yet (it registers at delivery),
            // so their earliest arrival caps the jump: the set of pending
            // event cycles — and therefore the busy/skipped split — is the
            // same for every partition count.
            t = t.min(p.out_min);
            if gen_live {
                t = t.min(p.gen_min);
            }
        }
        t.max(self.now)
    }

    /// Saturation-storm hysteresis on the merged per-cycle `moved` count.
    ///
    /// Under heavy load wake-wheel maintenance and jump checks cost more
    /// than they save: once the merged flit-movement count reaches a
    /// quarter of the agent count for [`STORM_ENTER`] consecutive cycles,
    /// the engine enters a *storm* and steps densely (the `event` flag
    /// handed to the cycle workers goes false — no wheel pushes, no
    /// worklists, no fast-forwards; idle agents are still skipped through
    /// the pending-work bitmaps, see the module docs). The first globally
    /// idle cycle (`moved == 0`) ends the storm; the caller must then
    /// [`reseed`](Self::reseed) the wheels from live queue/agent state
    /// before event stepping resumes — this returns `true` exactly then.
    ///
    /// Dense and event cycles execute identical state transitions, so the
    /// regime switch cannot change results; and every input here (the
    /// merged `moved` sum, the agent count) is partition- and
    /// worker-invariant, so the regime schedule — and with it the
    /// busy/skipped split — stays bit-identical across the determinism
    /// matrix.
    fn update_regime(&mut self, moved: u64) -> bool {
        if !self.event {
            return false;
        }
        if self.storm {
            if moved == 0 {
                self.storm = false;
                self.storm_hot = 0;
                return true;
            }
        } else if moved * 4 >= self.agents {
            self.storm_hot += 1;
            if self.storm_hot >= STORM_ENTER {
                self.storm = true;
            }
        } else {
            self.storm_hot = 0;
        }
        false
    }

    /// Rebuild every wake wheel from live state after a dense storm
    /// interval, during which the wheels went stale: pending flit/credit
    /// ring entries wake their consumer at their due cycle; routers with
    /// buffered flits and endpoints with queued (or partially serialized —
    /// a packet stays queued until its tail goes) packets wake immediately.
    /// Messages still undelivered in the mailboxes are covered by
    /// `out_min`, which every advance tracks. All pending dues lie in
    /// `[now, now + max_latency)` — older entries were absorbed by the
    /// dense cycles themselves — so the wheel's no-alias bound holds.
    fn reseed(&mut self) {
        self.check_pending();
        let now = self.now;
        for part in &mut self.partitions {
            let Partition {
                routers,
                endpoints,
                flit_qs,
                credit_qs,
                wheel,
                flit_cons,
                credit_cons,
                ..
            } = part;
            wheel.reset();
            for (q, ring) in flit_qs.iter().enumerate() {
                for due in ring.dues() {
                    wheel.push(due.max(now), flit_cons[q]);
                }
            }
            for (q, ring) in credit_qs.iter().enumerate() {
                for due in ring.dues() {
                    wheel.push(due.max(now), credit_cons[q]);
                }
            }
            for (lr, r) in routers.iter().enumerate() {
                if r.buffered() > 0 {
                    wheel.push(now, router_code(lr));
                }
            }
            for (le, e) in endpoints.iter().enumerate() {
                if e.backlog() > 0 {
                    wheel.push(now, ep_code(le));
                }
            }
        }
    }

    /// Debug builds: assert every partition's pending bitmaps against its
    /// rings (see `Partition::assert_pending_bitmaps`). Runs at every storm
    /// reseed and at the end of every run; free in release builds.
    fn check_pending(&self) {
        #[cfg(debug_assertions)]
        for part in &self.partitions {
            part.assert_pending_bitmaps();
        }
    }

    /// Prime the per-endpoint open-loop emission schedule (event mode).
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
        let flit_loc = &self.flit_loc;
        let credit_loc = &self.credit_loc;
        let packet_len = self.packet_len;
        let oracle = &self.oracle;

        let event = self.event && !self.storm;
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
                        flit_loc,
                        credit_loc,
                        packet_len,
                        collect_arrivals,
                        event,
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
    event: bool,
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
    /// the top 8 are reserved for the engine's in-network VC stamp) and
    /// comes back verbatim in the matching [`Arrival`]. The packet is
    /// tagged by the routing oracle (Valiant intermediate groups etc.)
    /// using the source endpoint's deterministic RNG stream and then
    /// queued; `Metrics::packets_created` counts it this cycle.
    ///
    /// # Panics
    /// If `src`/`dst` are out of range, equal, `len` is 0, or `id` uses
    /// the reserved top 8 bits (the in-network VC stamp would corrupt it
    /// and the [`Arrival`] would come back with a different id).
    pub fn submit(&mut self, src: u32, dst: u32, id: u64, len: u8) {
        assert!(len >= 1, "zero-length packet");
        assert_ne!(src, dst, "closed-loop self-traffic is not routable");
        assert_eq!(
            id >> 56,
            0,
            "packet id {id:#x} overlaps the reserved VC-stamp bits"
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
        if self.event {
            // The submission's bucket is drained inside the upcoming step.
            part.wheel.push(self.now, ep_code(e as usize));
        }
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
                1,
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
        // pending bitmaps.
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
