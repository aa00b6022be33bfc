//! Delegating wrappers that count or time calls into a layer from the
//! outside: the routing oracle, the traffic pattern and the workload
//! driver. None of them changes what the wrapped object returns, so a
//! replay through them reproduces the untraced run exactly.
//!
//! Oracle and pattern calls happen on the BSP worker threads, so they are
//! counted in plain thread-local cells (no shared cache line on the hot
//! path) and collected with one pool broadcast after each simulation.

use crate::span::Recorder;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use wsdf::sim::{
    Arrival, BspPool, Injector, PacketHeader, RouteChoice, RouteOracle, SplitMix64, TraceRec,
    TrafficPattern, WorkloadDriver,
};

std::thread_local! {
    static ROUTE_CALLS: Cell<u64> = const { Cell::new(0) };
    static DEST_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Oracle wrapper counting `route` calls.
pub struct CountingOracle<O>(pub O);

impl<O: RouteOracle> RouteOracle for CountingOracle<O> {
    fn route(
        &self,
        router: u32,
        in_port: u8,
        in_vc: u8,
        pkt: &PacketHeader,
        rng: &mut SplitMix64,
    ) -> RouteChoice {
        ROUTE_CALLS.with(|c| c.set(c.get() + 1));
        self.0.route(router, in_port, in_vc, pkt, rng)
    }
    fn initial_vc(&self, pkt: &PacketHeader) -> u8 {
        self.0.initial_vc(pkt)
    }
    fn num_vcs(&self) -> u8 {
        self.0.num_vcs()
    }
    fn tag_packet(&self, pkt: &mut PacketHeader, rng: &mut SplitMix64) {
        self.0.tag_packet(pkt, rng)
    }
}

/// Pattern wrapper counting `dest` calls. The count never feeds back
/// into a result, so the pattern contract (results are a pure function
/// of the arguments) still holds.
pub struct CountingPattern<'a>(pub &'a dyn TrafficPattern);

impl TrafficPattern for CountingPattern<'_> {
    fn rate(&self, src: u32) -> f64 {
        self.0.rate(src)
    }
    fn dest(&self, src: u32, seq: u64, rng: &mut SplitMix64) -> Option<u32> {
        DEST_CALLS.with(|c| c.set(c.get() + 1));
        self.0.dest(src, seq, rng)
    }
    fn active_fraction(&self) -> f64 {
        self.0.active_fraction()
    }
}

/// Collect and reset the route and dest counts of every pool thread.
/// Slot 0 is the calling thread and slot `i + 1` always runs on worker
/// `i`, so one broadcast over all slots visits every thread that ran
/// simulation work.
pub fn harvest(pool: &BspPool) -> (u64, u64) {
    let route = AtomicU64::new(0);
    let dest = AtomicU64::new(0);
    pool.broadcast(pool.workers(), |_| {
        // Relaxed: plain statistics; the broadcast's completion wait
        // orders these adds before the loads below.
        route.fetch_add(ROUTE_CALLS.with(|c| c.replace(0)), Ordering::Relaxed);
        dest.fetch_add(DEST_CALLS.with(|c| c.replace(0)), Ordering::Relaxed);
    });
    (route.into_inner(), dest.into_inner())
}

/// Workload-driver wrapper recording a `workload.driver` span around
/// every `pre_cycle`, `on_arrivals` and `next_release` call. The
/// recorder sits in a `RefCell` because `next_release` takes `&self`.
pub struct TimedDriver<'r, D> {
    /// The wrapped driver.
    pub inner: D,
    rec: RefCell<&'r mut Recorder>,
}

impl<'r, D> TimedDriver<'r, D> {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: D, rec: &'r mut Recorder) -> Self {
        TimedDriver {
            inner,
            rec: RefCell::new(rec),
        }
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let id = self.rec.borrow_mut().enter("workload.driver");
        let out = f();
        self.rec.borrow_mut().exit(id);
        out
    }
}

impl<D: WorkloadDriver> WorkloadDriver for TimedDriver<'_, D> {
    fn pre_cycle(&mut self, now: u64, inj: &mut Injector<'_>) {
        let id = self.rec.get_mut().enter("workload.driver");
        self.inner.pre_cycle(now, inj);
        self.rec.get_mut().exit(id);
    }
    fn on_arrivals(&mut self, now: u64, arrivals: &[Arrival]) {
        let id = self.rec.get_mut().enter("workload.driver");
        self.inner.on_arrivals(now, arrivals);
        self.rec.get_mut().exit(id);
    }
    fn done(&self) -> bool {
        self.inner.done()
    }
    fn next_release(&self) -> Option<u64> {
        self.timed(|| self.inner.next_release())
    }
    fn drain_trace(&mut self, out: &mut Vec<TraceRec>) {
        self.inner.drain_trace(out)
    }
}
