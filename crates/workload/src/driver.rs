//! The closed-loop driver: releases DAG messages into the engine as their
//! dependencies complete, and runs the simulation to quiescence.
//!
//! Determinism: every decision is a function of message completion cycles
//! (which the engine reports bit-identically for any partition/worker
//! count) and ties are broken by message id, so a collective's completion
//! time is a *property of the network*, not of the execution schedule —
//! the determinism matrix in `tests/workload_collectives.rs` pins this
//! down.

use crate::collective::{Rows, Workload};
use crate::message::{msg_of, packet_id, segments, Reassembly};
use std::collections::BTreeSet;
use wsdf_exec::BspPool;
use wsdf_sim::{
    Arrival, FaultMap, Injector, Metrics, NetworkDesc, RouteOracle, SimConfig, SimResult,
    Simulation, Tracer, WorkloadDriver,
};

/// Timing of one workload phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase label (from [`Workload::phases`]).
    pub name: String,
    /// Messages in this phase.
    pub messages: u64,
    /// Payload flits in this phase.
    pub flits: u64,
    /// Cycle the first message of the phase became eligible.
    pub start: u64,
    /// Cycle the last message of the phase fully arrived.
    pub end: u64,
}

impl PhaseStat {
    /// Achieved phase bandwidth in flits/cycle (payload over the phase's
    /// eligible-to-complete span).
    pub fn achieved_flits_per_cycle(&self) -> f64 {
        let span = self.end.saturating_sub(self.start).max(1);
        self.flits as f64 / span as f64
    }
}

/// Result of one closed-loop collective run.
#[derive(Debug, Clone)]
pub struct WorkloadOutcome {
    /// End-to-end completion time: the cycle the last message of the
    /// workload fully arrived at its destination.
    pub completion_cycles: u64,
    /// Engine metrics over the whole run (packet latency histogram,
    /// injected/ejected flit counts, ... — `measure_cycles` equals the
    /// cycles simulated to quiescence).
    pub metrics: Metrics,
    /// Per-phase timing, in [`Workload::phases`] order.
    pub phases: Vec<PhaseStat>,
    /// Completion cycle of every message, in message-id order.
    pub message_completion: Vec<u64>,
}

/// The `ready` entry that stands for every root of a DAG, queued at the
/// cycle the roots become eligible. Until a root completes, the roots are
/// exactly the messages with no outstanding predecessor, so submitting
/// those in id order when the entry comes up submits what one entry per
/// root would have, in the same order, without an entry each. Message ids
/// stay below the message budget, so no id is `u32::MAX`.
pub(crate) const ROOTS: u32 = u32::MAX;

/// Closed-loop scheduler state for one [`Workload`] run; implements the
/// engine's [`WorkloadDriver`] hook.
pub struct ClosedLoop<'a> {
    wl: &'a Workload,
    packet_len: u8,
    /// Outstanding predecessor count per message.
    waiting: Vec<u32>,
    succs: Rows,
    reasm: Reassembly,
    /// Completion cycle per message (`u64::MAX` = not yet complete).
    completed_at: Vec<u64>,
    /// Eligible-but-not-yet-submitted messages, ordered by
    /// (eligible cycle, message id) — the deterministic submission order.
    /// The roots are one [`ROOTS`] entry at cycle 0; every other message
    /// becomes eligible at cycle 1 or later.
    ready: BTreeSet<(u64, u32)>,
    /// First-eligible cycle per phase (`u64::MAX` until a message of the
    /// phase becomes eligible).
    phase_start: Vec<u64>,
    completed: usize,
}

impl<'a> ClosedLoop<'a> {
    /// Driver for `wl`, segmenting messages into packets of at most
    /// `packet_len` flits (use the run's `SimConfig::packet_len`).
    pub fn new(wl: &'a Workload, packet_len: u8) -> Self {
        let waiting: Vec<u32> = wl.pred_counts().collect();
        let mut phase_start = vec![u64::MAX; wl.phases.len()];
        for (i, &w) in waiting.iter().enumerate() {
            if w == 0 {
                let ph = wl.messages()[i].phase as usize;
                phase_start[ph] = 0;
            }
        }
        let mut ready = BTreeSet::new();
        if waiting.contains(&0) {
            ready.insert((0u64, ROOTS));
        }
        ClosedLoop {
            wl,
            packet_len,
            waiting,
            succs: wl.successors(),
            reasm: Reassembly::new(wl.messages().iter().map(|m| m.flits)),
            completed_at: vec![u64::MAX; wl.len()],
            ready,
            phase_start,
            completed: 0,
        }
    }

    /// Messages completed so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Queue every packet of message `m` at its source.
    fn submit(&self, m: u32, inj: &mut Injector<'_>) {
        let msg = self.wl.messages()[m as usize];
        for (seq, len) in segments(msg.flits, self.packet_len) {
            inj.submit(msg.src, msg.dst, packet_id(m, seq), len);
        }
    }

    /// Consume the driver into a [`WorkloadOutcome`] (call after the
    /// engine reached quiescence; `metrics` is the engine's return value).
    pub fn into_outcome(self, metrics: Metrics) -> WorkloadOutcome {
        assert_eq!(
            self.completed,
            self.wl.len(),
            "outcome of an unfinished run"
        );
        let mut phases: Vec<PhaseStat> = self
            .wl
            .phases
            .iter()
            .enumerate()
            .map(|(i, name)| PhaseStat {
                name: name.clone(),
                messages: 0,
                flits: 0,
                start: self.phase_start[i],
                end: 0,
            })
            .collect();
        for (m, msg) in self.wl.messages().iter().enumerate() {
            let ph = &mut phases[msg.phase as usize];
            ph.messages += 1;
            ph.flits += msg.flits;
            ph.end = ph.end.max(self.completed_at[m]);
        }
        WorkloadOutcome {
            completion_cycles: self.completed_at.iter().copied().max().unwrap_or(0),
            metrics,
            phases,
            message_completion: self.completed_at,
        }
    }
}

impl WorkloadDriver for ClosedLoop<'_> {
    fn pre_cycle(&mut self, now: u64, inj: &mut Injector<'_>) {
        while let Some(&(at, m)) = self.ready.iter().next() {
            if at > now {
                break;
            }
            self.ready.remove(&(at, m));
            if m != ROOTS {
                self.submit(m, inj);
                continue;
            }
            for r in 0..self.waiting.len() as u32 {
                if self.waiting[r as usize] == 0 {
                    self.submit(r, inj);
                }
            }
        }
    }

    fn on_arrivals(&mut self, _now: u64, arrivals: &[Arrival]) {
        for a in arrivals {
            let m = msg_of(a.id);
            let Some(done_at) = self.reasm.on_packet(m, a.flits, a.arrive) else {
                continue;
            };
            self.completed_at[m as usize] = done_at;
            self.completed += 1;
            for &s in self.succs.row(m) {
                let w = &mut self.waiting[s as usize];
                *w -= 1;
                if *w == 0 {
                    // Eligible the cycle after its last dependency landed.
                    let at = done_at + 1;
                    self.ready.insert((at, s));
                    let ph = self.wl.messages()[s as usize].phase as usize;
                    self.phase_start[ph] = self.phase_start[ph].min(at);
                }
            }
        }
    }

    fn done(&self) -> bool {
        self.completed == self.wl.len()
    }

    fn next_release(&self) -> Option<u64> {
        // The ready set is keyed by eligible cycle, so its first entry is
        // exactly the next cycle `pre_cycle` submits at; an empty set means
        // everything outstanding is in flight and the engine may
        // fast-forward to its own next event.
        Some(self.ready.iter().next().map_or(u64::MAX, |&(at, _)| at))
    }
}

/// Run `wl` closed-loop on `net` with `oracle`, on an explicit executor.
///
/// Validates the workload, compiles the simulation, drives it to
/// quiescence (no fixed cycle budget — the run ends when every message
/// has reassembled and the network is empty), and returns completion
/// times plus engine metrics. `cfg`'s open-loop window fields
/// (warm-up/measure/drain) are ignored; its `packet_len`, buffering, VC,
/// partitioning and watchdog settings all apply.
///
/// `faults: None` is the pristine path; `Some` arms the engine's
/// dead-channel asserts, so the workload must only use live, mutually
/// routable endpoints (a fault-aware oracle panics otherwise). `trace:
/// Some` streams the engine's link/queue/latency records for the whole
/// run; the outcome is bit-identical without it.
pub fn run_collective_traced_on<O: RouteOracle>(
    net: &NetworkDesc,
    cfg: &SimConfig,
    oracle: O,
    wl: &Workload,
    pool: &BspPool,
    faults: Option<&FaultMap>,
    trace: Option<&Tracer>,
) -> SimResult<WorkloadOutcome> {
    wl.validate(net.num_endpoints() as u32)
        .map_err(wsdf_sim::SimError::Invalid)?;
    let mut sim = Simulation::with_faults(net, cfg, oracle, faults)?;
    if let Some(t) = trace {
        sim.attach_trace(t);
    }
    let mut driver = ClosedLoop::new(wl, cfg.packet_len);
    let metrics = sim.run_closed_loop_on(pool, &mut driver)?;
    Ok(driver.into_outcome(metrics))
}
