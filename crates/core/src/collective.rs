//! Closed-loop collective runs on a [`Bench`], and their reports.
//!
//! Where [`mod@crate::sweep`] asks *"what latency at what offered rate?"*,
//! this module asks the closed-loop question: *"how long does this
//! collective take on this fabric?"*
//! [`Session::workload`](crate::Session::workload) drives a
//! [`wsdf_workload::Workload`] DAG through the bench's monomorphized
//! engine to quiescence and wraps the outcome in a [`WorkloadReport`] —
//! completion cycles, achieved bandwidth per phase, and the packet-latency
//! distribution — written and read by the same [`crate::json`] field
//! tables as the figure reports.

use crate::bench::{with_oracle, Bench};
use crate::json::{self, Json, Value};
use wsdf_exec::BspPool;
use wsdf_sim::{json_object, Metrics, SimConfig, SimResult, Tracer};
use wsdf_workload::{run_collective_traced_on, Workload, WorkloadOutcome};

/// Unit conversions for bandwidth reporting.
///
/// The simulator works in flits and cycles; Gb/s needs a flit size and a
/// clock. The defaults match the layout model's short-reach port
/// (`wsdf_analysis::WaferLayout`: 128 lanes × 32 Gb/s = 4096 Gb/s at a
/// 1 GHz core clock → a 1 flit/cycle channel carries 512-byte flits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadUnits {
    /// Payload bytes per flit.
    pub flit_bytes: f64,
    /// Core clock in GHz (cycles per nanosecond).
    pub clock_ghz: f64,
}

impl Default for WorkloadUnits {
    fn default() -> Self {
        WorkloadUnits {
            flit_bytes: 512.0,
            clock_ghz: 1.0,
        }
    }
}

impl WorkloadUnits {
    /// Achieved bandwidth in Gb/s for `flits` delivered over `cycles`.
    pub fn gbps(&self, flits: u64, cycles: u64) -> f64 {
        let cycles = cycles.max(1) as f64;
        flits as f64 * self.flit_bytes * 8.0 * self.clock_ghz / cycles
    }
}

/// Timing and bandwidth of one workload phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseReport {
    /// Phase label (e.g. `reduce-scatter`).
    pub name: String,
    /// Messages in the phase.
    pub messages: u64,
    /// Payload flits in the phase.
    pub flits: u64,
    /// Cycle the phase's first message became eligible.
    pub start_cycle: u64,
    /// Cycle the phase's last message fully arrived.
    pub end_cycle: u64,
    /// Payload over the phase span, flits/cycle.
    pub achieved_flits_per_cycle: f64,
    /// Payload over the phase span, Gb/s (see [`WorkloadUnits`]).
    pub achieved_gbps: f64,
}

/// Packet-latency distribution summary of a closed-loop run (from the
/// engine's streaming [`wsdf_sim::LatencyHistogram`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Packets measured.
    pub count: u64,
    /// Mean packet latency, cycles.
    pub mean: f64,
    /// Median packet latency, cycles.
    pub p50: f64,
    /// 95th-percentile packet latency, cycles.
    pub p95: f64,
    /// 99th-percentile packet latency, cycles.
    pub p99: f64,
    /// Maximum packet latency, cycles.
    pub max: f64,
}

/// The summary of no packets: count 0 and every statistic NaN.
impl Default for LatencySummary {
    fn default() -> Self {
        LatencySummary::from_metrics(&Metrics::default())
    }
}

impl LatencySummary {
    fn from_metrics(m: &Metrics) -> Self {
        let pct = |q: Option<u64>| q.map(|v| v as f64).unwrap_or(f64::NAN);
        LatencySummary {
            count: m.latency_hist.count(),
            mean: m.avg_latency().unwrap_or(f64::NAN),
            p50: pct(m.latency_hist.p50()),
            p95: pct(m.latency_hist.p95()),
            p99: pct(m.latency_hist.p99()),
            max: if m.packets_ejected == 0 {
                f64::NAN
            } else {
                m.latency_max as f64
            },
        }
    }
}

/// Result of one closed-loop collective on one bench.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadReport {
    /// Bench label (`SW-less`, `SW-based`, ...).
    pub label: String,
    /// Workload name (`ring-allreduce`, `all-to-all`, ...).
    pub workload: String,
    /// End-to-end completion time in cycles (last flit reassembled).
    pub completion_cycles: u64,
    /// Messages in the workload.
    pub messages: u64,
    /// Total payload flits.
    pub flits: u64,
    /// Payload over the whole run, flits/cycle.
    pub achieved_flits_per_cycle: f64,
    /// Payload over the whole run, Gb/s.
    pub achieved_gbps: f64,
    /// Per-phase breakdown, in phase order.
    pub phases: Vec<PhaseReport>,
    /// Packet-latency distribution over the run.
    pub latency: LatencySummary,
    /// Cycles the engine actually stepped (see
    /// [`wsdf_sim::Metrics::busy_cycles`]).
    pub busy_cycles: u64,
    /// Cycles fast-forwarded over by event-driven stepping (0 under the
    /// dense loop); `busy + skipped` equals the completion cycles, so the
    /// ratio is the drain-tail efficiency of the run.
    pub skipped_cycles: u64,
}

impl WorkloadReport {
    fn build(
        bench_label: &str,
        wl: &Workload,
        out: &WorkloadOutcome,
        units: &WorkloadUnits,
    ) -> Self {
        let flits = wl.total_flits();
        let phases = out
            .phases
            .iter()
            .map(|p| PhaseReport {
                name: p.name.clone(),
                messages: p.messages,
                flits: p.flits,
                start_cycle: p.start,
                end_cycle: p.end,
                achieved_flits_per_cycle: p.achieved_flits_per_cycle(),
                achieved_gbps: units.gbps(p.flits, p.end.saturating_sub(p.start)),
            })
            .collect();
        WorkloadReport {
            label: bench_label.to_string(),
            workload: wl.name.clone(),
            completion_cycles: out.completion_cycles,
            messages: wl.len() as u64,
            flits,
            achieved_flits_per_cycle: flits as f64 / out.completion_cycles.max(1) as f64,
            achieved_gbps: units.gbps(flits, out.completion_cycles),
            phases,
            latency: LatencySummary::from_metrics(&out.metrics),
            busy_cycles: out.metrics.busy_cycles,
            skipped_cycles: out.metrics.skipped_cycles,
        }
    }

    /// Render as aligned text rows (harness output).
    pub fn render(&self) -> String {
        let mut s = format!(
            "  {:<14} {:<16} {:>8} cycles  {:>7.3} flits/cyc  {:>9.1} Gb/s  \
             (lat p50 {:.0} p99 {:.0} max {:.0})\n",
            self.label,
            self.workload,
            self.completion_cycles,
            self.achieved_flits_per_cycle,
            self.achieved_gbps,
            self.latency.p50,
            self.latency.p99,
            self.latency.max,
        );
        for p in &self.phases {
            s.push_str(&format!(
                "    {:<28} [{:>6}, {:>6}]  {:>6} msgs  {:>8} flits  {:>7.3} flits/cyc\n",
                p.name, p.start_cycle, p.end_cycle, p.messages, p.flits, p.achieved_flits_per_cycle,
            ));
        }
        s
    }

    /// The report document, the digested text of `closed_loop` scenarios.
    pub fn to_json(&self) -> String {
        json::to_block(self)
    }

    /// Parse a report previously written by [`to_json`](Self::to_json).
    ///
    /// Forward-compatible: files recorded before a field existed still
    /// load — missing numeric summaries parse as NaN, missing counters as
    /// 0, and a missing `phases` array as empty.
    pub fn from_json(text: &str) -> Result<WorkloadReport, String> {
        WorkloadReport::read(&Value::parse(text)?, "report")
    }
}

json_object!(PhaseReport, PhaseReport::default();
    name, messages, flits, start_cycle, end_cycle, achieved_flits_per_cycle, achieved_gbps,
);

json_object!(LatencySummary, LatencySummary::default(); count?, mean?, p50?, p95?, p99?, max?);

json_object!(WorkloadReport, WorkloadReport::default();
    label, workload, completion_cycles, messages, flits, busy_cycles?, skipped_cycles?,
    achieved_flits_per_cycle, achieved_gbps, latency?, phases?,
);

/// Run `wl` closed-loop on `bench` with an already-prepared config — the
/// [`crate::Session`] workload run kind and the resilience sweep's
/// collective probe both route through here.
///
/// Dispatches on the bench's oracle enum once, so the whole run uses the
/// monomorphized engine. The config's open-loop window fields are ignored
/// (the run ends at quiescence).
pub(crate) fn run_workload_impl(
    bench: &Bench,
    cfg: &SimConfig,
    wl: &Workload,
    units: &WorkloadUnits,
    pool: &BspPool,
    trace: Option<&Tracer>,
) -> SimResult<WorkloadReport> {
    let net = bench.fabric.net();
    let faults = bench.fault_map();
    let out = with_oracle!(&bench.oracle, |o| {
        run_collective_traced_on(net, cfg, o, wl, pool, faults, trace)
    })?;
    Ok(WorkloadReport::build(&bench.label, wl, &out, units))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;

    fn quick_cfg() -> SimConfig {
        SimConfig::default()
    }

    fn run_wl(bench: &Bench, wl: &Workload) -> Result<WorkloadReport, String> {
        Session::bench(bench)
            .sim(quick_cfg())
            .workload(wl, &WorkloadUnits::default())
            .map(|o| o.report)
    }

    #[test]
    fn ring_allreduce_on_mesh_completes() {
        let bench = Bench::single_mesh(4, 2, 1);
        let eps: Vec<u32> = (0..bench.endpoints()).collect();
        let wl = Workload::ring_allreduce(&eps, 64);
        let r = run_wl(&bench, &wl).unwrap();
        assert!(r.completion_cycles > 0);
        assert_eq!(r.messages, wl.len() as u64);
        assert_eq!(r.flits, wl.total_flits());
        assert_eq!(r.phases.len(), 2);
        // The allgather phase cannot start before reduce-scatter finishes
        // at some node, and must end no earlier than it starts.
        assert!(r.phases[1].start_cycle > 0);
        assert!(r.phases[1].end_cycle == r.completion_cycles);
        assert!(r.latency.count > 0);
        assert!(r.achieved_flits_per_cycle > 0.0);
        assert!(r.achieved_gbps > 0.0);
    }

    #[test]
    fn workload_report_json_roundtrip() {
        let bench = Bench::single_switch(8);
        let eps: Vec<u32> = (0..8).collect();
        let wl = Workload::all_to_all(&eps, 16);
        let r = run_wl(&bench, &wl).unwrap();
        let back = WorkloadReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn units_default_matches_layout_port() {
        // 1 flit/cycle at the default units = one 4096 Gb/s SR port.
        let u = WorkloadUnits::default();
        assert_eq!(u.gbps(1000, 1000), 4096.0);
    }

    #[test]
    fn self_message_is_rejected() {
        let bench = Bench::single_switch(4);
        let mut wl = Workload::new("bad");
        let ph = wl.phase("p");
        wl.push(
            wsdf_workload::Message {
                src: 2,
                dst: 2,
                flits: 4,
                phase: ph,
            },
            &[],
        );
        let err = run_wl(&bench, &wl).unwrap_err();
        assert!(err.contains("invalid simulation input"), "{err}");
    }
}
