//! Closed-loop collective runs on a [`Bench`], and their reports.
//!
//! Where [`mod@crate::sweep`] asks *"what latency at what offered rate?"*,
//! this module asks the closed-loop question: *"how long does this
//! collective take on this fabric?"*
//! [`Session::workload`](crate::Session::workload) drives a
//! [`wsdf_workload::Workload`] DAG through the bench's monomorphized
//! engine to quiescence and wraps the outcome in a [`WorkloadReport`] —
//! completion cycles, achieved bandwidth per phase, and the packet-latency
//! distribution — with the same hand-rolled JSON round-trip as the figure
//! reports.

use crate::bench::{Bench, BenchOracle};
use crate::json::{self, Value};
use wsdf_exec::BspPool;
use wsdf_sim::{Metrics, SimConfig, SimResult, Tracer};
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
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!(
            "  \"label\": \"{}\",\n",
            json::escape(&self.label)
        ));
        s.push_str(&format!(
            "  \"workload\": \"{}\",\n",
            json::escape(&self.workload)
        ));
        s.push_str(&format!(
            "  \"completion_cycles\": {},\n",
            self.completion_cycles
        ));
        s.push_str(&format!("  \"messages\": {},\n", self.messages));
        s.push_str(&format!("  \"flits\": {},\n", self.flits));
        s.push_str(&format!("  \"busy_cycles\": {},\n", self.busy_cycles));
        s.push_str(&format!("  \"skipped_cycles\": {},\n", self.skipped_cycles));
        s.push_str(&format!(
            "  \"achieved_flits_per_cycle\": {},\n",
            json::num(self.achieved_flits_per_cycle)
        ));
        s.push_str(&format!(
            "  \"achieved_gbps\": {},\n",
            json::num(self.achieved_gbps)
        ));
        s.push_str(&format!(
            "  \"latency\": {{\"count\": {}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \
             \"p99\": {}, \"max\": {}}},\n",
            self.latency.count,
            json::num(self.latency.mean),
            json::num(self.latency.p50),
            json::num(self.latency.p95),
            json::num(self.latency.p99),
            json::num(self.latency.max),
        ));
        s.push_str("  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"messages\": {}, \"flits\": {}, \
                 \"start_cycle\": {}, \"end_cycle\": {}, \
                 \"achieved_flits_per_cycle\": {}, \"achieved_gbps\": {}}}{}\n",
                json::escape(&p.name),
                p.messages,
                p.flits,
                p.start_cycle,
                p.end_cycle,
                json::num(p.achieved_flits_per_cycle),
                json::num(p.achieved_gbps),
                if i + 1 < self.phases.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parse a report previously written by [`to_json`](Self::to_json).
    ///
    /// Forward-compatible: files recorded before a field existed still
    /// load — missing numeric summaries parse as NaN, missing counters as
    /// 0, and a missing `phases` array as empty.
    pub fn from_json(text: &str) -> Result<WorkloadReport, String> {
        let v = Value::parse(text)?;
        let mut phases = Vec::new();
        for p in match v.get("phases") {
            None => &[][..],
            Some(a) => a.as_arr().ok_or("'phases' not an array")?,
        } {
            phases.push(PhaseReport {
                name: field(p, "name")?
                    .as_str()
                    .ok_or("'name' not a string")?
                    .to_string(),
                messages: int(p, "messages")?,
                flits: int(p, "flits")?,
                start_cycle: int(p, "start_cycle")?,
                end_cycle: int(p, "end_cycle")?,
                achieved_flits_per_cycle: num(p, "achieved_flits_per_cycle")?,
                achieved_gbps: num(p, "achieved_gbps")?,
            });
        }
        Ok(WorkloadReport {
            label: field(&v, "label")?
                .as_str()
                .ok_or("'label' not a string")?
                .to_string(),
            workload: field(&v, "workload")?
                .as_str()
                .ok_or("'workload' not a string")?
                .to_string(),
            completion_cycles: int(&v, "completion_cycles")?,
            messages: int(&v, "messages")?,
            flits: int(&v, "flits")?,
            achieved_flits_per_cycle: num(&v, "achieved_flits_per_cycle")?,
            achieved_gbps: num(&v, "achieved_gbps")?,
            phases,
            latency: match v.get("latency") {
                None => LatencySummary {
                    count: 0,
                    mean: f64::NAN,
                    p50: f64::NAN,
                    p95: f64::NAN,
                    p99: f64::NAN,
                    max: f64::NAN,
                },
                Some(lat) => LatencySummary {
                    count: opt_int(lat, "count")?,
                    mean: opt_num(lat, "mean")?,
                    p50: opt_num(lat, "p50")?,
                    p95: opt_num(lat, "p95")?,
                    p99: opt_num(lat, "p99")?,
                    max: opt_num(lat, "max")?,
                },
            },
            busy_cycles: opt_int(&v, "busy_cycles")?,
            skipped_cycles: opt_int(&v, "skipped_cycles")?,
        })
    }
}

pub(crate) fn field<'a>(v: &'a Value, k: &str) -> Result<&'a Value, String> {
    v.get(k).ok_or_else(|| format!("missing key '{k}'"))
}

pub(crate) fn num(v: &Value, k: &str) -> Result<f64, String> {
    field(v, k)?
        .as_f64()
        .ok_or_else(|| format!("'{k}' not a number"))
}

pub(crate) fn int(v: &Value, k: &str) -> Result<u64, String> {
    let x = num(v, k)?;
    if x.is_finite() && x >= 0.0 && x.fract() == 0.0 {
        Ok(x as u64)
    } else {
        Err(format!("'{k}' not a non-negative integer"))
    }
}

/// Optional integer field: 0 when absent, so reports recorded before the
/// stepping counters existed still load.
pub(crate) fn opt_int(v: &Value, k: &str) -> Result<u64, String> {
    match v.get(k) {
        None => Ok(0),
        Some(_) => int(v, k),
    }
}

/// Optional number field: NaN when absent — the forward-compatibility
/// convention for report summaries (`json::num` writes NaN back as
/// `null`, which parses as NaN again).
pub(crate) fn opt_num(v: &Value, k: &str) -> Result<f64, String> {
    match v.get(k) {
        None => Ok(f64::NAN),
        Some(_) => num(v, k),
    }
}

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
    let out = match &bench.oracle {
        BenchOracle::Sl(o) => run_collective_traced_on(net, cfg, o, wl, pool, faults, trace),
        BenchOracle::Sw(o) => run_collective_traced_on(net, cfg, o, wl, pool, faults, trace),
        BenchOracle::Mesh(o) => run_collective_traced_on(net, cfg, o, wl, pool, faults, trace),
        BenchOracle::Switch(o) => run_collective_traced_on(net, cfg, o, wl, pool, faults, trace),
        BenchOracle::Detour(o) => run_collective_traced_on(net, cfg, o, wl, pool, faults, trace),
    }?;
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
