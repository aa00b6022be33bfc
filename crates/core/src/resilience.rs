//! Resilience sweeps: throughput/latency/completion-time vs. fault
//! fraction.
//!
//! Where [`mod@crate::sweep`] asks *"what does the pristine fabric do?"*,
//! this module asks the production question: **how gracefully does it
//! degrade when links and routers die?**
//! [`Session::resilience`](crate::Session::resilience) walks a list
//! of fault fractions; at each fraction it samples a deterministic
//! [`FaultSet`], degrades the bench ([`Bench::with_fault_set`]), and
//! measures:
//!
//! * an **open-loop probe** at a fixed offered rate, through the shared
//!   sweep measurement core — accepted throughput, mean/p50/p99/max
//!   latency, delivered fraction;
//! * a **closed-loop probe**: a ring allreduce over the surviving chips of
//!   the largest live component, reusing the collective machinery —
//!   completion cycles;
//! * **reachability accounting** — dead links/routers, live endpoints,
//!   unreachable ordered pairs.
//!
//! The zero-fault point runs the *pristine* bench (same oracle, same hot
//! path), so it is bit-identical to an ordinary
//! [`Session::sweep`](crate::Session::sweep) point at
//! the same rate — the resilience axis costs the pristine path nothing.
//! Every number is a deterministic function of `(bench, config)`:
//! identical across BSP partition and worker counts, like everything else
//! in the engine.

use crate::bench::{Bench, PatternSpec};
use crate::collective::WorkloadUnits;
use crate::json::{self, Json, Value};
use crate::sweep::SweepConfig;
use wsdf_exec::BspPool;
use wsdf_sim::{json_object, SimConfig, TraceRec, Tracer};
use wsdf_topo::{FaultSet, FaultSpec};
use wsdf_workload::Workload;

/// Configuration of a resilience sweep
/// ([`Session::resilience`](crate::Session::resilience)).
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Simulation template (VCs raised per bench automatically).
    pub sim: SimConfig,
    /// Offered load of the open-loop probe, flits/cycle/chip.
    pub rate_chip: f64,
    /// Link-fault fractions to sweep (0.0 first gives the pristine
    /// reference point).
    pub fractions: Vec<f64>,
    /// Router faults ride along at `link_fraction × router_ratio`.
    pub router_ratio: f64,
    /// Seed of the per-fraction fault samples.
    pub seed: u64,
    /// Payload flits per participant of the closed-loop ring-allreduce
    /// probe; 0 skips the closed-loop probe entirely.
    pub collective_flits: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            sim: SimConfig::default(),
            rate_chip: 0.3,
            fractions: vec![0.0, 0.05, 0.10, 0.20],
            router_ratio: 0.5,
            seed: 0xFA17_5EED,
            collective_flits: 64,
        }
    }
}

impl ResilienceConfig {
    /// Scale simulation windows (quick modes for tests/benches/smoke).
    pub fn scaled(mut self, f: f64) -> Self {
        self.sim = self.sim.scaled(f);
        self
    }

    /// The [`FaultSpec`] sampled at link-fault fraction `f`.
    pub fn fault_spec(&self, f: f64) -> FaultSpec {
        FaultSpec {
            seed: self.seed,
            link_fraction: f,
            router_fraction: f * self.router_ratio,
            ..Default::default()
        }
    }
}

/// One measured fault fraction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResiliencePoint {
    /// Link-fault fraction this point was sampled at.
    pub fault_fraction: f64,
    /// Failed undirected fabric links (sampled + router collateral).
    pub dead_links: u32,
    /// Failed routers.
    pub dead_routers: u32,
    /// Endpoints whose attach router survived.
    pub live_endpoints: u32,
    /// Ordered endpoint pairs that are no longer routable.
    pub unreachable_pairs: u64,
    /// Offered load of the open-loop probe, flits/cycle/chip.
    pub offered_chip: f64,
    /// Accepted throughput, flits/cycle/chip.
    pub accepted_chip: f64,
    /// Mean packet latency, cycles.
    pub latency: f64,
    /// Median packet latency, cycles.
    pub p50: f64,
    /// 99th-percentile packet latency, cycles.
    pub p99: f64,
    /// Fraction of measured packets delivered.
    pub delivered: f64,
    /// Ring-allreduce completion over the largest live component, cycles
    /// (0 = probe skipped: disabled, or fewer than 2 surviving chips).
    pub completion_cycles: u64,
    /// Participants of the closed-loop probe.
    pub collective_chips: u32,
    /// Cycles the open-loop probe actually stepped (event-driven stepping;
    /// equals `cycles_run` under the dense engine).
    pub busy_cycles: u64,
    /// Cycles the open-loop probe fast-forwarded over (0 under the dense
    /// engine).
    pub skipped_cycles: u64,
}

/// Result of a resilience sweep: one point per fault fraction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceReport {
    /// Bench label.
    pub label: String,
    /// Open-loop probe pattern name (`"Uniform"`, ...).
    pub pattern: String,
    /// Measured points, in [`ResilienceConfig::fractions`] order.
    pub points: Vec<ResiliencePoint>,
}

impl ResilienceReport {
    /// Render as aligned text rows (harness output).
    pub fn render(&self) -> String {
        let mut s = format!(
            "  {:<18} {:>6} {:>6} {:>7} {:>8} {:>10} {:>10} {:>8} {:>8} {:>9} {:>10}\n",
            self.label,
            "fault",
            "links",
            "routers",
            "live-ep",
            "unreach",
            "accepted",
            "lat",
            "p99",
            "delivered",
            "allreduce"
        );
        for p in &self.points {
            s.push_str(&format!(
                "  {:<18} {:>6.2} {:>6} {:>7} {:>8} {:>10} {:>10.3} {:>8.1} {:>8.1} {:>9.3} {:>10}\n",
                "",
                p.fault_fraction,
                p.dead_links,
                p.dead_routers,
                p.live_endpoints,
                p.unreachable_pairs,
                p.accepted_chip,
                p.latency,
                p.p99,
                p.delivered,
                p.completion_cycles,
            ));
        }
        s
    }

    /// The report document, the digested text of `resilience` scenarios.
    pub fn to_json(&self) -> String {
        json::to_block(self)
    }

    /// Parse a report previously written by [`to_json`](Self::to_json).
    /// The stepping counters read as 0 when absent (reports written
    /// before they existed).
    pub fn from_json(text: &str) -> Result<ResilienceReport, String> {
        ResilienceReport::read(&Value::parse(text)?, "report")
    }
}

json_object!(ResiliencePoint, ResiliencePoint::default();
    fault_fraction, dead_links, dead_routers, live_endpoints, unreachable_pairs, offered_chip,
    accepted_chip, latency, p50, p99, delivered, completion_cycles, collective_chips,
    busy_cycles?, skipped_cycles?,
);

json_object!(ResilienceReport, ResilienceReport::default(); label, pattern, points);

/// Human name of a [`PatternSpec`] for report labeling.
fn pattern_name(spec: PatternSpec) -> String {
    format!("{spec:?}")
}

/// Run a resilience sweep — the fault-injection core behind the
/// [`crate::Session`] resilience run kind. See the module docs. When
/// telemetry is attached with the `epochs` stream enabled, each fault
/// fraction is delimited by a [`TraceRec::Epoch`] record *before* its
/// probes — every fraction is an independent simulation starting at
/// cycle 0, so the epoch records are the segment boundaries of the
/// concatenated stream. `cfg.sim` arrives with its partition map
/// resolved on the pristine bench, and that map serves every fraction.
pub(crate) fn resilience_impl(
    bench: &Bench,
    cfg: &ResilienceConfig,
    spec: PatternSpec,
    pool: &BspPool,
    trace: Option<&Tracer>,
) -> ResilienceReport {
    assert!(
        bench.faults.is_none(),
        "Session::resilience degrades the bench itself; pass the pristine bench"
    );
    let net = bench.fabric.net();
    let units = WorkloadUnits::default();
    let mut points = Vec::with_capacity(cfg.fractions.len());
    for (epoch, &f) in cfg.fractions.iter().enumerate() {
        if let Some(t) = trace {
            if t.config().epochs {
                t.emit_one(TraceRec::Epoch {
                    cycle: 0,
                    epoch: epoch as u32,
                    label: format!("fault_fraction={f}"),
                });
            }
        }
        let fs = FaultSet::sample(net, &cfg.fault_spec(f));
        let fb = bench.with_fault_set(&fs);

        // Open-loop probe through the shared sweep measurement core (same
        // saturation rule, same normalization) — one rate, no early stop.
        let scfg = SweepConfig {
            sim: cfg.sim.clone(),
            ..Default::default()
        };
        let probe = crate::sweep::sweep_impl(&fb, &scfg, spec, &[cfg.rate_chip], pool, trace)
            .pop()
            .expect("single-rate sweep yields one point");

        // Reachability accounting.
        let (live_endpoints, unreachable_pairs) = match &fb.faults {
            None => (fb.endpoints(), 0),
            Some(bf) => (bf.reach.live_endpoints(), bf.reach.unreachable_pairs()),
        };

        // Closed-loop probe: ring allreduce over surviving chips.
        let chips = fb.live_chips();
        let (completion_cycles, collective_chips) = if cfg.collective_flits > 0 && chips.len() >= 2
        {
            let wl = Workload::ring_allreduce(&chips, cfg.collective_flits);
            let wcfg = fb.prepare_cfg(&cfg.sim);
            let r = crate::collective::run_workload_impl(&fb, &wcfg, &wl, &units, pool, trace)
                .unwrap_or_else(|e| panic!("[{} @ {f}] allreduce probe: {e}", bench.label));
            (r.completion_cycles, chips.len() as u32)
        } else {
            (0, 0)
        };

        points.push(ResiliencePoint {
            fault_fraction: f,
            dead_links: fs.dead_links(),
            dead_routers: fs.dead_routers(),
            live_endpoints,
            unreachable_pairs,
            offered_chip: probe.offered_chip,
            accepted_chip: probe.accepted_chip,
            latency: probe.latency,
            p50: probe.p50,
            p99: probe.p99,
            delivered: probe.delivered,
            completion_cycles,
            collective_chips,
            busy_cycles: probe.busy_cycles,
            skipped_cycles: probe.skipped_cycles,
        });
    }
    ResilienceReport {
        label: bench.label.clone(),
        pattern: pattern_name(spec),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;

    fn run_res(bench: &Bench, cfg: &ResilienceConfig, spec: PatternSpec) -> ResilienceReport {
        Session::bench(bench).resilience(cfg, spec).unwrap().report
    }

    fn quick() -> ResilienceConfig {
        ResilienceConfig {
            collective_flits: 16,
            ..Default::default()
        }
        .scaled(0.1)
    }

    #[test]
    fn zero_fault_point_matches_pristine_sweep_exactly() {
        let bench = Bench::single_mesh(4, 2, 1);
        let cfg = quick();
        let report = run_res(&bench, &cfg, PatternSpec::Uniform);
        let p0 = &report.points[0];
        assert_eq!(p0.fault_fraction, 0.0);
        assert_eq!(p0.dead_links, 0);
        assert_eq!(p0.live_endpoints, 16);
        assert_eq!(p0.unreachable_pairs, 0);
        // The pristine sweep at the same rate must agree bit for bit: the
        // zero-fault path is the pristine path, not a detour-oracle run.
        let scfg = SweepConfig {
            sim: cfg.sim.clone(),
            ..Default::default()
        };
        let q = Session::bench(&bench)
            .sweep(&scfg, PatternSpec::Uniform, &[cfg.rate_chip])
            .unwrap()
            .report
            .pop()
            .unwrap();
        assert_eq!(p0.accepted_chip, q.accepted_chip);
        assert_eq!(p0.latency, q.latency);
        assert_eq!(p0.p50, q.p50);
        assert_eq!(p0.p99, q.p99);
        assert_eq!(p0.delivered, q.delivered);
    }

    #[test]
    fn degradation_is_graceful_not_fatal() {
        let bench = Bench::single_mesh(4, 2, 1);
        let report = run_res(&bench, &quick(), PatternSpec::Uniform);
        assert_eq!(report.points.len(), 4);
        for p in &report.points {
            if p.fault_fraction > 0.0 {
                assert!(p.dead_links > 0 || p.dead_routers > 0, "{p:?}");
            }
            // Whatever traffic the live pairs offer must still be served.
            assert!(p.delivered > 0.5, "{p:?}");
            assert!(p.accepted_chip > 0.0, "{p:?}");
        }
        // The collective probe ran wherever ≥ 2 chips survived.
        assert!(report.points[0].completion_cycles > 0);
        assert_eq!(report.points[0].collective_chips, 4);
    }

    #[test]
    fn report_round_trips_through_json() {
        let bench = Bench::single_switch(8);
        let mut cfg = quick();
        cfg.fractions = vec![0.0, 0.2];
        let report = run_res(&bench, &cfg, PatternSpec::Uniform);
        let back = ResilienceReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn sweep_is_deterministic() {
        let bench = Bench::single_mesh(4, 2, 1);
        let a = run_res(&bench, &quick(), PatternSpec::Uniform);
        let b = run_res(&bench, &quick(), PatternSpec::Uniform);
        assert_eq!(a, b);
    }
}
