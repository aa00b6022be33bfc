//! Load-latency sweeps: the engine behind every latency-vs-injection-rate
//! figure in the paper.
//!
//! Two drivers share one measurement core:
//!
//! * [`Session::sweep`](crate::Session::sweep) — the classic fixed-grid
//!   runner: walk a caller-supplied list of offered rates in order, stop
//!   one point past saturation. Used by the figure harness, whose x-axes
//!   mirror the paper's.
//! * [`Session::adaptive`](crate::Session::adaptive) — the
//!   saturation-seeking runner: a geometric coarse scan brackets the
//!   saturation knee, then bisection narrows the bracket to a configurable
//!   relative tolerance. It finds the saturation throughput with strictly
//!   fewer simulations than a dense grid and returns a
//!   [`SaturationReport`].
//!
//! Both take their simulation settings (windows, seed, stepping,
//! partitions) from [`Session::sim`](crate::Session::sim) and classify
//! points by one fixed rule: a point is saturated once its mean latency
//! exceeds 12× the zero-load reference or its accepted/offered ratio
//! drops below 0.80.
//!
//! Every measured point carries the full latency distribution summary
//! (p50/p95/p99/max) from the engine's streaming
//! [`wsdf_sim::LatencyHistogram`], not just the mean.

use crate::bench::{Bench, PatternSpec};
use wsdf_exec::BspPool;
use wsdf_sim::{Metrics, SimConfig, Tracer};

/// One measured point of a sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepPoint {
    /// Offered load in flits/cycle/chip (paper x-axis).
    pub offered_chip: f64,
    /// Offered load in flits/cycle/endpoint.
    pub offered_node: f64,
    /// Mean packet latency in cycles (paper y-axis).
    pub latency: f64,
    /// Median (50th-percentile) packet latency in cycles.
    pub p50: f64,
    /// 95th-percentile packet latency in cycles.
    pub p95: f64,
    /// 99th-percentile packet latency in cycles.
    pub p99: f64,
    /// Maximum packet latency observed, in cycles.
    pub latency_max: f64,
    /// Accepted throughput, flits/cycle/chip.
    pub accepted_chip: f64,
    /// Accepted throughput, flits/cycle/endpoint.
    pub accepted_node: f64,
    /// Fraction of measured packets delivered.
    pub delivered: f64,
    /// True once the run is considered past saturation.
    pub saturated: bool,
    /// Cycles the engine actually stepped for this point (see
    /// [`wsdf_sim::Metrics::busy_cycles`]).
    pub busy_cycles: u64,
    /// Cycles the event-driven engine fast-forwarded over (0 under the
    /// dense loop) — together with `busy_cycles` this sums to the cycles
    /// simulated, making the stepping efficiency visible per point.
    pub skipped_cycles: u64,
}

/// A point counts as saturated once its mean latency exceeds this
/// multiple of the zero-load reference latency...
const LATENCY_BLOWUP: f64 = 12.0;

/// ... or once its accepted/offered ratio drops below this.
const MIN_ACCEPTANCE: f64 = 0.80;

/// Points the fixed-grid driver keeps past saturation before it stops the
/// walk (the figures show the knee and one diverging point). The adaptive
/// driver keeps every point it measures, saturated or not, because the
/// saturated probes *are* the knee refinement.
const POST_SATURATION_POINTS: usize = 1;

/// Configuration of the adaptive saturation-seeking driver
/// ([`Session::adaptive`](crate::Session::adaptive)): the members of a
/// scenario's `adaptive` run section. The simulation settings come from
/// [`Session::sim`](crate::Session::sim).
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// First coarse-scan rate in flits/cycle/chip. If even this saturates,
    /// the driver backs off geometrically before scanning up.
    pub start_chip: f64,
    /// Geometric growth factor between coarse-scan rates (> 1).
    pub growth: f64,
    /// Bisection stops once the saturation bracket `[lo, hi]` satisfies
    /// `(hi - lo) / hi ≤ rel_tol`.
    pub rel_tol: f64,
    /// Hard cap on simulated points across both phases.
    pub max_points: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            start_chip: 0.1,
            growth: 1.6,
            rel_tol: 0.02,
            max_points: 24,
        }
    }
}

/// Result of an adaptive sweep: the located saturation point plus every
/// point measured along the way (sorted by offered load, ready for
/// [`crate::report::Curve`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SaturationReport {
    /// Saturation throughput in flits/cycle/chip — the highest accepted
    /// per-chip rate over all measured points (the same estimator as
    /// [`saturation_rate`] on a fixed grid).
    pub sat_chip: f64,
    /// Saturation throughput in flits/cycle/endpoint.
    pub sat_node: f64,
    /// The validated zero-load reference latency in cycles: the flat-region
    /// latency the anchor probe settled on, which classifies every point's
    /// latency blowup.
    pub zero_load_latency: f64,
    /// All measured points in ascending offered-load order.
    pub points: Vec<SweepPoint>,
}

impl SaturationReport {
    /// Render as aligned text rows (harness output): one summary line,
    /// then the point table via [`crate::report::Curve::render`] so the
    /// two human-readable outputs cannot diverge.
    pub fn render(&self, label: &str) -> String {
        format!(
            "  {:<18} sat {:.3} flits/cycle/chip, zero-load {:.1} cycles, {} points\n{}",
            label,
            self.sat_chip,
            self.zero_load_latency,
            self.points.len(),
            crate::report::Curve::new("", self.points.clone()).render()
        )
    }
}

/// Shared measurement core of both sweep drivers: owns the bench, the
/// executor, the prepared simulation config, and the zero-load reference
/// latency that classifies subsequent points.
struct SweepDriver<'a> {
    bench: &'a Bench,
    spec: PatternSpec,
    pool: &'a BspPool,
    sim: SimConfig,
    /// Ring collectives progress at the pace of their slowest chip: report
    /// bottleneck-chip throughput, not the average (an open-loop average
    /// would let interior chips mask a saturated C-group boundary link).
    bottleneck: bool,
    zero_load: Option<f64>,
    trace: Option<&'a Tracer>,
}

impl<'a> SweepDriver<'a> {
    fn new(
        bench: &'a Bench,
        sim: &SimConfig,
        spec: PatternSpec,
        pool: &'a BspPool,
        trace: Option<&'a Tracer>,
    ) -> Self {
        let bottleneck = matches!(
            spec,
            PatternSpec::RingCGroup(_) | PatternSpec::RingWGroup(_)
        );
        let mut sim = sim.clone();
        sim.per_endpoint_stats = bottleneck;
        // Normalize once: the VC raise is rate-independent, so every
        // point of the sweep shares one prepared config.
        let sim = bench.prepare_cfg(&sim);
        SweepDriver {
            bench,
            spec,
            pool,
            sim,
            bottleneck,
            zero_load: None,
            trace,
        }
    }

    /// Run one simulation at `rate_chip` flits/cycle/chip and classify it.
    /// The first call establishes the zero-load reference latency.
    /// Deadlocked points (which indicate a routing bug, not congestion)
    /// panic — the routing disciplines are supposed to make them
    /// impossible.
    fn measure(&mut self, rate_chip: f64) -> SweepPoint {
        let bench = self.bench;
        let rate_node = rate_chip / bench.nodes_per_chip;
        let pattern = bench.pattern(self.spec, rate_node);
        let metrics = bench
            .run_prepared(&self.sim, pattern.as_ref(), self.pool, self.trace)
            .unwrap_or_else(|e| panic!("[{}] {:?} @ {rate_chip}: {e}", bench.label, self.spec));
        let latency = metrics.avg_latency().unwrap_or(f64::INFINITY);
        let zero_load = *self.zero_load.get_or_insert(latency);
        // Normalize to *injecting* endpoints: the paper's per-chip axes
        // count only chips that generate traffic (hotspot W-groups,
        // non-palindromic permutation sources).
        let af = pattern.active_fraction().max(1e-9);
        let accepted_node = if self.bottleneck {
            // Slowest chip: min over chips of its nodes' ejected flits.
            let per_ep = &metrics.ejected_per_endpoint;
            let mut per_chip = vec![0u64; bench.scope.num_chips() as usize];
            for (ep, &flits) in per_ep.iter().enumerate() {
                per_chip[bench.scope.chip[ep] as usize] += flits as u64;
            }
            let min_chip = per_chip.iter().copied().min().unwrap_or(0);
            min_chip as f64 / (metrics.measure_cycles as f64 * bench.scope.nodes_per_chip as f64)
        } else {
            metrics.accepted_rate() / af
        };
        // Compare against the realized injection (source queues may clip).
        let offered_effective = (metrics.injected_rate() / af).max(1e-12);
        let acceptance = accepted_node / offered_effective;
        let saturated = latency > zero_load * LATENCY_BLOWUP || acceptance < MIN_ACCEPTANCE;
        let pct = |q: Option<u64>| q.map(|v| v as f64).unwrap_or(f64::INFINITY);
        SweepPoint {
            offered_chip: rate_chip,
            offered_node: rate_node,
            latency,
            p50: pct(metrics.latency_hist.p50()),
            p95: pct(metrics.latency_hist.p95()),
            p99: pct(metrics.latency_hist.p99()),
            latency_max: latency_max_cycles(&metrics),
            accepted_chip: accepted_node * bench.nodes_per_chip,
            accepted_node,
            delivered: metrics.ejection_fraction(),
            saturated,
            busy_cycles: metrics.busy_cycles,
            skipped_cycles: metrics.skipped_cycles,
        }
    }
}

/// Max latency as f64, infinite when nothing ejected (mirrors the mean).
fn latency_max_cycles(m: &Metrics) -> f64 {
    if m.packets_ejected == 0 {
        f64::INFINITY
    } else {
        m.latency_max as f64
    }
}

/// Run a fixed-grid sweep of `sim`: one simulation per offered per-chip
/// rate, in order, stopping one point past saturation. The
/// [`crate::Session`] sweep run kind, the scenario `open_loop` run and the
/// resilience probe all route through here.
///
/// Every point runs on the *same* persistent executor, so worker threads —
/// and their partition-pinned cache state — are reused across sweep points
/// instead of being re-created per simulation.
pub(crate) fn sweep_impl(
    bench: &Bench,
    sim: &SimConfig,
    spec: PatternSpec,
    rates_chip: &[f64],
    pool: &BspPool,
    trace: Option<&Tracer>,
) -> Vec<SweepPoint> {
    let mut driver = SweepDriver::new(bench, sim, spec, pool, trace);
    let mut out = Vec::new();
    let mut past_saturation = 0usize;
    for &rate_chip in rates_chip {
        let point = driver.measure(rate_chip);
        let saturated = point.saturated;
        out.push(point);
        if saturated {
            past_saturation += 1;
            if past_saturation > POST_SATURATION_POINTS {
                break;
            }
        }
    }
    out
}

/// A back-off step during anchor search counts as progress when it lowers
/// the mean latency by more than this factor — the signature of a start
/// rate inside the congested region (below the knee, latency is flat in
/// rate; inside it, latency climbs steeply).
const ANCHOR_SLACK: f64 = 1.5;

/// Run an adaptive saturation-seeking sweep of `sim` — the core behind the
/// [`crate::Session`] adaptive run kind and the scenario `adaptive` run.
///
/// Phase 1 anchors the zero-load reference: the start rate is probed, then
/// validated by one geometrically slower probe — backing off further while
/// the slower probe is materially faster (`ANCHOR_SLACK`) or the current
/// lowest point is outright saturated, so a start inside the congested
/// region (which cannot be detected from its own numbers alone) does not
/// poison the reference. The scan then walks geometric steps up from the
/// anchored region until a point saturates, bracketing the knee. Phase 2
/// bisects the bracket until it is narrower than
/// [`AdaptiveConfig::rel_tol`] (relative to its upper edge) or the
/// [`AdaptiveConfig::max_points`] budget runs out; rates measured during
/// back-off seed the bracket directly and are never re-simulated.
///
/// All simulations reuse one persistent executor, so partition state stays
/// pinned to warm worker threads across the whole search. The driver's
/// decisions depend only on merged metrics, which are bit-identical for
/// any partition/worker count — the report is therefore deterministic too
/// (covered by the determinism matrix in `tests/determinism_and_vcs.rs`).
pub(crate) fn adaptive_impl(
    bench: &Bench,
    sim: &SimConfig,
    cfg: &AdaptiveConfig,
    spec: PatternSpec,
    pool: &BspPool,
    trace: Option<&Tracer>,
) -> SaturationReport {
    assert!(cfg.growth > 1.0, "growth must be > 1");
    assert!(cfg.start_chip > 0.0, "start_chip must be > 0");
    assert!(cfg.rel_tol > 0.0, "rel_tol must be > 0");
    let mut driver = SweepDriver::new(bench, sim, spec, pool, trace);
    let budget = cfg.max_points.max(3);
    let mut points: Vec<SweepPoint> = Vec::new();

    // Phase 1a: establish a trustworthy zero-load anchor. Each candidate
    // is measured against itself (fresh reference), then validated by a
    // probe one geometric step down: keep descending while the candidate
    // is saturated or the probe is materially faster.
    let mut low_rate = cfg.start_chip;
    let mut low = driver.measure(low_rate);
    loop {
        if points.len() + 2 > budget / 2 {
            points.push(low.clone());
            break;
        }
        let probe_rate = low_rate / cfg.growth;
        driver.zero_load = None;
        let probe = driver.measure(probe_rate);
        if low.saturated || low.latency > probe.latency * ANCHOR_SLACK {
            points.push(low);
            low_rate = probe_rate;
            low = probe;
        } else {
            // Probe confirmed the anchor region is flat: adopt the better
            // of the two latencies as the reference and stop descending.
            driver.zero_load = Some(probe.latency.min(low.latency));
            points.push(probe);
            points.push(low.clone());
            break;
        }
    }
    // Points measured before the final anchor existed were classified
    // against their own (possibly congested) latency; re-apply the blowup
    // rule with the real reference. The acceptance rule is
    // anchor-independent and its verdicts are kept.
    if let Some(anchor) = driver.zero_load {
        for p in &mut points {
            if p.latency > anchor * LATENCY_BLOWUP {
                p.saturated = true;
            }
        }
    }

    // Phase 1b: the bracket. Back-off may already have produced saturated
    // points — reuse them as the upper edge instead of re-simulating;
    // otherwise scan geometrically up from the highest unsaturated rate.
    // Only saturated points *above* `lo` qualify as the upper edge: a
    // degenerate low-rate probe (too slow to complete a packet in the
    // measurement window reads as acceptance 0) must not invert the
    // bracket and shadow the real knee.
    let mut lo = points
        .iter()
        .filter(|p| !p.saturated)
        .map(|p| p.offered_chip)
        .fold(f64::NAN, f64::max);
    let mut hi = points
        .iter()
        .filter(|p| p.saturated && p.offered_chip > lo)
        .map(|p| p.offered_chip)
        .fold(f64::INFINITY, f64::min);
    if lo.is_nan() {
        // Budget exhausted without a clean point; the bracket degenerates
        // and bisection is skipped.
        hi = f64::INFINITY;
    } else if hi.is_infinite() {
        let mut rate = lo;
        while points.len() < budget {
            rate *= cfg.growth;
            let p = driver.measure(rate);
            let saturated = p.saturated;
            points.push(p);
            if saturated {
                hi = rate;
                break;
            }
            lo = rate;
        }
    }
    let hi = hi.is_finite().then_some(hi);

    // Phase 2: bisect the bracket down to the requested tolerance.
    if let Some(mut hi) = hi {
        while (hi - lo) / hi > cfg.rel_tol && points.len() < budget {
            let mid = 0.5 * (lo + hi);
            let p = driver.measure(mid);
            let saturated = p.saturated;
            points.push(p);
            if saturated {
                hi = mid;
            } else {
                lo = mid;
            }
        }
    }

    points.sort_by(|a, b| a.offered_chip.total_cmp(&b.offered_chip));
    let sat_chip = saturation_rate(&points);
    // The validated anchor, not blindly the lowest-rate point: a
    // degenerate probe below the anchor may carry an infinite latency.
    let zero_load_latency = driver.zero_load.unwrap_or(f64::NAN);
    SaturationReport {
        sat_chip,
        sat_node: sat_chip / bench.nodes_per_chip,
        zero_load_latency,
        points,
    }
}

/// Saturation throughput estimate: the highest accepted per-chip rate
/// over the sweep (flits/cycle/chip).
pub fn saturation_rate(points: &[SweepPoint]) -> f64 {
    points.iter().map(|p| p.accepted_chip).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::Bench;
    use crate::session::Session;

    fn quick() -> SimConfig {
        SimConfig::default().scaled(0.12)
    }

    fn run_sweep(bench: &Bench, spec: PatternSpec, rates: &[f64]) -> Vec<SweepPoint> {
        Session::bench(bench)
            .sim(quick())
            .sweep(spec, rates)
            .unwrap()
            .report
    }

    fn run_adaptive(bench: &Bench, cfg: &AdaptiveConfig, spec: PatternSpec) -> SaturationReport {
        Session::bench(bench)
            .sim(quick())
            .adaptive(cfg, spec)
            .unwrap()
            .report
    }

    fn quick_adaptive() -> AdaptiveConfig {
        AdaptiveConfig {
            start_chip: 0.2,
            ..Default::default()
        }
    }

    #[test]
    fn mesh_sweep_saturates_above_switch() {
        // The core Fig. 10(a) claim at miniature scale: a 4×4 mesh C-group
        // saturates well above 1 flit/cycle/chip; a single switch at ~1.
        let mesh = Bench::single_mesh(4, 2, 1);
        let sw = Bench::single_switch(16);
        let rates: Vec<f64> = (1..=8).map(|i| i as f64 * 0.4).collect();
        let pm = run_sweep(&mesh, PatternSpec::Uniform, &rates);
        let ps = run_sweep(&sw, PatternSpec::Uniform, &rates);
        let sat_mesh = saturation_rate(&pm);
        let sat_sw = saturation_rate(&ps);
        assert!(
            sat_mesh > 1.5 * sat_sw,
            "mesh {sat_mesh:.2} should beat switch {sat_sw:.2}"
        );
        assert!(sat_sw <= 1.05, "switch cannot exceed 1 flit/cycle/chip");
    }

    #[test]
    fn sweep_stops_after_saturation() {
        let sw = Bench::single_switch(8);
        let rates: Vec<f64> = (1..=20).map(|i| i as f64 * 0.25).collect();
        let pts = run_sweep(&sw, PatternSpec::Uniform, &rates);
        assert!(pts.len() < rates.len(), "sweep must stop early");
        assert!(pts.last().unwrap().saturated);
    }

    #[test]
    fn latency_grows_monotonically_near_saturation() {
        let mesh = Bench::single_mesh(4, 2, 1);
        let pts = run_sweep(&mesh, PatternSpec::Uniform, &[0.4, 1.2, 2.0, 2.8]);
        assert!(pts.len() >= 3);
        assert!(
            pts.last().unwrap().latency > pts[0].latency,
            "latency must rise with load"
        );
    }

    #[test]
    fn sweep_points_carry_percentiles() {
        let mesh = Bench::single_mesh(4, 2, 1);
        let pts = run_sweep(&mesh, PatternSpec::Uniform, &[0.8]);
        let p = &pts[0];
        assert!(p.p50.is_finite() && p.p95.is_finite() && p.p99.is_finite());
        // Percentiles are monotone and bracketed by the mean's
        // neighborhood / the observed max.
        assert!(p.p50 <= p.p95 && p.p95 <= p.p99);
        assert!(p.p99 <= p.latency_max);
        assert!(p.p50 <= p.latency_max);
    }

    #[test]
    fn adaptive_matches_dense_grid_with_fewer_points() {
        // Both topology families of the intra-C-group comparison: the
        // adaptive driver must land within ±2% of a dense fixed-grid
        // saturation estimate while simulating strictly fewer points.
        for (bench, dense_max) in [
            (Bench::single_mesh(4, 2, 1), 3.6),
            (Bench::single_switch(16), 1.4),
        ] {
            let dense: Vec<f64> = (1..=24).map(|i| dense_max * i as f64 / 24.0).collect();
            // One single-rate sweep per grid rate: a one-point walk never
            // stops early, so every grid rate is measured.
            let grid: Vec<SweepPoint> = dense
                .iter()
                .flat_map(|&rate| run_sweep(&bench, PatternSpec::Uniform, &[rate]))
                .collect();
            let sat_grid = saturation_rate(&grid);

            let report = run_adaptive(&bench, &quick_adaptive(), PatternSpec::Uniform);
            assert!(
                report.points.len() < grid.len(),
                "[{}] adaptive used {} points, grid {}",
                bench.label,
                report.points.len(),
                grid.len()
            );
            let err = (report.sat_chip - sat_grid).abs() / sat_grid;
            assert!(
                err <= 0.02,
                "[{}] adaptive sat {:.3} vs grid {:.3} ({:.1}% off)",
                bench.label,
                report.sat_chip,
                sat_grid,
                err * 100.0
            );
        }
    }

    #[test]
    fn adaptive_report_is_ordered_and_bracketed() {
        let mesh = Bench::single_mesh(4, 2, 1);
        let report = run_adaptive(&mesh, &quick_adaptive(), PatternSpec::Uniform);
        assert!(report.points.len() >= 3);
        assert!(report.zero_load_latency.is_finite());
        assert!(report.sat_chip > 0.0);
        assert_eq!(report.sat_node, report.sat_chip / mesh.nodes_per_chip);
        for w in report.points.windows(2) {
            assert!(w[0].offered_chip < w[1].offered_chip, "points unsorted");
        }
        // The search must actually have seen both sides of the knee.
        assert!(report.points.iter().any(|p| p.saturated));
        assert!(report.points.iter().any(|p| !p.saturated));
        // And the bracket must be tight: the widest gap between an
        // unsaturated point and the next saturated point obeys rel_tol.
        let lo = report
            .points
            .iter()
            .filter(|p| !p.saturated)
            .map(|p| p.offered_chip)
            .fold(0.0, f64::max);
        let hi = report
            .points
            .iter()
            .filter(|p| p.saturated)
            .map(|p| p.offered_chip)
            .fold(f64::INFINITY, f64::min);
        assert!(
            (hi - lo) / hi <= AdaptiveConfig::default().rel_tol + 1e-9,
            "bracket [{lo}, {hi}] wider than tolerance"
        );
    }

    #[test]
    fn anchor_probe_rejects_congested_start() {
        // Start just below the switch knee (~0.97 flits/cycle/chip): the
        // start point still accepts nearly everything, so it cannot be
        // flagged from its own numbers, but its latency already sits well
        // above the flat zero-load level. The downward anchor probe must
        // reject it, so the reported zero-load reference and saturation
        // estimate match a run started from the flat region.
        let congested = AdaptiveConfig {
            start_chip: 0.9,
            ..Default::default()
        };
        let sw = Bench::single_switch(16);
        let report = run_adaptive(&sw, &congested, PatternSpec::Uniform);
        let flat = run_adaptive(&sw, &quick_adaptive(), PatternSpec::Uniform);
        assert!(
            report.zero_load_latency <= flat.zero_load_latency * ANCHOR_SLACK,
            "congested start anchored at {:.1} cycles vs flat {:.1}",
            report.zero_load_latency,
            flat.zero_load_latency
        );
        let err = (report.sat_chip - flat.sat_chip).abs() / flat.sat_chip;
        assert!(
            err <= 0.05,
            "sat {:.3} (congested start) vs {:.3} (flat start)",
            report.sat_chip,
            flat.sat_chip
        );
    }

    #[test]
    fn adaptive_backs_off_when_start_saturates() {
        // Start far past the single switch's ~1 flit/cycle/chip limit: the
        // driver must back off to find a clean zero-load anchor and still
        // produce a sane estimate.
        let sw = Bench::single_switch(8);
        let cfg = AdaptiveConfig {
            start_chip: 4.0,
            ..Default::default()
        };
        let report = run_adaptive(&sw, &cfg, PatternSpec::Uniform);
        assert!(report.points.iter().any(|p| !p.saturated));
        assert!(report.sat_chip > 0.5 && report.sat_chip <= 1.1);
    }

    #[test]
    fn render_includes_percentile_columns() {
        let mesh = Bench::single_mesh(4, 2, 1);
        let report = run_adaptive(&mesh, &quick_adaptive(), PatternSpec::Uniform);
        let txt = report.render("2D-Mesh");
        assert!(txt.contains("p50"));
        assert!(txt.contains("p99"));
        assert!(txt.contains("sat"));
    }
}
