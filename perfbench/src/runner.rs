//! The two benchmark modes.
//!
//! * [`end_to_end`] times whole workload runs through
//!   `Session::scenario(..).run()`, the path users take, with tracing
//!   off, and times set-up on its own. Run times are reported relative
//!   to a [`Reference`] pass timed beside them.
//! * [`traced`] alternates span-traced replays with untraced runs and
//!   reports per-layer numbers; the difference between the two is the
//!   tracing overhead.
//!
//! Both check every run: no errors or panics, one report digest across
//! all runs of a seed (pinned for the default seed), and replayed
//! simulated counts equal to the untraced report's.

use crate::reference::Reference;
use crate::replay::{fingerprint, replay, Replay, SimRecord, Until};
use crate::sys::{usage, Manifest};
use crate::workloads::{Size, Workload, DEFAULT_SEED};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use wsdf::sim::BspPool;
use wsdf::{Scenario, ScenarioOutcome, Session};

/// BSP pool slots every run uses: the calling thread alone, which steps
/// both partitions. With a second worker, wall time on a shared 2-vCPU
/// virtual machine switched between two levels up to 1.7× apart for
/// minutes at a time (whenever the host did not run both vCPUs at once),
/// which no regression bound of 25% survives.
pub const WORKERS: usize = 1;
/// BSP partitions every run uses.
pub const PARTITIONS: usize = 2;
/// Set-up measurements before each timed run in end-to-end mode.
const SETUPS_PER_RUN: usize = 4;
/// Fewest timed runs in end-to-end mode, whatever `--seconds` says.
const MIN_SAMPLES: usize = 3;
/// Fewest replay-plus-run rounds in traced mode.
const MIN_ROUNDS: usize = 2;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Window sizes.
    pub size: Size,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Outcome of one mode on one workload.
#[derive(Debug, Default)]
pub struct Report {
    /// Every check passed and nothing failed.
    pub correct: bool,
    /// Simulations attempted.
    pub attempted: u64,
    /// Simulations that failed (error, panic, deadlock or mismatch).
    pub failed: u64,
    /// The mode's metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Why checks failed.
    pub problems: Vec<String>,
    /// Recorded spans as JSON lines (traced mode).
    pub spans_jsonl: String,
}

impl Report {
    fn pass(&mut self, sims: u64) {
        self.attempted += sims;
    }

    fn fail(&mut self, sims: u64, why: String) {
        println!("  FAIL {why}");
        self.attempted += sims;
        self.failed += sims;
        self.problems.push(why);
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

/// Run `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panic: {msg}"))
    })
}

/// One workload run as a user makes it: parse, then `Session::run`.
pub fn session_run(text: &str, pool: &BspPool) -> Result<ScenarioOutcome, String> {
    let scenario = Scenario::from_json_str(text)?;
    Session::scenario(&scenario)
        .pool(pool)
        .partitions(PARTITIONS)
        .run()
        .map(|o| o.report)
}

/// First differing entry of two fingerprints.
fn compare(replayed: &[(String, u64)], report: &[(String, u64)]) -> Result<(), String> {
    if let Some((a, b)) = replayed.iter().zip(report).find(|(a, b)| a != b) {
        return Err(format!(
            "replay differs from the untraced run at {}: {} vs {}",
            b.0, a.1, b.1
        ));
    }
    if replayed.len() != report.len() {
        return Err(format!(
            "replay has {} simulated counts, the untraced run {}",
            replayed.len(),
            report.len()
        ));
    }
    Ok(())
}

/// Median of `xs` (mean of the middle two for an even count; 0 if empty).
fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest of `xs` (0 if empty).
///
/// End-to-end timings report the fastest sample of a run: on a shared
/// host, other tenants only ever add time, so the fastest sample is the
/// least disturbed one. Workload runs take about half a second, so a run
/// of the benchmark has 15 or more samples to choose from (README,
/// "Steadiness").
fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

fn summary(name: &str, xs: &[f64], unit: &str) -> String {
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "  {name:<16} {:>12.4} {unit:<6} fastest of {} (median {:.4}, max {hi:.4})",
        fastest(xs),
        xs.len(),
        median(xs)
    )
}

/// Checks every untraced outcome of one seed against the first one, the
/// pinned digest (default seed, full size) and the replay's counts.
struct OutcomeCheck<'a> {
    workload: Workload,
    pinned: bool,
    first_digest: Option<String>,
    replayed: Option<&'a [(String, u64)]>,
}

impl<'a> OutcomeCheck<'a> {
    fn new(o: &Options, replayed: Option<&'a [(String, u64)]>) -> Self {
        OutcomeCheck {
            workload: o.workload,
            pinned: o.seed == DEFAULT_SEED && o.size == Size::Full,
            first_digest: None,
            replayed,
        }
    }

    fn check(&mut self, out: &ScenarioOutcome) -> Result<(), String> {
        let digest = out.digest();
        if self.pinned && digest != self.workload.pinned_digest() {
            return Err(format!(
                "report digest {digest} differs from the pinned {}",
                self.workload.pinned_digest()
            ));
        }
        match &self.first_digest {
            None => self.first_digest = Some(digest),
            Some(d) if *d != digest => {
                return Err(format!(
                    "report digest {digest} differs from the first run's {d}"
                ))
            }
            Some(_) => {}
        }
        match self.replayed {
            Some(fp) => compare(fp, &fingerprint(out)?),
            None => Ok(()),
        }
    }
}

/// Print the manifest line of a run of `text` and return it.
fn manifest_line(o: &Options, manifest: &Manifest, text: &str, mode: &str) -> String {
    let stepping = Scenario::from_json_str(text).map_or("unknown", |s| s.stepping.name());
    let line = format!(
        "{{\"manifest\": {}}}",
        manifest.to_json(o.workload.name(), o.seed, stepping, mode)
    );
    println!("{line}");
    line
}

/// End-to-end mode: host-time metrics with tracing off.
pub fn end_to_end(o: &Options, pool: &BspPool, manifest: &Manifest) -> Report {
    let name = o.workload.name();
    let text = o.workload.scenario_json(o.seed, o.size);
    let mut rep = Report::default();
    manifest_line(o, manifest, &text, "end_to_end");

    // One replay first: it warms the caches and gives the simulated counts
    // every timed run is checked against (and the flit-hop total).
    let reference = guarded(|| replay(name, &text, pool, Until::End, None));
    let sims_per_run = reference.as_ref().map_or(1, |r| r.sims.len() as u64);
    match &reference {
        Ok(r) => rep.pass(r.sims.len() as u64),
        Err(e) => rep.fail(sims_per_run, format!("replay: {e}")),
    }
    let flit_hops = reference.as_ref().map_or(0, |r| r.total(|s| s.flit_hops));

    let mut check = OutcomeCheck::new(o, reference.as_ref().ok().map(|r| &r.fingerprint[..]));
    let host = Reference::new();
    let mut host_sum = None;
    let (mut walls, mut cpus, mut setups, mut refs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut last = 0.0;
    let mut runs = 0;
    while runs < MIN_SAMPLES || start.elapsed().as_secs_f64() + last <= o.seconds {
        runs += 1;
        // Set-ups are spread over the whole run, like the timed runs, so
        // both sample sets see the same stretch of host conditions.
        for _ in 0..SETUPS_PER_RUN {
            let t = Instant::now();
            match guarded(|| replay(name, &text, pool, Until::FirstCompile, None)) {
                Ok(_) => setups.push(t.elapsed().as_secs_f64()),
                Err(e) => rep.fail(0, format!("set-up: {e}")),
            }
        }
        let (ref_s, sum) = host.timed_pass();
        refs.push(ref_s);
        if *host_sum.get_or_insert(sum) != sum {
            rep.fail(0, "reference pass checksum changed".into());
        }
        let cpu0 = usage().cpu_s;
        let t = Instant::now();
        let out = guarded(|| session_run(&text, pool));
        last = t.elapsed().as_secs_f64();
        let cpu = usage().cpu_s - cpu0;
        match out.and_then(|out| check.check(&out)) {
            Ok(()) => {
                rep.pass(sims_per_run);
                walls.push(last);
                cpus.push(cpu);
            }
            Err(e) => rep.fail(sims_per_run, format!("run {runs}: {e}")),
        }
    }

    let wall = fastest(&walls);
    let ref_s = fastest(&refs);
    println!("[{name}] seed {} — end-to-end, tracing off", o.seed);
    println!("{}", summary("wall_s", &walls, "s"));
    println!("{}", summary("setup_s", &setups, "s"));
    println!("{}", summary("cpu_s", &cpus, "s"));
    println!("{}", summary("ref_s", &refs, "s"));
    let per = |x: f64, by: f64| if by > 0.0 { x / by } else { 0.0 };
    let (wall_rel, cpu_rel) = (per(wall, ref_s), per(fastest(&cpus), ref_s));
    println!(
        "  {:<16} {wall_rel:>12.4} x      wall_s / ref_s",
        "wall_rel"
    );
    println!("  {:<16} {cpu_rel:>12.4} x      cpu_s / ref_s", "cpu_rel");
    let hops_per_s = per(flit_hops as f64, wall);
    println!(
        "  {:<16} {hops_per_s:>12.0} 1/s    {flit_hops} flit-hops per run",
        "flit_hops_per_s"
    );
    let rss_mib = usage().max_rss_kib as f64 / 1024.0;
    println!("  {:<16} {rss_mib:>12.1} MiB", "peak_rss_mib");
    let ratio = rep.failed as f64 / rep.attempted.max(1) as f64;
    println!(
        "  {:<16} {ratio:>12.4}        {} failed of {} simulations",
        "fail_ratio", rep.failed, rep.attempted
    );
    if let Some(d) = &check.first_digest {
        let note = if check.pinned { " (pinned)" } else { "" };
        println!("  report digest    {d}{note}");
    }
    rep.metric("wall_rel", wall_rel, "x");
    rep.metric("setup_s", fastest(&setups), "s");
    rep.metric("cpu_rel", cpu_rel, "x");
    rep.metric("peak_rss_mib", rss_mib, "MiB");
    rep.correct = rep.failed == 0 && rep.problems.is_empty() && !walls.is_empty();
    rep
}

/// Per-layer numbers of one traced replay.
fn layer_values(r: &Replay) -> Vec<(&'static str, f64, &'static str)> {
    let rec = &r.rec;
    let step_s = rec.self_seconds("sim.step");
    let flit_hops = r.total(|s| s.flit_hops);
    let router_cycles = r.total(|s| s.busy_cycles * s.live_routers);
    let per = |n: u64| if n == 0 { 0.0 } else { step_s * 1e9 / n as f64 };
    let count = |f: fn(&SimRecord) -> u64| r.total(f) as f64;
    vec![
        ("topo.build_s", rec.self_seconds("topo.build"), "s"),
        (
            "topo.fault_sample_s",
            rec.self_seconds("topo.fault_sample"),
            "s",
        ),
        (
            "routing.oracle_build_s",
            rec.self_seconds("routing.oracle_build"),
            "s",
        ),
        ("topo.partition_s", rec.self_seconds("topo.partition"), "s"),
        ("topo.cut_channels", r.cut_channels as f64, "count"),
        ("sim.compile_s", rec.self_seconds("sim.compile"), "s"),
        ("sim.step_s", step_s, "s"),
        ("sim.ns_per_flit_hop", per(flit_hops), "ns"),
        ("sim.ns_per_router_cycle", per(router_cycles), "ns"),
        ("sim.busy_cycles", count(|s| s.busy_cycles), "count"),
        ("sim.skipped_cycles", count(|s| s.skipped_cycles), "count"),
        ("sim.flit_hops", flit_hops as f64, "count"),
        ("sim.packets_ejected", count(|s| s.packets_ejected), "count"),
        ("sim.exchange_msgs", count(|s| s.exchange_msgs), "count"),
        ("routing.route_calls", count(|s| s.route_calls), "count"),
        ("traffic.dest_calls", count(|s| s.dest_calls), "count"),
        ("workload.build_s", rec.self_seconds("workload.build"), "s"),
        (
            "workload.driver_s",
            rec.self_seconds("workload.driver"),
            "s",
        ),
        (
            "workload.driver_calls",
            rec.count("workload.driver") as f64,
            "count",
        ),
        ("core.parse_s", rec.self_seconds("core.parse"), "s"),
        ("core.report_s", rec.self_seconds("core.report"), "s"),
    ]
}

/// Simulations per workload run, as the first good replay counted them.
fn sims_of(replays: &[Replay]) -> u64 {
    replays.first().map_or(1, |r| r.sims.len() as u64)
}

/// Traced mode: span-traced replays alternating with untraced runs.
pub fn traced(o: &Options, pool: &BspPool, manifest: &Manifest) -> Report {
    let name = o.workload.name();
    let text = o.workload.scenario_json(o.seed, o.size);
    let mut rep = Report::default();
    let manifest_json = manifest_line(o, manifest, &text, "traced");

    // An untraced run first: warm-up, and the outcome the replays match.
    let reference = guarded(|| session_run(&text, pool));
    let reference_fp = reference
        .as_ref()
        .map_err(Clone::clone)
        .and_then(fingerprint);
    if let Err(e) = &reference_fp {
        rep.fail(1, format!("untraced run: {e}"));
    }
    let mut check = OutcomeCheck::new(o, reference_fp.as_ref().ok().map(|f| &f[..]));
    if let Ok(out) = &reference {
        if let Err(e) = check.check(out) {
            rep.fail(1, format!("untraced run: {e}"));
        }
    }

    let mut replays: Vec<Replay> = Vec::new();
    let mut walls = Vec::new();
    let start = Instant::now();
    let mut last = 0.0;
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() + last <= o.seconds {
        rounds += 1;
        let t = Instant::now();
        let r = guarded(|| replay(name, &text, pool, Until::End, reference.as_ref().ok()));
        match r {
            Ok(r) => {
                let verdict = r
                    .rec
                    .check_nesting()
                    .and_then(|()| match &reference_fp {
                        Ok(fp) => compare(&r.fingerprint, fp),
                        Err(_) => Ok(()),
                    })
                    .and_then(|()| match replays.first() {
                        Some(first) if first.sims != r.sims => {
                            Err("replayed counts differ between replays".to_string())
                        }
                        _ => Ok(()),
                    });
                match verdict {
                    Ok(()) => {
                        rep.pass(r.sims.len() as u64);
                        replays.push(r);
                    }
                    Err(e) => rep.fail(r.sims.len() as u64, format!("replay {rounds}: {e}")),
                }
            }
            Err(e) => rep.fail(sims_of(&replays), format!("replay {rounds}: {e}")),
        }
        let sims = sims_of(&replays);
        let t0 = Instant::now();
        let out = guarded(|| session_run(&text, pool));
        let wall = t0.elapsed().as_secs_f64();
        match out.and_then(|out| check.check(&out)) {
            Ok(()) => {
                rep.pass(sims);
                walls.push(wall);
            }
            Err(e) => rep.fail(sims, format!("untraced run {rounds}: {e}")),
        }
        last = t.elapsed().as_secs_f64();
    }

    println!(
        "[{name}] seed {} — traced replay, {} replays, self times",
        o.seed,
        replays.len()
    );
    let per_replay: Vec<Vec<(&'static str, f64, &'static str)>> =
        replays.iter().map(layer_values).collect();
    if let Some(first) = per_replay.first() {
        for (i, &(metric, _, unit)) in first.iter().enumerate() {
            let xs: Vec<f64> = per_replay.iter().map(|v| v[i].1).collect();
            let value = median(&xs);
            println!("  {metric:<24} {value:>16.6} {unit}");
            rep.metric(metric, value, unit);
        }
    }
    let totals: Vec<f64> = replays
        .iter()
        .filter_map(|r| r.rec.first_seconds("workload"))
        .collect();
    let overhead = fastest(&totals) - fastest(&walls);
    println!("  {:<24} {overhead:>16.6} s", "bench.trace_overhead_s");
    rep.metric("bench.trace_overhead_s", overhead, "s");
    if let Some(r) = replays.first() {
        let total = r.total(|s| s.busy_cycles + s.skipped_cycles).max(1);
        println!(
            "  skip ratio {:.4} ({} skipped of {} simulated cycles)",
            r.total(|s| s.skipped_cycles) as f64 / total as f64,
            r.total(|s| s.skipped_cycles),
            total
        );
        rep.spans_jsonl = format!("{manifest_json}\n{}", r.rec.to_jsonl());
    }
    rep.correct = rep.failed == 0 && rep.problems.is_empty() && !replays.is_empty();
    rep
}
