//! The traced replay: one scenario run rebuilt from the public layer
//! calls (fabric build, oracle build, fault sampling, partitioning,
//! `Simulation` compile and stepping), each timed by a span from the
//! outside. It applies the same participant and partition rules as
//! `Session::scenario(..).run()`, so its simulated counts must equal the
//! untraced run's exactly; [`fingerprint`] extracts those counts from a
//! report for the comparison.
//!
//! Only what the benchmark's workloads use is replayed: switch-less and
//! switch-based fabrics without a scenario fault section, automatic
//! partitioning, and the open-loop, resilience (without the closed-loop
//! probe) and serving run kinds. Anything else is an error, never a
//! silent divergence.

use crate::probe::{harvest, CountingOracle, CountingPattern, TimedDriver};
use crate::span::Recorder;
use std::sync::Arc;
use wsdf::routing::{DetourOracle, RouteMode, SlOracle, SwOracle};
use wsdf::scenario::{RunSpec, Topology};
use wsdf::sim::{
    effective_partitions, BspPool, FaultMap, Metrics, NetworkDesc, RouteOracle, SimConfig,
    Simulation, TrafficPattern,
};
use wsdf::topo::{
    contiguous_blocks, locality_partition, partition_stats, FaultSet, FaultSpec, SwitchFabric,
    SwitchlessFabric,
};
use wsdf::traffic::Scope;
use wsdf::workload::{build_jobs, ClosedLoop, JobInstance, MultiJobDriver, ServingSpec, Workload};
use wsdf::{
    Bench, BenchFaults, BenchOracle, Fabric, PartitionerKind, Partitioning, PatternSpec, Scenario,
    ScenarioOutcome, Stepping,
};

/// Simulated counts and layer call counts of one replayed simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimRecord {
    /// `Metrics::busy_cycles`.
    pub busy_cycles: u64,
    /// `Metrics::skipped_cycles`.
    pub skipped_cycles: u64,
    /// Flit-hops over all channel classes (`Metrics::class_hops`).
    pub flit_hops: u64,
    /// `Metrics::packets_ejected`.
    pub packets_ejected: u64,
    /// Sum of `exchange_edges().written`: boundary messages exchanged.
    pub exchange_msgs: u64,
    /// Routing-oracle `route` calls.
    pub route_calls: u64,
    /// Traffic-pattern `dest` calls.
    pub dest_calls: u64,
    /// Routers alive during this simulation.
    pub live_routers: u64,
}

/// How far a replay goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Until {
    /// Stop once the first simulation is compiled (set-up only).
    FirstCompile,
    /// Run every simulation of the scenario.
    End,
}

/// Result of one replay.
pub struct Replay {
    /// The recorded spans.
    pub rec: Recorder,
    /// One record per simulation run, in run order.
    pub sims: Vec<SimRecord>,
    /// Directed live channels cut by the partition map.
    pub cut_channels: u64,
    /// Simulated counts, comparable with [`fingerprint`] of the report.
    pub fingerprint: Vec<(String, u64)>,
}

impl Replay {
    /// Sum of one field over all simulations.
    pub fn total(&self, f: impl Fn(&SimRecord) -> u64) -> u64 {
        self.sims.iter().map(f).sum()
    }
}

/// Replay the scenario document `text`. With `report`, the report JSON
/// and digest of that (untraced) outcome are timed as `core.report`
/// after the workload span.
pub fn replay(
    workload: &'static str,
    text: &str,
    pool: &BspPool,
    until: Until,
    report: Option<&ScenarioOutcome>,
) -> Result<Replay, String> {
    let mut ctx = Ctx {
        rec: Recorder::new(workload),
        pool,
        until,
        sims: Vec::new(),
        fingerprint: Vec::new(),
        sim_span: None,
    };
    ctx.rec.enter("workload");
    let result = ctx.run(text);
    // Closes the workload span (and, after an error, whatever was open).
    ctx.rec.close_all();
    let cut_channels = result?;
    if let Some(out) = report {
        ctx.rec.time("core.report", || out.digest());
    }
    Ok(Replay {
        rec: ctx.rec,
        sims: ctx.sims,
        cut_channels,
        fingerprint: ctx.fingerprint,
    })
}

/// The simulated counts of a report that a replay reproduces.
pub fn fingerprint(out: &ScenarioOutcome) -> Result<Vec<(String, u64)>, String> {
    let mut fp = Vec::new();
    match out {
        ScenarioOutcome::OpenLoop(fig) => {
            let curve = fig
                .curves
                .first()
                .ok_or("open-loop report without a curve")?;
            for (i, p) in curve.points.iter().enumerate() {
                let pre = format!("point{i}");
                push_point(
                    &mut fp,
                    &pre,
                    [p.busy_cycles, p.skipped_cycles],
                    [p.latency, p.p50, p.p99, p.delivered],
                );
            }
        }
        ScenarioOutcome::Resilience(r) => {
            for (i, p) in r.points.iter().enumerate() {
                let pre = format!("point{i}");
                push_faults(
                    &mut fp,
                    &pre,
                    [
                        p.dead_links as u64,
                        p.dead_routers as u64,
                        p.live_endpoints as u64,
                        p.unreachable_pairs,
                    ],
                );
                push_point(
                    &mut fp,
                    &pre,
                    [p.busy_cycles, p.skipped_cycles],
                    [p.latency, p.p50, p.p99, p.delivered],
                );
            }
        }
        ScenarioOutcome::Serving(r) => {
            fp.push(("busy_cycles".into(), r.busy_cycles));
            fp.push(("skipped_cycles".into(), r.skipped_cycles));
            for (i, j) in r.jobs.iter().enumerate() {
                fp.push((format!("job{i}.completion"), j.completion));
            }
            for (i, c) in r.classes.iter().enumerate() {
                fp.push((format!("class{i}.isolated_ct"), c.isolated_ct));
            }
        }
        other => return Err(format!("the replay does not cover {} runs", other.kind())),
    }
    Ok(fp)
}

fn push_point(fp: &mut Vec<(String, u64)>, pre: &str, counts: [u64; 2], stats: [f64; 4]) {
    let names = ["busy_cycles", "skipped_cycles"];
    for (n, v) in names.iter().zip(counts) {
        fp.push((format!("{pre}.{n}"), v));
    }
    // Floats compare bit for bit: the replay must compute them the same way.
    let names = ["latency", "p50", "p99", "delivered"];
    for (n, v) in names.iter().zip(stats) {
        fp.push((format!("{pre}.{n}"), v.to_bits()));
    }
}

fn push_faults(fp: &mut Vec<(String, u64)>, pre: &str, counts: [u64; 4]) {
    let names = [
        "dead_links",
        "dead_routers",
        "live_endpoints",
        "unreachable_pairs",
    ];
    for (n, v) in names.iter().zip(counts) {
        fp.push((format!("{pre}.{n}"), v));
    }
}

/// Sweep-point statistics as `wsdf::sweep` derives them from `Metrics`.
fn point_stats(m: &Metrics) -> [f64; 4] {
    let pct = |q: Option<u64>| q.map(|v| v as f64).unwrap_or(f64::INFINITY);
    [
        m.avg_latency().unwrap_or(f64::INFINITY),
        pct(m.latency_hist.p50()),
        pct(m.latency_hist.p99()),
        m.ejection_fraction(),
    ]
}

/// How a compiled simulation is driven.
enum Drive<'a> {
    Open(&'a dyn TrafficPattern),
    Jobs(&'a [JobInstance]),
    Collective(&'a Workload),
}

/// Metrics plus the closed-loop completion data the fingerprint needs.
struct Ran {
    metrics: Metrics,
    completions: Vec<u64>,
}

struct Ctx<'a> {
    rec: Recorder,
    pool: &'a BspPool,
    until: Until,
    sims: Vec<SimRecord>,
    fingerprint: Vec<(String, u64)>,
    sim_span: Option<usize>,
}

/// Enter the monomorphized engine with the bench's concrete oracle type,
/// the way `wsdf::Bench` does.
macro_rules! with_oracle {
    ($oracle:expr, |$o:ident| $body:expr) => {
        match $oracle {
            BenchOracle::Sl($o) => $body,
            BenchOracle::Sw($o) => $body,
            BenchOracle::Mesh($o) => $body,
            BenchOracle::Switch($o) => $body,
            BenchOracle::Detour($o) => $body,
        }
    };
}

impl Ctx<'_> {
    /// Close the current simulation span (if any) and open the next one.
    fn next_sim(&mut self) {
        if let Some(id) = self.sim_span.take() {
            self.rec.exit(id);
        }
        let idx = self.sims.len() as u32;
        self.rec.set_sim(Some(idx));
        self.sim_span = Some(self.rec.enter("simulation"));
    }

    /// Replay every simulation; returns the partition map's cut.
    fn run(&mut self, text: &str) -> Result<u64, String> {
        let s = self
            .rec
            .time("core.parse", || Scenario::from_json_str(text))?;
        self.next_sim();
        let bench = self.build_bench(&s)?;
        let cfg = self.partitioned_config(&s, &bench)?;
        let map = cfg.partition_map.clone();
        match &s.run {
            RunSpec::OpenLoop { rates_chip } => self.open_loop(&s, &bench, cfg, rates_chip)?,
            RunSpec::Resilience {
                rate_chip,
                fractions,
                router_ratio,
                seed,
                collective_flits,
            } => {
                if *collective_flits > 0 {
                    return Err("the replay does not cover the closed-loop resilience probe".into());
                }
                let spec = |f: f64| FaultSpec {
                    seed: *seed,
                    link_fraction: f,
                    router_fraction: f * router_ratio,
                    ..FaultSpec::default()
                };
                self.resilience(&s, &bench, cfg, *rate_chip, fractions, spec)?
            }
            RunSpec::Serving { spec } => self.serving(&bench, cfg, spec)?,
            other => return Err(format!("the replay does not cover {} runs", other.kind())),
        }
        if let Some(id) = self.sim_span.take() {
            self.rec.exit(id);
        }
        self.rec.set_sim(None);
        // Benchmark-only work: outside every layer span and outside set-up.
        Ok(match (map, self.until) {
            (Some(map), Until::End) => {
                partition_stats(bench.fabric.net(), &map, None).cut_channels as u64
            }
            _ => 0,
        })
    }

    /// `Scenario::build_bench` from its layer calls.
    fn build_bench(&mut self, s: &Scenario) -> Result<Bench, String> {
        if s.faults.is_some() {
            return Err("the replay does not cover scenario fault sections".into());
        }
        let rec = &mut self.rec;
        Ok(match &s.topology {
            Topology::Switchless(p) => {
                let fabric = rec.time("topo.build", || SwitchlessFabric::build(p));
                let oracle = rec.time("routing.oracle_build", || SlOracle::new(p, s.route, s.vcs));
                Bench {
                    fabric: Fabric::Switchless(fabric),
                    oracle: BenchOracle::Sl(oracle),
                    scope: Scope::switchless(p),
                    nodes_per_chip: p.nodes_per_chip,
                    label: String::new(),
                    faults: None,
                }
            }
            Topology::Switchbased(p) => {
                let fabric = rec.time("topo.build", || SwitchFabric::build(p));
                let oracle = rec.time("routing.oracle_build", || match s.route {
                    RouteMode::Minimal => SwOracle::minimal(p),
                    RouteMode::Valiant => SwOracle::valiant(p),
                });
                Bench {
                    fabric: Fabric::Switchbased(fabric),
                    oracle: BenchOracle::Sw(oracle),
                    scope: Scope::switchbased(p),
                    nodes_per_chip: 1.0,
                    label: String::new(),
                    faults: None,
                }
            }
            other => {
                return Err(format!(
                    "the replay does not cover the {} family",
                    other.family()
                ))
            }
        })
    }

    /// The scenario's `SimConfig` with its partitioning resolved to an
    /// explicit map, as `Scenario::run` resolves it.
    fn partitioned_config(&mut self, s: &Scenario, bench: &Bench) -> Result<SimConfig, String> {
        let Partitioning::Auto {
            partitions,
            partitioner,
        } = &s.partitioning
        else {
            return Err("the replay does not cover explicit partition maps".into());
        };
        let net = bench.fabric.net();
        let mut cfg = SimConfig {
            packet_len: s.sim.packet_len,
            buffer_flits: s.sim.buffer_flits,
            warmup_cycles: s.sim.warmup_cycles,
            measure_cycles: s.sim.measure_cycles,
            drain_cycles: s.sim.drain_cycles,
            seed: s.sim.seed,
            event_driven: s.stepping == Stepping::Event,
            ..SimConfig::default()
        };
        let p = effective_partitions(
            *partitions as usize,
            net.num_routers(),
            wsdf::exec::configured_threads(),
        );
        cfg.partitions = p;
        if p > 1 {
            let map = self.rec.time("topo.partition", || match partitioner {
                PartitionerKind::Locality => locality_partition(net, p, None),
                PartitionerKind::Blocks => contiguous_blocks(net, p),
            });
            cfg.partition_map = Some(Arc::new(map));
        }
        Ok(cfg)
    }

    /// Compile and run one simulation; `None` when the replay stops at
    /// set-up.
    fn simulate<O: RouteOracle>(
        &mut self,
        net: &NetworkDesc,
        cfg: &SimConfig,
        oracle: O,
        faults: Option<&FaultMap>,
        drive: Drive<'_>,
    ) -> Result<Option<Ran>, String> {
        let idx = self.sims.len();
        let mut sim = self
            .rec
            .time("sim.compile", || {
                Simulation::with_faults(net, cfg, CountingOracle(oracle), faults)
            })
            .map_err(|e| format!("simulation {idx}: {e}"))?;
        if self.until == Until::FirstCompile {
            return Ok(None);
        }
        let pool = self.pool;
        let step = self.rec.enter("sim.step");
        let ran = match drive {
            Drive::Open(p) => sim.run_on(pool, &CountingPattern(p)).map(|metrics| Ran {
                metrics,
                completions: Vec::new(),
            }),
            Drive::Jobs(jobs) => {
                let mut d =
                    TimedDriver::new(MultiJobDriver::new(jobs, cfg.packet_len), &mut self.rec);
                sim.run_closed_loop_on(pool, &mut d).map(|m| {
                    let out = d.inner.into_outcome(m);
                    Ran {
                        metrics: out.metrics,
                        completions: out.job_completion,
                    }
                })
            }
            Drive::Collective(wl) => {
                let mut d = TimedDriver::new(ClosedLoop::new(wl, cfg.packet_len), &mut self.rec);
                sim.run_closed_loop_on(pool, &mut d).map(|m| {
                    let out = d.inner.into_outcome(m);
                    Ran {
                        metrics: out.metrics,
                        completions: vec![out.completion_cycles],
                    }
                })
            }
        };
        self.rec.exit(step);
        let ran = ran.map_err(|e| format!("simulation {idx}: {e}"))?;
        let (route_calls, dest_calls) = harvest(pool);
        let m = &ran.metrics;
        self.sims.push(SimRecord {
            busy_cycles: m.busy_cycles,
            skipped_cycles: m.skipped_cycles,
            flit_hops: m.class_hops.flit_hops.iter().sum(),
            packets_ejected: m.packets_ejected,
            exchange_msgs: sim.exchange_edges().iter().map(|e| e.written).sum(),
            route_calls,
            dest_calls,
            live_routers: faults.map_or(net.num_routers(), |f| f.live_routers()) as u64,
        });
        Ok(Some(ran))
    }

    /// Ring patterns report bottleneck-chip throughput, which needs
    /// per-endpoint counters (as `wsdf::sweep` sets them).
    fn sweep_config(cfg: &SimConfig, bench: &Bench, pattern: PatternSpec) -> SimConfig {
        let mut cfg = cfg.clone();
        cfg.per_endpoint_stats = matches!(
            pattern,
            PatternSpec::RingCGroup(_) | PatternSpec::RingWGroup(_)
        );
        cfg.num_vcs = cfg.num_vcs.max(bench.oracle.num_vcs());
        cfg
    }

    /// Open-loop sweep: one simulation per rate. A two-rate sweep never
    /// stops early (the stop needs two saturated points), so every rate
    /// is replayed; a longer sweep that stops early shows up as a
    /// fingerprint mismatch.
    fn open_loop(
        &mut self,
        s: &Scenario,
        bench: &Bench,
        cfg: SimConfig,
        rates_chip: &Option<Vec<f64>>,
    ) -> Result<(), String> {
        let t = s
            .traffic
            .as_ref()
            .ok_or("open-loop scenario without traffic")?;
        let rates = match rates_chip {
            Some(r) => r.clone(),
            None => vec![t.rate.ok_or("open-loop scenario without a rate")? * bench.nodes_per_chip],
        };
        let cfg = Self::sweep_config(&cfg, bench, t.pattern);
        let net = bench.fabric.net();
        for (i, rate_chip) in rates.into_iter().enumerate() {
            if i > 0 {
                self.next_sim();
            }
            let pattern = bench.pattern(t.pattern, rate_chip / bench.nodes_per_chip);
            let drive = Drive::Open(pattern.as_ref());
            let ran = with_oracle!(&bench.oracle, |o| self.simulate(net, &cfg, o, None, drive))?;
            let Some(ran) = ran else { return Ok(()) };
            let pre = format!("point{i}");
            let m = &ran.metrics;
            let stats = point_stats(m);
            push_point(
                &mut self.fingerprint,
                &pre,
                [m.busy_cycles, m.skipped_cycles],
                stats,
            );
        }
        Ok(())
    }

    /// Resilience sweep: per fault fraction, sample the faults, build the
    /// detour oracle when anything failed, and run the open-loop probe.
    /// The partition map stays the pristine one, as in `wsdf`.
    fn resilience(
        &mut self,
        s: &Scenario,
        bench: &Bench,
        cfg: SimConfig,
        rate_chip: f64,
        fractions: &[f64],
        spec: impl Fn(f64) -> FaultSpec,
    ) -> Result<(), String> {
        let t = s
            .traffic
            .as_ref()
            .ok_or("resilience scenario without traffic")?;
        let net = bench.fabric.net();
        for (i, &f) in fractions.iter().enumerate() {
            if i > 0 {
                self.next_sim();
            }
            let fs = self
                .rec
                .time("topo.fault_sample", || FaultSet::sample(net, &spec(f)));
            let degraded = if fs.is_empty() {
                None
            } else {
                let (oracle, reach) = self.rec.time("routing.oracle_build", || {
                    let o = DetourOracle::build(net, fs.map());
                    let reach = o.reach_map();
                    (o, reach)
                });
                Some(Bench {
                    fabric: bench.fabric.clone(),
                    oracle: BenchOracle::Detour(oracle),
                    scope: bench.scope.clone(),
                    nodes_per_chip: bench.nodes_per_chip,
                    label: String::new(),
                    faults: Some(BenchFaults {
                        reach,
                        map: fs.map().clone(),
                        dead_links: fs.dead_links(),
                        dead_routers: fs.dead_routers(),
                    }),
                })
            };
            let b = degraded.as_ref().unwrap_or(bench);
            let pcfg = Self::sweep_config(&cfg, b, t.pattern);
            let pattern = b.pattern(t.pattern, rate_chip / b.nodes_per_chip);
            let drive = Drive::Open(pattern.as_ref());
            let faults = b.fault_map();
            let ran = with_oracle!(&b.oracle, |o| self.simulate(net, &pcfg, o, faults, drive))?;
            let Some(ran) = ran else { return Ok(()) };
            let (live, unreachable) = match &b.faults {
                None => (b.endpoints() as u64, 0),
                Some(bf) => (
                    bf.reach.live_endpoints() as u64,
                    bf.reach.unreachable_pairs(),
                ),
            };
            let pre = format!("point{i}");
            let m = &ran.metrics;
            push_faults(
                &mut self.fingerprint,
                &pre,
                [
                    fs.dead_links() as u64,
                    fs.dead_routers() as u64,
                    live,
                    unreachable,
                ],
            );
            push_point(
                &mut self.fingerprint,
                &pre,
                [m.busy_cycles, m.skipped_cycles],
                point_stats(m),
            );
        }
        Ok(())
    }

    /// Multi-tenant serving: the concurrent run of every job, then one
    /// isolated run of the first job of each served class.
    fn serving(&mut self, bench: &Bench, cfg: SimConfig, spec: &ServingSpec) -> Result<(), String> {
        let mut cfg = cfg;
        cfg.num_vcs = cfg.num_vcs.max(bench.oracle.num_vcs());
        let net = bench.fabric.net();
        let endpoints = net.num_endpoints() as u32;
        let jobs = self.rec.time("workload.build", || {
            // Pristine bench: one participant per chip, node 0.
            let chips: Vec<u32> = (0..bench.scope.num_chips())
                .map(|c| bench.scope.node_of(c, 0))
                .collect();
            let jobs = build_jobs(spec, &chips)?;
            for job in &jobs {
                job.workload.validate(endpoints)?;
            }
            Ok::<_, String>(jobs)
        })?;
        let drive = Drive::Jobs(&jobs);
        let ran = with_oracle!(&bench.oracle, |o| self.simulate(net, &cfg, o, None, drive))?;
        let Some(ran) = ran else { return Ok(()) };
        let fp = &mut self.fingerprint;
        fp.push(("busy_cycles".into(), ran.metrics.busy_cycles));
        fp.push(("skipped_cycles".into(), ran.metrics.skipped_cycles));
        for (i, &c) in ran.completions.iter().enumerate() {
            fp.push((format!("job{i}.completion"), c));
        }
        for ci in 0..spec.classes.len() {
            let Some(job) = jobs.iter().find(|j| j.class as usize == ci) else {
                self.fingerprint.push((format!("class{ci}.isolated_ct"), 0));
                continue;
            };
            self.next_sim();
            self.rec
                .time("workload.build", || job.workload.validate(endpoints))?;
            let drive = Drive::Collective(&job.workload);
            let ran = with_oracle!(&bench.oracle, |o| self.simulate(net, &cfg, o, None, drive))?
                .expect("a set-up replay returns at the concurrent run, before any isolated run");
            self.fingerprint
                .push((format!("class{ci}.isolated_ct"), ran.completions[0]));
        }
        Ok(())
    }
}
