//! The unified run frontend: one builder for every run kind, with
//! optional streaming telemetry.
//!
//! [`Session`] is the one entry point for every run kind:
//!
//! ```no_run
//! use wsdf::{AdaptiveConfig, Bench, PatternSpec, Session};
//!
//! let bench = Bench::single_mesh(4, 2, 1);
//! let out = Session::bench(&bench)
//!     .adaptive(&AdaptiveConfig::default(), PatternSpec::Uniform)
//!     .unwrap();
//! println!("saturation {:.2} flits/cycle/chip", out.report.sat_chip);
//! ```
//!
//! A session is built from either a [`Bench`] (pick a run kind:
//! [`Session::metrics`], [`Session::sweep`], [`Session::adaptive`],
//! [`Session::workload`], [`Session::serving`], [`Session::resilience`])
//! or a [`Scenario`] ([`Session::run`] dispatches on the scenario's run
//! section). Four setters configure it: [`Session::sim`],
//! [`Session::partitions`], [`Session::pool`] and [`Session::trace`].
//! Every run kind returns a typed [`Outcome`] carrying the kind's report
//! plus, when telemetry was attached, a [`TraceOutcome`].
//!
//! # Run settings
//!
//! A run's settings come from its arguments alone. A scenario session
//! takes stepping, windows and partitioning from the scenario, and
//! rejects [`Session::sim`]. A bench session takes them from the one
//! [`SimConfig`] given by [`Session::sim`] ([`SimConfig::default`]
//! otherwise: Table IV windows, event-driven stepping, one partition),
//! for every run kind; the kind configs ([`AdaptiveConfig`],
//! [`ResilienceConfig`]) hold only the kind's own settings. Either way
//! the partition map is resolved once, before dispatch, by
//! [`Partitioning::apply`]: from the scenario's `partitioning` section,
//! or for a bench session from the config's `partitions` with the
//! locality partitioner (skipped when the config already carries a
//! map). Reports are bit-identical under any map, so it shows only in
//! wall-clock time. Every run executes on the [`BspPool`] given by
//! [`Session::pool`], else the process-wide pool.
//!
//! # Telemetry
//!
//! [`Session::trace`] captures the JSONL stream in memory and returns it,
//! with its digest, in the outcome; writing it to a file is one
//! `std::fs::write` of [`TraceOutcome::jsonl`]. Telemetry is
//! observe-only: reports are bit-identical with and without it, and the
//! trace byte stream itself is deterministic across partition counts,
//! worker counts and stepping modes (see `wsdf_sim::telemetry`).

use crate::bench::{Bench, PatternSpec};
use crate::collective::{run_workload_impl, WorkloadReport, WorkloadUnits};
use crate::resilience::{resilience_impl, ResilienceConfig, ResilienceReport};
use crate::scenario::{PartitionerKind, Partitioning, Scenario, ScenarioOutcome};
use crate::serving::{run_serving_impl, ServingReport};
use crate::sweep::{adaptive_impl, sweep_impl, AdaptiveConfig, SaturationReport, SweepPoint};
use wsdf_exec::BspPool;
use wsdf_sim::{json, Metrics, SimConfig, TraceConfig, Tracer, TrafficPattern};
use wsdf_workload::tenancy::ServingSpec;
use wsdf_workload::Workload;

/// The trace stream a session captured, with its digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceOutcome {
    /// FNV-1a digest of [`TraceOutcome::jsonl`] (`fnv64:` + 16 hex
    /// digits).
    pub digest: String,
    /// The captured JSONL stream.
    pub jsonl: String,
}

/// Result of one session run: the run kind's report plus the trace
/// outcome when telemetry was attached.
#[derive(Debug)]
pub struct Outcome<T> {
    /// The run kind's report (e.g. [`Metrics`], [`SaturationReport`],
    /// [`ScenarioOutcome`]).
    pub report: T,
    /// Trace capture; `None` when telemetry was not configured.
    pub trace: Option<TraceOutcome>,
}

/// What the session runs on.
#[derive(Clone, Copy)]
enum Source<'a> {
    Bench(&'a Bench),
    Scenario(&'a Scenario),
}

/// The unified run builder. See the module docs for the design; every
/// run-kind method consumes the session (one build, one run).
pub struct Session<'a> {
    source: Source<'a>,
    sim: Option<SimConfig>,
    partitions: Option<usize>,
    pool: Option<&'a BspPool>,
    trace: Option<TraceConfig>,
}

impl<'a> Session<'a> {
    fn new(source: Source<'a>) -> Session<'a> {
        Session {
            source,
            sim: None,
            partitions: None,
            pool: None,
            trace: None,
        }
    }

    /// A session over a built [`Bench`]; pick a run kind to execute.
    pub fn bench(bench: &'a Bench) -> Session<'a> {
        Session::new(Source::Bench(bench))
    }

    /// A session over a declarative [`Scenario`]; [`Session::run`]
    /// dispatches on its run section. The scenario's own `telemetry`
    /// section (if any) is honored unless [`Session::trace`] overrides
    /// it.
    pub fn scenario(scenario: &'a Scenario) -> Session<'a> {
        Session::new(Source::Scenario(scenario))
    }

    /// Simulation config of a bench session (windows, seed, buffering,
    /// stepping, partitions): the only one its run reads, whatever the
    /// kind. Defaults to [`SimConfig::default`]. A scenario session takes
    /// its sim section from the scenario, so [`Session::run`] rejects
    /// this.
    pub fn sim(mut self, cfg: SimConfig) -> Session<'a> {
        self.sim = Some(cfg);
        self
    }

    /// Requested BSP partition count (the engine clamps to live routers
    /// and worker count, exactly like `SimConfig::partitions`). For a
    /// scenario session this replaces its `partitioning` section with
    /// automatic partitioning by the scenario's partitioner (locality if
    /// the scenario gave an explicit map).
    pub fn partitions(mut self, partitions: usize) -> Session<'a> {
        self.partitions = Some(partitions);
        self
    }

    /// Run on an explicit executor instead of the process-wide pool.
    /// Results are bit-identical for any pool size.
    pub fn pool(mut self, pool: &'a BspPool) -> Session<'a> {
        self.pool = Some(pool);
        self
    }

    /// Attach streaming telemetry, capturing the JSONL stream in memory.
    /// The outcome's [`TraceOutcome`] carries the stream and its digest.
    pub fn trace(mut self, cfg: TraceConfig) -> Session<'a> {
        self.trace = Some(cfg);
        self
    }

    /// The executor this session runs on.
    fn executor(&self) -> &'a BspPool {
        self.pool.unwrap_or_else(|| wsdf_exec::global_pool())
    }

    /// The bench source, or a uniform error for scenario sessions.
    fn need_bench(&self, kind: &str) -> Result<&'a Bench, String> {
        match self.source {
            Source::Bench(b) => Ok(b),
            Source::Scenario(_) => Err(format!(
                "Session::{kind}: scenario sessions dispatch via Session::run(); \
                 run kinds are picked by bench sessions"
            )),
        }
    }

    /// The sim config of a bench session: [`Session::sim`] (else
    /// [`SimConfig::default`]) with [`Session::partitions`] applied and
    /// the partition map resolved, unless the config already carries one.
    fn bench_sim(&self, bench: &Bench) -> Result<SimConfig, String> {
        let mut cfg = self.sim.clone().unwrap_or_default();
        if let Some(p) = self.partitions {
            cfg.partitions = p;
        }
        if cfg.partition_map.is_none() {
            let auto = Partitioning::Auto {
                partitions: cfg.partitions as u64,
                partitioner: PartitionerKind::Locality,
            };
            auto.apply(bench, &mut cfg)?;
        }
        Ok(cfg)
    }

    /// Run one open-loop simulation and return its raw [`Metrics`].
    pub fn metrics(self, pattern: &dyn TrafficPattern) -> Result<Outcome<Metrics>, String> {
        let bench = self.need_bench("metrics")?;
        let cfg = bench.prepare_cfg(&self.bench_sim(bench)?);
        let pool = self.executor();
        traced(self.trace, |trace| {
            bench
                .run_prepared(&cfg, pattern, pool, trace)
                .map_err(|e| format!("session metrics run failed: {e}"))
        })
    }

    /// Run a fixed-grid load-latency sweep: one simulation per rate in
    /// `rates_chip` (flits/cycle/chip), in order, stopping one point past
    /// saturation.
    pub fn sweep(
        self,
        spec: PatternSpec,
        rates_chip: &[f64],
    ) -> Result<Outcome<Vec<SweepPoint>>, String> {
        let bench = self.need_bench("sweep")?;
        let sim = self.bench_sim(bench)?;
        let pool = self.executor();
        traced(self.trace, |trace| {
            Ok(sweep_impl(bench, &sim, spec, rates_chip, pool, trace))
        })
    }

    /// Run a saturation-seeking adaptive sweep.
    pub fn adaptive(
        self,
        cfg: &AdaptiveConfig,
        spec: PatternSpec,
    ) -> Result<Outcome<SaturationReport>, String> {
        let bench = self.need_bench("adaptive")?;
        let sim = self.bench_sim(bench)?;
        let pool = self.executor();
        traced(self.trace, |trace| {
            Ok(adaptive_impl(bench, &sim, cfg, spec, pool, trace))
        })
    }

    /// Run a collective workload DAG closed-loop.
    pub fn workload(
        self,
        wl: &Workload,
        units: &WorkloadUnits,
    ) -> Result<Outcome<WorkloadReport>, String> {
        let bench = self.need_bench("workload")?;
        let cfg = bench.prepare_cfg(&self.bench_sim(bench)?);
        let pool = self.executor();
        traced(self.trace, |trace| {
            run_workload_impl(bench, &cfg, wl, units, pool, trace)
                .map_err(|e| format!("session workload run failed: {e}"))
        })
    }

    /// Run a multi-tenant serving mix. The trace's job stream covers the
    /// concurrent run only (isolated baselines are untraced).
    pub fn serving(self, spec: &ServingSpec) -> Result<Outcome<ServingReport>, String> {
        let bench = self.need_bench("serving")?;
        let cfg = bench.prepare_cfg(&self.bench_sim(bench)?);
        let pool = self.executor();
        traced(self.trace, |trace| {
            run_serving_impl(bench, &cfg, spec, pool, trace)
        })
    }

    /// Run a fault-injection resilience sweep. The partition map is
    /// resolved on the pristine bench and serves every fault fraction.
    /// With the `epochs` stream enabled, each fault fraction is delimited
    /// by an `epoch` record in the trace.
    pub fn resilience(
        self,
        cfg: &ResilienceConfig,
        spec: PatternSpec,
    ) -> Result<Outcome<ResilienceReport>, String> {
        let bench = self.need_bench("resilience")?;
        let sim = self.bench_sim(bench)?;
        let pool = self.executor();
        traced(self.trace, |trace| {
            Ok(resilience_impl(bench, &sim, cfg, spec, pool, trace))
        })
    }

    /// Execute a scenario session: dispatch on the scenario's run
    /// section, with a [`Session::partitions`] override applied and
    /// telemetry from [`Session::trace`] or, failing that, the
    /// scenario's own `telemetry` section. Errors if [`Session::sim`]
    /// was set: the scenario's sim section is the run's only one.
    pub fn run(self) -> Result<Outcome<ScenarioOutcome>, String> {
        let Source::Scenario(scenario) = self.source else {
            return Err("Session::run: bench sessions pick a run kind \
                 (metrics/sweep/adaptive/workload/serving/resilience)"
                .to_string());
        };
        if self.sim.is_some() {
            return Err(
                "Session::sim: a scenario session takes its sim section from the scenario"
                    .to_string(),
            );
        }
        // A partitions override rewrites the section it shadows, so the
        // one scenario run path sees one consistent spec.
        let mut eff = scenario.clone();
        if let Some(p) = self.partitions {
            let partitioner = match &eff.partitioning {
                Partitioning::Auto { partitioner, .. } => *partitioner,
                Partitioning::Map(_) => PartitionerKind::Locality,
            };
            eff.partitioning = Partitioning::Auto {
                partitions: p as u64,
                partitioner,
            };
        }
        let pool = self.executor();
        traced(self.trace.or_else(|| eff.telemetry.clone()), |trace| {
            eff.run_traced_on(pool, trace)
        })
    }
}

/// Run `body` with telemetry attached when `trace` is set, capturing the
/// stream in memory, and wrap its report in an [`Outcome`].
fn traced<T>(
    trace: Option<TraceConfig>,
    body: impl FnOnce(Option<&Tracer>) -> Result<T, String>,
) -> Result<Outcome<T>, String> {
    let Some(cfg) = trace else {
        return Ok(Outcome {
            report: body(None)?,
            trace: None,
        });
    };
    let tracer = Tracer::new(cfg);
    let report = body(Some(&tracer))?;
    let jsonl = tracer.take_jsonl();
    Ok(Outcome {
        report,
        trace: Some(TraceOutcome {
            digest: json::digest_hex(&jsonl),
            jsonl,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_session_runs_and_traces_in_memory() {
        let bench = Bench::single_mesh(2, 2, 1);
        let cfg = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 400,
            ..SimConfig::default()
        };
        let pat = bench.pattern(PatternSpec::Uniform, 0.05);
        let out = Session::bench(&bench)
            .sim(cfg.clone())
            .trace(TraceConfig {
                stride: 64,
                ..TraceConfig::default()
            })
            .metrics(pat.as_ref())
            .unwrap();
        assert!(out.report.packets_ejected > 0);
        let trace = out.trace.expect("trace was configured");
        assert!(!trace.jsonl.is_empty());
        assert!(trace.jsonl.lines().all(|l| l.starts_with("{\"t\": \"")));
        assert_eq!(trace.digest, json::digest_hex(&trace.jsonl));

        // Observe-only: the same session without telemetry is bit-identical.
        let plain = Session::bench(&bench)
            .sim(cfg)
            .metrics(pat.as_ref())
            .unwrap();
        assert!(plain.trace.is_none());
        assert_eq!(format!("{:?}", plain.report), format!("{:?}", out.report));
    }

    #[test]
    fn precedence_table_threads() {
        // An explicit pool trumps the environment; without one a session
        // runs on the process-wide pool, sized by `WSDF_THREADS` (exec's
        // `env_override_precedence` pins that rule), else the available
        // parallelism.
        let bench = Bench::single_mesh(2, 2, 1);
        let pool = BspPool::new(3);
        let explicit = Session::bench(&bench).pool(&pool).executor();
        assert!(std::ptr::eq(explicit, &pool));
        assert_eq!(explicit.workers(), 3);
        let implicit = Session::bench(&bench).executor();
        assert!(std::ptr::eq(implicit, wsdf_exec::global_pool()));
        assert_eq!(implicit.workers(), wsdf_exec::configured_threads());

        // The worker count shows only in wall-clock time.
        let cfg = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 200,
            ..SimConfig::default()
        };
        let pat = bench.pattern(PatternSpec::Uniform, 0.05);
        let run = |s: Session| s.sim(cfg.clone()).metrics(pat.as_ref()).unwrap().report;
        assert_eq!(
            format!("{:?}", run(Session::bench(&bench).pool(&pool))),
            format!("{:?}", run(Session::bench(&bench)))
        );
    }

    #[test]
    fn run_kinds_reject_wrong_source() {
        let bench = Bench::single_mesh(2, 2, 1);
        let err = Session::bench(&bench).run().unwrap_err();
        assert!(err.contains("bench sessions pick a run kind"), "{err}");
    }

    #[test]
    fn scenario_sessions_reject_a_sim_config() {
        let scenario = Scenario::from_json_str(
            r#"{"name": "s", "topology": {"family": "mesh", "m": 2, "chiplet": 2, "width": 1},
                "traffic": {"pattern": "uniform", "rate": 0.05},
                "run": {"kind": "open_loop"}}"#,
        )
        .unwrap();
        let err = Session::scenario(&scenario)
            .sim(SimConfig::default())
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            "Session::sim: a scenario session takes its sim section from the scenario"
        );
    }
}
