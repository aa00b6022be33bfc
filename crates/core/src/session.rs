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
//! section). Every run kind returns a typed [`Outcome`] carrying the
//! kind's report plus, when telemetry was attached, a [`TraceOutcome`].
//!
//! # Telemetry
//!
//! [`Session::trace`] buffers the JSONL stream in memory and returns it
//! (with its digest) in the outcome; [`Session::trace_to_path`] streams
//! to a file; [`Session::trace_to_writer`] streams to any `Write + Send`
//! sink. Telemetry is observe-only: reports are bit-identical with and
//! without it, and the trace byte stream itself is deterministic across
//! partition counts, worker counts and stepping modes (see
//! `wsdf_sim::telemetry`).
//!
//! # Environment resolution
//!
//! [`SessionConfig`] is the single documented resolution point for the
//! engine's environment knobs — see [`SessionConfig::resolve`] for the
//! precedence table. Builder methods always override the environment.

use crate::bench::{Bench, PatternSpec};
use crate::collective::{run_workload_impl, WorkloadReport, WorkloadUnits};
use crate::resilience::{resilience_impl, ResilienceConfig, ResilienceReport};
use crate::scenario::{PartitionerKind, Partitioning, Scenario, ScenarioOutcome, Stepping};
use crate::serving::{run_serving_impl, ServingReport};
use crate::sweep::{
    adaptive_impl, sweep_impl, AdaptiveConfig, SaturationReport, SweepConfig, SweepPoint,
};
use std::io::Write;
use std::path::PathBuf;
use wsdf_exec::BspPool;
use wsdf_sim::{
    json, Metrics, SharedBuf, SimConfig, TraceConfig, TraceGuard, Tracer, TrafficPattern,
};
use wsdf_workload::tenancy::ServingSpec;
use wsdf_workload::Workload;

/// The resolved environment configuration every run starts from: one
/// documented precedence table instead of per-callsite `env::var` reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Engine stepping default (`WSDF_EVENT_DRIVEN`): only the literal
    /// `0` selects dense stepping; anything else (or unset) selects
    /// event-driven.
    pub event_driven: bool,
    /// Partition-map scheme default (`WSDF_PARTITIONER`): only the
    /// literal `blocks` selects contiguous blocks; anything else (or
    /// unset) selects the locality partitioner.
    pub partitioner: PartitionerKind,
    /// Worker-count override (`WSDF_THREADS`, else `RAYON_NUM_THREADS`;
    /// values are trimmed, non-numeric or zero values are ignored).
    /// `None` falls back to the machine's available parallelism.
    pub threads: Option<usize>,
}

impl SessionConfig {
    /// Resolve the full precedence table from an environment lookup
    /// function. Pure — the unit tests below pin the table without
    /// mutating the process environment:
    ///
    /// | Variable | Effect |
    /// |---|---|
    /// | `WSDF_EVENT_DRIVEN=0` | dense stepping (any other value, or unset: event-driven) |
    /// | `WSDF_PARTITIONER=blocks` | contiguous blocks (any other value, or unset: locality) |
    /// | `WSDF_THREADS=N` | N workers (trumps `RAYON_NUM_THREADS`) |
    /// | `RAYON_NUM_THREADS=N` | N workers (only when `WSDF_THREADS` is unset/invalid) |
    ///
    /// Invalid or zero thread counts are ignored (fall through to the
    /// next source); stepping/partitioner values never fail — unknown
    /// strings select the default.
    pub fn resolve(get: impl Fn(&str) -> Option<String>) -> SessionConfig {
        SessionConfig {
            event_driven: wsdf_sim::config::resolve_event_driven(&get),
            partitioner: match get("WSDF_PARTITIONER") {
                Some(v) if v == "blocks" => PartitionerKind::Blocks,
                _ => PartitionerKind::Locality,
            },
            threads: wsdf_exec::resolve_threads(&get),
        }
    }

    /// [`SessionConfig::resolve`] over the process environment, cached on
    /// first use (so a test harness mutating the environment mid-process
    /// cannot race running simulations). The `event_driven` entry shares
    /// the cache behind `SimConfig::default()`.
    pub fn from_env() -> SessionConfig {
        use std::sync::OnceLock;
        static CFG: OnceLock<SessionConfig> = OnceLock::new();
        *CFG.get_or_init(|| SessionConfig {
            // Not `resolve()` wholesale: `SimConfig::default()` already
            // caches the stepping read, and the two caches must agree.
            event_driven: wsdf_sim::config::event_driven_default(),
            partitioner: SessionConfig::resolve(|k| std::env::var(k).ok()).partitioner,
            threads: wsdf_exec::resolve_threads(|k| std::env::var(k).ok()),
        })
    }
}

/// Where a session's trace stream went, and (for in-memory captures) the
/// stream itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceOutcome {
    /// FNV-1a digest of the JSONL stream (`fnv64:` + 16 hex digits).
    /// `Some` for in-memory captures ([`Session::trace`]), `None` when
    /// the stream went to a file or external writer.
    pub digest: Option<String>,
    /// The captured JSONL stream (in-memory captures only).
    pub jsonl: Option<String>,
    /// Destination file ([`Session::trace_to_path`] captures only).
    pub path: Option<PathBuf>,
}

/// Result of one session run: the run kind's report plus the trace
/// outcome when telemetry was attached.
#[derive(Debug)]
pub struct Outcome<T> {
    /// The run kind's report (e.g. [`Metrics`], [`SaturationReport`],
    /// [`ScenarioOutcome`]).
    pub report: T,
    /// Trace capture summary; `None` when telemetry was not configured.
    pub trace: Option<TraceOutcome>,
}

/// What the session runs on.
#[derive(Clone, Copy)]
enum Source<'a> {
    Bench(&'a Bench),
    Scenario(&'a Scenario),
}

/// Where the trace stream goes.
enum SinkSpec {
    /// In-memory capture; the outcome carries the stream and its digest.
    Buffer,
    /// Stream to a file created at run start.
    Path(PathBuf),
    /// Stream to a caller-supplied writer.
    Writer(Box<dyn Write + Send>),
}

/// A live trace pipeline during a run.
struct ActiveTrace {
    tracer: Tracer,
    guard: TraceGuard,
    buf: Option<SharedBuf>,
    path: Option<PathBuf>,
}

/// The unified run builder. See the module docs for the design; every
/// run-kind method consumes the session (one build, one run).
pub struct Session<'a> {
    source: Source<'a>,
    sim: Option<SimConfig>,
    partitions: Option<usize>,
    stepping: Option<Stepping>,
    partitioner: Option<PartitionerKind>,
    pool: Option<&'a BspPool>,
    trace: Option<(TraceConfig, SinkSpec)>,
}

impl<'a> Session<'a> {
    fn new(source: Source<'a>) -> Session<'a> {
        Session {
            source,
            sim: None,
            partitions: None,
            stepping: None,
            partitioner: None,
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
    /// section (if any) is honored unless a `trace*` builder method
    /// overrides it.
    pub fn scenario(scenario: &'a Scenario) -> Session<'a> {
        Session::new(Source::Scenario(scenario))
    }

    /// Simulation config template (windows, seed, buffering). Bench
    /// sessions default to [`SimConfig::default`]; for kind configs that
    /// embed their own template ([`SweepConfig::sim`],
    /// [`ResilienceConfig::sim`]) this replaces it. Scenario sessions
    /// take their sim section from the scenario instead and ignore this.
    pub fn sim(mut self, cfg: SimConfig) -> Session<'a> {
        self.sim = Some(cfg);
        self
    }

    /// Requested BSP partition count (the engine clamps to live routers
    /// and worker count, exactly like `SimConfig::partitions`).
    pub fn partitions(mut self, partitions: usize) -> Session<'a> {
        self.partitions = Some(partitions);
        self
    }

    /// Engine stepping mode, overriding the environment default (and the
    /// scenario's `stepping` section for scenario sessions).
    pub fn stepping(mut self, stepping: Stepping) -> Session<'a> {
        self.stepping = Some(stepping);
        self
    }

    /// Partition-map scheme, overriding the `WSDF_PARTITIONER` default
    /// (and the scenario's `partitioning.partitioner` for scenario
    /// sessions with auto partitioning).
    pub fn partitioner(mut self, kind: PartitionerKind) -> Session<'a> {
        self.partitioner = Some(kind);
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
        self.trace = Some((cfg, SinkSpec::Buffer));
        self
    }

    /// Attach streaming telemetry writing JSONL to `path` (created at
    /// run start, flushed and closed before the run returns).
    pub fn trace_to_path(mut self, cfg: TraceConfig, path: impl Into<PathBuf>) -> Session<'a> {
        self.trace = Some((cfg, SinkSpec::Path(path.into())));
        self
    }

    /// Attach streaming telemetry writing JSONL to a caller-supplied
    /// sink (e.g. a [`SharedBuf`] clone, a socket, a compressor).
    pub fn trace_to_writer(mut self, cfg: TraceConfig, sink: Box<dyn Write + Send>) -> Session<'a> {
        self.trace = Some((cfg, SinkSpec::Writer(sink)));
        self
    }

    /// The partitioner scheme this session resolves to.
    fn pk(&self) -> PartitionerKind {
        self.partitioner
            .unwrap_or_else(|| SessionConfig::from_env().partitioner)
    }

    /// The sim template for bench sessions: builder overrides applied on
    /// top of `base` (the kind config's template, or the default).
    fn merge_sim(&self, base: &SimConfig) -> SimConfig {
        let mut cfg = self.sim.clone().unwrap_or_else(|| base.clone());
        if let Some(p) = self.partitions {
            cfg.partitions = p;
        }
        if let Some(st) = self.stepping {
            cfg.event_driven = st == Stepping::Event;
        }
        cfg
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

    /// Spin up the trace pipeline (if configured).
    fn start_trace(trace: Option<(TraceConfig, SinkSpec)>) -> Result<Option<ActiveTrace>, String> {
        let Some((cfg, sink)) = trace else {
            return Ok(None);
        };
        let (buf, path, sink): (Option<SharedBuf>, Option<PathBuf>, Box<dyn Write + Send>) =
            match sink {
                SinkSpec::Buffer => {
                    let b = SharedBuf::new();
                    (Some(b.clone()), None, Box::new(b))
                }
                SinkSpec::Path(p) => {
                    let f = std::fs::File::create(&p)
                        .map_err(|e| format!("trace file {}: {e}", p.display()))?;
                    (None, Some(p), Box::new(f))
                }
                SinkSpec::Writer(w) => (None, None, w),
            };
        let (tracer, guard) = Tracer::new(cfg, sink);
        Ok(Some(ActiveTrace {
            tracer,
            guard,
            buf,
            path,
        }))
    }

    /// Join the writer and summarize where the stream went.
    fn finish_trace(active: Option<ActiveTrace>) -> Result<Option<TraceOutcome>, String> {
        let Some(ActiveTrace {
            tracer,
            guard,
            buf,
            path,
        }) = active
        else {
            return Ok(None);
        };
        drop(tracer);
        guard.finish()?;
        let (digest, jsonl) = match buf {
            None => (None, None),
            Some(b) => {
                let text = String::from_utf8(b.contents())
                    .map_err(|e| format!("trace stream is not UTF-8: {e}"))?;
                (Some(json::digest_hex(&text)), Some(text))
            }
        };
        Ok(Some(TraceOutcome {
            digest,
            jsonl,
            path,
        }))
    }

    /// Run one open-loop simulation and return its raw [`Metrics`].
    pub fn metrics(self, pattern: &dyn TrafficPattern) -> Result<Outcome<Metrics>, String> {
        let bench = self.need_bench("metrics")?;
        let cfg = bench.prepare_cfg(&self.merge_sim(&SimConfig::default()), self.pk());
        let pool = self.pool.unwrap_or_else(|| wsdf_exec::global_pool());
        let active = Self::start_trace(self.trace)?;
        let report = bench
            .run_prepared(&cfg, pattern, pool, active.as_ref().map(|a| &a.tracer))
            .map_err(|e| format!("session metrics run failed: {e}"))?;
        let trace = Self::finish_trace(active)?;
        Ok(Outcome { report, trace })
    }

    /// Run a fixed-grid load-latency sweep. The session's
    /// sim/partitions/stepping overrides apply on top of `cfg.sim`.
    pub fn sweep(
        self,
        cfg: &SweepConfig,
        spec: PatternSpec,
        rates_chip: &[f64],
    ) -> Result<Outcome<Vec<SweepPoint>>, String> {
        let bench = self.need_bench("sweep")?;
        let scfg = SweepConfig {
            sim: self.merge_sim(&cfg.sim),
            ..cfg.clone()
        };
        let pool = self.pool.unwrap_or_else(|| wsdf_exec::global_pool());
        let pk = self.pk();
        let active = Self::start_trace(self.trace)?;
        let report = sweep_impl(
            bench,
            &scfg,
            spec,
            rates_chip,
            pool,
            pk,
            active.as_ref().map(|a| &a.tracer),
        );
        let trace = Self::finish_trace(active)?;
        Ok(Outcome { report, trace })
    }

    /// Run a saturation-seeking adaptive sweep.
    pub fn adaptive(
        self,
        cfg: &AdaptiveConfig,
        spec: PatternSpec,
    ) -> Result<Outcome<SaturationReport>, String> {
        let bench = self.need_bench("adaptive")?;
        let acfg = AdaptiveConfig {
            base: SweepConfig {
                sim: self.merge_sim(&cfg.base.sim),
                ..cfg.base.clone()
            },
            ..cfg.clone()
        };
        let pool = self.pool.unwrap_or_else(|| wsdf_exec::global_pool());
        let pk = self.pk();
        let active = Self::start_trace(self.trace)?;
        let report = adaptive_impl(
            bench,
            &acfg,
            spec,
            pool,
            pk,
            active.as_ref().map(|a| &a.tracer),
        );
        let trace = Self::finish_trace(active)?;
        Ok(Outcome { report, trace })
    }

    /// Run a collective workload DAG closed-loop.
    pub fn workload(
        self,
        wl: &Workload,
        units: &WorkloadUnits,
    ) -> Result<Outcome<WorkloadReport>, String> {
        let bench = self.need_bench("workload")?;
        let cfg = bench.prepare_cfg(&self.merge_sim(&SimConfig::default()), self.pk());
        let pool = self.pool.unwrap_or_else(|| wsdf_exec::global_pool());
        let active = Self::start_trace(self.trace)?;
        let report = run_workload_impl(
            bench,
            &cfg,
            wl,
            units,
            pool,
            active.as_ref().map(|a| &a.tracer),
        )
        .map_err(|e| format!("session workload run failed: {e}"))?;
        let trace = Self::finish_trace(active)?;
        Ok(Outcome { report, trace })
    }

    /// Run a multi-tenant serving mix. The trace's job stream covers the
    /// concurrent run only (isolated baselines are untraced).
    pub fn serving(self, spec: &ServingSpec) -> Result<Outcome<ServingReport>, String> {
        let bench = self.need_bench("serving")?;
        let cfg = bench.prepare_cfg(&self.merge_sim(&SimConfig::default()), self.pk());
        let pool = self.pool.unwrap_or_else(|| wsdf_exec::global_pool());
        let active = Self::start_trace(self.trace)?;
        let report = run_serving_impl(bench, &cfg, spec, pool, active.as_ref().map(|a| &a.tracer))?;
        let trace = Self::finish_trace(active)?;
        Ok(Outcome { report, trace })
    }

    /// Run a fault-injection resilience sweep. With the `epochs` stream
    /// enabled, each fault fraction is delimited by an `epoch` record in
    /// the trace.
    pub fn resilience(
        self,
        cfg: &ResilienceConfig,
        spec: PatternSpec,
    ) -> Result<Outcome<ResilienceReport>, String> {
        let bench = self.need_bench("resilience")?;
        let rcfg = ResilienceConfig {
            sim: self.merge_sim(&cfg.sim),
            ..cfg.clone()
        };
        let pool = self.pool.unwrap_or_else(|| wsdf_exec::global_pool());
        let pk = self.pk();
        let active = Self::start_trace(self.trace)?;
        let report = resilience_impl(
            bench,
            &rcfg,
            spec,
            pool,
            pk,
            active.as_ref().map(|a| &a.tracer),
        );
        let trace = Self::finish_trace(active)?;
        Ok(Outcome { report, trace })
    }

    /// Execute a scenario session: dispatch on the scenario's run
    /// section, with builder overrides applied (stepping, partitions,
    /// partitioner) and telemetry from the builder or, failing that, the
    /// scenario's own `telemetry` section (captured in memory).
    pub fn run(self) -> Result<Outcome<ScenarioOutcome>, String> {
        let Source::Scenario(scenario) = self.source else {
            return Err("Session::run: bench sessions pick a run kind \
                 (metrics/sweep/adaptive/workload/serving/resilience)"
                .to_string());
        };
        // Builder overrides rewrite the scenario sections they shadow,
        // so the single scenario run path sees one consistent spec.
        let mut eff = scenario.clone();
        if let Some(st) = self.stepping {
            eff.stepping = st;
        }
        if let Some(p) = self.partitions {
            let keep = match &eff.partitioning {
                Partitioning::Auto { partitioner, .. } => *partitioner,
                Partitioning::Map(_) => PartitionerKind::Locality,
            };
            eff.partitioning = Partitioning::Auto {
                partitions: p as u64,
                partitioner: self.partitioner.unwrap_or(keep),
            };
        } else if let Some(pk) = self.partitioner {
            if let Partitioning::Auto { partitioner, .. } = &mut eff.partitioning {
                *partitioner = pk;
            }
        }
        let trace = match self.trace {
            Some(t) => Some(t),
            None => eff.telemetry.clone().map(|cfg| (cfg, SinkSpec::Buffer)),
        };
        let pool = self.pool.unwrap_or_else(|| wsdf_exec::global_pool());
        let active = Self::start_trace(trace)?;
        let report = eff.run_traced_on(pool, active.as_ref().map(|a| &a.tracer))?;
        let trace = Self::finish_trace(active)?;
        Ok(Outcome { report, trace })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env<'p>(pairs: &'p [(&'p str, &'p str)]) -> impl Fn(&str) -> Option<String> + 'p {
        move |k| {
            pairs
                .iter()
                .find(|(name, _)| *name == k)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn precedence_table_stepping() {
        assert!(SessionConfig::resolve(env(&[])).event_driven);
        assert!(!SessionConfig::resolve(env(&[("WSDF_EVENT_DRIVEN", "0")])).event_driven);
        assert!(SessionConfig::resolve(env(&[("WSDF_EVENT_DRIVEN", "1")])).event_driven);
        // Only the literal "0" opts out — anything else is event-driven.
        assert!(SessionConfig::resolve(env(&[("WSDF_EVENT_DRIVEN", "false")])).event_driven);
        assert!(SessionConfig::resolve(env(&[("WSDF_EVENT_DRIVEN", "")])).event_driven);
    }

    #[test]
    fn precedence_table_partitioner() {
        let pk = |pairs: &[(&str, &str)]| SessionConfig::resolve(env(pairs)).partitioner;
        assert_eq!(pk(&[]), PartitionerKind::Locality);
        assert_eq!(
            pk(&[("WSDF_PARTITIONER", "blocks")]),
            PartitionerKind::Blocks
        );
        assert_eq!(
            pk(&[("WSDF_PARTITIONER", "locality")]),
            PartitionerKind::Locality
        );
        // Unknown values select the default, never error.
        assert_eq!(
            pk(&[("WSDF_PARTITIONER", "BLOCKS")]),
            PartitionerKind::Locality
        );
    }

    #[test]
    fn precedence_table_threads() {
        let th = |pairs: &[(&str, &str)]| SessionConfig::resolve(env(pairs)).threads;
        assert_eq!(th(&[]), None);
        assert_eq!(th(&[("WSDF_THREADS", "3")]), Some(3));
        assert_eq!(th(&[("RAYON_NUM_THREADS", "7")]), Some(7));
        // WSDF_THREADS trumps RAYON_NUM_THREADS.
        assert_eq!(
            th(&[("WSDF_THREADS", "2"), ("RAYON_NUM_THREADS", "9")]),
            Some(2)
        );
        // Invalid and zero values fall through to the next source.
        assert_eq!(th(&[("WSDF_THREADS", "0")]), None);
        assert_eq!(
            th(&[("WSDF_THREADS", "lots"), ("RAYON_NUM_THREADS", "5")]),
            Some(5)
        );
        assert_eq!(th(&[("WSDF_THREADS", " 4 ")]), Some(4));
    }

    #[test]
    fn from_env_is_cached_and_consistent() {
        let a = SessionConfig::from_env();
        let b = SessionConfig::from_env();
        assert_eq!(a, b);
        assert_eq!(
            a.event_driven,
            wsdf_sim::config::event_driven_default(),
            "from_env must share the stepping cache behind SimConfig::default()"
        );
    }

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
        let jsonl = trace.jsonl.expect("in-memory capture");
        assert!(!jsonl.is_empty());
        assert!(jsonl.lines().all(|l| l.starts_with("{\"t\": \"")));
        assert_eq!(trace.digest.as_deref(), Some(&*json::digest_hex(&jsonl)));

        // Observe-only: the same session without telemetry is bit-identical.
        let plain = Session::bench(&bench)
            .sim(cfg)
            .metrics(pat.as_ref())
            .unwrap();
        assert!(plain.trace.is_none());
        assert_eq!(format!("{:?}", plain.report), format!("{:?}", out.report));
    }

    #[test]
    fn run_kinds_reject_wrong_source() {
        let bench = Bench::single_mesh(2, 2, 1);
        let err = Session::bench(&bench).run().unwrap_err();
        assert!(err.contains("bench sessions pick a run kind"), "{err}");
    }
}
