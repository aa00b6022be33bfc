//! # wsdf — Switch-Less Dragonfly on Wafers: high-level API
//!
//! The facade crate of the reproduction. It glues the substrate crates
//! together behind three concepts:
//!
//! * [`Bench`] — a built fabric (switch-less Dragonfly, switch-based
//!   baseline, standalone mesh or single switch) bundled with its routing
//!   oracle and endpoint scoping.
//! * [`PatternSpec`] — a workload selector that [`Bench::pattern`] turns
//!   into a concrete traffic generator at a given per-node rate.
//! * [`Session`] — the only run entry. Every run kind goes through one
//!   builder: open-loop sweeps ([`Session::sweep`]), saturation search
//!   ([`Session::adaptive`]), closed-loop collectives
//!   ([`Session::workload`]), multi-tenant serving ([`Session::serving`]),
//!   fault sweeps ([`Session::resilience`]), raw metrics
//!   ([`Session::metrics`]) and declarative scenarios ([`Session::run`]).
//!   Four setters configure it ([`Session::sim`],
//!   [`Session::partitions`], [`Session::pool`], [`Session::trace`]), and
//!   [`Partitioning::apply`] resolves every run's partition map. Each run
//!   returns a typed [`Outcome`] carrying the kind's report plus, when
//!   streaming telemetry is enabled via [`Session::trace`], the
//!   deterministic JSONL trace and its digest.
//!
//! ```no_run
//! use wsdf::{AdaptiveConfig, Bench, PatternSpec, Session};
//! use wsdf_topo::SlParams;
//!
//! // Fig. 10(a), switch-less side: a 4×4-core C-group under uniform load.
//! // No hand-tuned rate grid: the driver finds the knee on its own.
//! let bench = Bench::single_mesh(4, 2, 1);
//! let out = Session::bench(&bench)
//!     .adaptive(&AdaptiveConfig::default(), PatternSpec::Uniform)
//!     .unwrap();
//! let report = &out.report;
//! println!(
//!     "saturation {:.2} flits/cycle/chip, zero-load {:.1} cycles",
//!     report.sat_chip, report.zero_load_latency
//! );
//! for p in &report.points {
//!     println!(
//!         "{:.2} flits/cycle/chip → mean {:.1} / p99 {:.1} cycles",
//!         p.offered_chip, p.latency, p.p99
//!     );
//! }
//! # let _ = SlParams::radix16();
//! ```

#![deny(missing_docs)]

pub mod bench;
pub mod collective;
pub mod report;
pub mod resilience;
pub mod scenario;
pub mod serving;
pub mod session;
pub mod sweep;

// The hand-rolled JSON layer lives in `wsdf-sim` (the lowest crate, so
// topology/workload specs can implement its `Json` codec without a
// dependency cycle); re-exported here under its historical path.
pub use wsdf_sim::json;

pub use bench::{Bench, BenchFaults, BenchOracle, Fabric, LivePattern, PatternSpec};
pub use collective::{LatencySummary, PhaseReport, WorkloadReport, WorkloadUnits};
pub use report::{Curve, Figure, Point};
pub use resilience::{ResilienceConfig, ResiliencePoint, ResilienceReport};
pub use scenario::{PartitionerKind, Partitioning, Scenario, ScenarioOutcome, Stepping};
pub use serving::{ClassStat, JobRecord, ServingReport};
pub use session::{Outcome, Session, TraceOutcome};
pub use sweep::{saturation_rate, AdaptiveConfig, SaturationReport, SweepConfig, SweepPoint};
pub use wsdf_sim::{TraceConfig, TraceRec};
pub use wsdf_workload::Workload;

pub use wsdf_analysis as analysis;
pub use wsdf_exec as exec;
pub use wsdf_routing as routing;
pub use wsdf_sim as sim;
pub use wsdf_topo as topo;
pub use wsdf_traffic as traffic;
pub use wsdf_workload as workload;
