//! Declarative scenario frontend: one JSON file describes one complete
//! experiment.
//!
//! A [`Scenario`] binds everything a run needs — topology family and
//! size, routing oracle, simulation windows, stepping mode, partitioning,
//! an optional fault spec or cycle-ordered fault schedule, a traffic
//! pattern, and one of the five run kinds (open-loop sweep, adaptive
//! saturation search, closed-loop collective, resilience sweep,
//! multi-tenant serving) — and
//! executes it through the same monomorphized [`Bench`] machinery the
//! figure harness uses. The goals:
//!
//! * **Precise validation.** Every parse error names the exact JSON path
//!   (`scenario.traffic.rate: expected number in (0,1]`), so a corpus of
//!   malformed files can pin error strings in tests.
//! * **Canonical round-trip.** Every section implements the [`Json`]
//!   codec: its reader holds the section's own rules, and the
//!   [`Scenario`] reader checks the rules that tie sections together once
//!   all of them are read. [`Scenario::to_json`] writes the full resolved
//!   form; parsing it back yields an identical scenario.
//! * **Environment independence.** Stepping mode and the partition map
//!   are resolved from the scenario itself, and reports are bit-identical
//!   for any worker count, so a scenario's report digest is a pure
//!   function of its file.
//! * **Golden digests.** [`ScenarioOutcome::digest`] hashes the
//!   canonical report JSON (FNV-1a via [`crate::json::digest_hex`]),
//!   giving the `scenarios/` corpus a one-line regression signature per
//!   file.

use crate::bench::{Bench, PatternSpec};
use crate::collective::{run_workload_impl, WorkloadReport, WorkloadUnits};
use crate::json::{self, read, Json, ObjectWriter, Value};
use crate::report::{Curve, Figure};
use crate::resilience::{resilience_impl, ResilienceConfig, ResilienceReport};
use crate::serving::{run_serving_impl, ServingReport};
use crate::sweep::{adaptive_impl, sweep_impl, AdaptiveConfig, SaturationReport};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wsdf_exec::BspPool;
use wsdf_routing::{RouteMode, VcScheme};
use wsdf_sim::{json_names, json_object, SimConfig, TraceConfig, Tracer, MAX_PORTS};
use wsdf_topo::{FaultSchedule, FaultSet, FaultSpec, SlParams, SwParams};
use wsdf_traffic::PermKind::{BitReverse, BitShuffle, BitTranspose};
use wsdf_traffic::RingDirection::{Bidirectional, Unidirectional};
use wsdf_workload::tenancy::ServingSpec;
use wsdf_workload::{read_collective, Workload};

/// Largest standalone mesh side: its `m²` routers fit the u32 id space.
const MAX_MESH_SIDE: u64 = 65_535;

/// Which fabric a scenario builds, with its size parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// Switch-less Dragonfly on wafers.
    Switchless(SlParams),
    /// Switch-based Dragonfly baseline.
    Switchbased(SwParams),
    /// Standalone m×m mesh C-group.
    Mesh {
        /// Mesh side in routers.
        m: u32,
        /// Chiplet side (nodes per chip = chiplet²).
        chiplet: u32,
        /// Channel width multiplier.
        width: u8,
    },
    /// Single ideal switch.
    Switch {
        /// Attached terminal chips.
        terminals: u32,
    },
}

impl Topology {
    /// Stable family name used in scenario files.
    pub fn family(&self) -> &'static str {
        match self {
            Topology::Switchless(_) => "switchless",
            Topology::Switchbased(_) => "switchbased",
            Topology::Mesh { .. } => "mesh",
            Topology::Switch { .. } => "switch",
        }
    }

    /// W-group count of the built fabric (1 for mesh/switch).
    fn wgroups(&self) -> u32 {
        match self {
            Topology::Switchless(p) => p.wgroups,
            Topology::Switchbased(p) => p.groups,
            _ => 1,
        }
    }
}

/// Tagged by `family`: `params` for the two Dragonfly families (see
/// [`SlParams`] and [`SwParams`]), `m`, `chiplet` and `width` (1 by
/// default) for a mesh, and `terminals` for a switch.
impl Json for Topology {
    fn write(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out, None);
        obj.tag("family", self.family());
        match self {
            Topology::Switchless(p) => obj.member("params", p),
            Topology::Switchbased(p) => obj.member("params", p),
            Topology::Mesh { m, chiplet, width } => {
                obj.member("m", m);
                obj.member("chiplet", chiplet);
                obj.member("width", width);
            }
            Topology::Switch { terminals } => obj.member("terminals", terminals),
        }
        obj.end();
    }

    fn read(v: &Value, path: &str) -> Result<Self, String> {
        let families = ["switchless", "switchbased", "mesh", "switch"];
        match read::tag(v, path, "family", &families)? {
            "switchless" => {
                read::check_keys(v, path, &["family", "params"])?;
                Ok(Topology::Switchless(read::field(v, path, "params")?))
            }
            "switchbased" => {
                read::check_keys(v, path, &["family", "params"])?;
                Ok(Topology::Switchbased(read::field(v, path, "params")?))
            }
            "mesh" => {
                read::check_keys(v, path, &["family", "m", "chiplet", "width"])?;
                let m: u64 = read::field(v, path, "m")?;
                let chiplet: u64 = read::field(v, path, "chiplet")?;
                let width: u64 = read::or(v, path, "width", 1)?;
                if !(2..=MAX_MESH_SIDE).contains(&m) {
                    return Err(format!("{path}.m: expected integer in 2..={MAX_MESH_SIDE}"));
                }
                if chiplet == 0 || !m.is_multiple_of(chiplet) {
                    return Err(format!("{path}.chiplet: must divide m ({m})"));
                }
                let width = u8::try_from(width)
                    .ok()
                    .filter(|&w| w > 0)
                    .ok_or_else(|| format!("{path}.width: expected integer in 1..=255"))?;
                Ok(Topology::Mesh {
                    m: m as u32,
                    chiplet: chiplet as u32,
                    width,
                })
            }
            _ => {
                read::check_keys(v, path, &["family", "terminals"])?;
                let terminals: u64 = read::field(v, path, "terminals")?;
                // One router carries every terminal, so the engine's port
                // limit bounds them.
                if !(2..=MAX_PORTS as u64).contains(&terminals) {
                    return Err(format!(
                        "{path}.terminals: expected integer in 2..={MAX_PORTS}"
                    ));
                }
                Ok(Topology::Switch {
                    terminals: terminals as u32,
                })
            }
        }
    }
}

/// The `oracle` section: the routing mode of a Dragonfly family, and the
/// VC scheme of the switch-less one.
struct Oracle {
    route: RouteMode,
    vcs: Option<VcScheme>,
}

json_object!(Oracle, Oracle { route: RouteMode::Minimal, vcs: None }; route?, vcs?);

/// Simulation-window overrides of a scenario (a [`SimConfig`] subset; the
/// engine's Table-IV defaults fill anything unspecified).
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    /// Warm-up cycles excluded from statistics.
    pub warmup_cycles: u64,
    /// Measured cycles after warm-up.
    pub measure_cycles: u64,
    /// Drain cycles after measurement.
    pub drain_cycles: u64,
    /// Global RNG seed.
    pub seed: u64,
    /// Packet length in flits.
    pub packet_len: u8,
    /// Input buffer capacity per (port, VC) in flits.
    pub buffer_flits: u16,
}

impl Default for SimSpec {
    fn default() -> Self {
        let d = SimConfig::default();
        SimSpec {
            warmup_cycles: d.warmup_cycles,
            measure_cycles: d.measure_cycles,
            drain_cycles: d.drain_cycles,
            seed: d.seed,
            packet_len: d.packet_len,
            buffer_flits: d.buffer_flits,
        }
    }
}

/// Reject a zero `measure_cycles`.
fn at_least_one(x: &u64, path: &str) -> Result<(), String> {
    match x {
        0 => Err(format!("{path}: must be at least 1")),
        _ => Ok(()),
    }
}

/// Reject a zero `packet_len`.
fn packet_len(x: &u8, path: &str) -> Result<(), String> {
    match x {
        0 => Err(format!("{path}: expected integer in 1..=255")),
        _ => Ok(()),
    }
}

// Every member is optional. `buffer_flits` must hold one packet; the
// scenario reader checks that, once both are read.
json_object!(SimSpec, SimSpec::default();
    warmup_cycles?, measure_cycles? if at_least_one, drain_cycles?, seed?,
    packet_len? if packet_len, buffer_flits?,
);

/// Engine stepping mode, fixed by the scenario and handed to the run's
/// [`SimConfig::event_driven`]. Both modes simulate identically; only
/// the reported busy/skipped cycle split differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stepping {
    /// Event-driven: idle routers skip, idle stretches fast-forward.
    Event,
    /// Dense: every router steps every cycle.
    Dense,
}

json_names!(Stepping; Event = "event", Dense = "dense");

/// Which partition-map builder a scenario uses when it runs parallel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionerKind {
    /// Cut-minimizing locality-aware assignment
    /// ([`wsdf_topo::locality_partition`]).
    Locality,
    /// Legacy contiguous router-id blocks
    /// ([`wsdf_topo::contiguous_blocks`]).
    Blocks,
}

json_names!(PartitionerKind; Locality = "locality", Blocks = "blocks");

/// How a run assigns routers to BSP partitions. [`Partitioning::apply`]
/// resolves it to the run's [`SimConfig::partition_map`]: a scenario
/// carries its own, and a bench session without a map resolves
/// `Auto` with the locality partitioner.
#[derive(Debug, Clone, PartialEq)]
pub enum Partitioning {
    /// Build the map with a named partitioner; `partitions == 0` sizes
    /// automatically from the worker-thread count (results are
    /// partition-count independent, so digests stay machine-independent).
    Auto {
        /// Requested partition count (0 = auto).
        partitions: u64,
        /// Map builder to use when the run is parallel.
        partitioner: PartitionerKind,
    },
    /// Explicit router→partition assignment (length = router count, ids
    /// dense in `0..P`).
    Map(Vec<u32>),
}

impl Default for Partitioning {
    fn default() -> Self {
        Partitioning::Auto {
            partitions: 1,
            partitioner: PartitionerKind::Locality,
        }
    }
}

impl Partitioning {
    /// Resolve this partitioning for a run on `bench` into
    /// `cfg.partitions` and `cfg.partition_map`: the one place any run's
    /// partition map is chosen. An explicit map must cover every router
    /// with dense ids. `Auto` counts partitions exactly as the engine
    /// would on its own ([`wsdf_sim::effective_partitions`] over live
    /// routers and `wsdf_exec::configured_threads`) and, when the run is
    /// parallel, builds the named map; `Blocks` is the same assignment
    /// as the engine's no-map fallback. Reports are bit-identical under
    /// any map: it decides only which routers share a partition.
    pub fn apply(&self, bench: &Bench, cfg: &mut SimConfig) -> Result<(), String> {
        let net = bench.fabric.net();
        match self {
            Partitioning::Map(map) => {
                if map.len() != net.num_routers() {
                    return Err(format!(
                        "scenario.partitioning.map: {} entries for {} routers",
                        map.len(),
                        net.num_routers()
                    ));
                }
                let sparse = || {
                    "scenario.partitioning.map: partition ids must be dense (every id in 0..P used)"
                        .to_string()
                };
                let p = map.iter().copied().max().unwrap_or(0) as usize + 1;
                // Dense ids need p ≤ routers, which also bounds `seen`.
                if p > map.len() {
                    return Err(sparse());
                }
                let mut seen = vec![false; p];
                for &id in map.iter() {
                    seen[id as usize] = true;
                }
                if seen.contains(&false) {
                    return Err(sparse());
                }
                cfg.partitions = p;
                cfg.partition_map = Some(Arc::new(map.clone()));
            }
            Partitioning::Auto {
                partitions,
                partitioner,
            } => {
                let live = bench
                    .fault_map()
                    .map_or(net.num_routers(), |f| f.live_routers());
                let p = wsdf_sim::effective_partitions(
                    *partitions as usize,
                    live,
                    wsdf_exec::configured_threads(),
                );
                cfg.partitions = p;
                if p > 1 {
                    let map = match partitioner {
                        PartitionerKind::Locality => {
                            wsdf_topo::locality_partition(net, p, bench.fault_map())
                        }
                        PartitionerKind::Blocks => wsdf_topo::contiguous_blocks(net, p),
                    };
                    cfg.partition_map = Some(Arc::new(map));
                }
            }
        }
        Ok(())
    }
}

/// `{"partitions": N, "partitioner": "locality" | "blocks"}` (1 and
/// locality by default) or `{"map": [..]}`, not both.
impl Json for Partitioning {
    fn write(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out, None);
        match self {
            Partitioning::Auto {
                partitions,
                partitioner,
            } => {
                obj.member("partitions", partitions);
                obj.member("partitioner", partitioner);
            }
            Partitioning::Map(map) => obj.member("map", map),
        }
        obj.end();
    }

    fn read(v: &Value, path: &str) -> Result<Self, String> {
        read::check_keys(v, path, &["partitions", "partitioner", "map"])?;
        if v.get("map").is_none() {
            return Ok(Partitioning::Auto {
                partitions: read::or(v, path, "partitions", 1)?,
                partitioner: read::or(v, path, "partitioner", PartitionerKind::Locality)?,
            });
        }
        if v.get("partitions").is_some() || v.get("partitioner").is_some() {
            return Err(format!(
                "{path}: give either \"map\" or \"partitions\"/\"partitioner\", not both"
            ));
        }
        Ok(Partitioning::Map(read::field(v, path, "map")?))
    }
}

/// Fault injection of a scenario: a one-shot spec, or a cycle-ordered
/// schedule resolved at a chosen cycle.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultsSpec {
    /// Sample one [`FaultSpec`] against the fabric.
    Spec(FaultSpec),
    /// Accumulate a [`FaultSchedule`]'s events up to `at_cycle`.
    Schedule {
        /// The cycle-ordered event list.
        schedule: FaultSchedule,
        /// Cycle at which the fault state is materialized.
        at_cycle: u64,
    },
}

/// `{"spec": {..}}` or `{"schedule": [..], "at_cycle": N}`.
impl Json for FaultsSpec {
    fn write(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out, None);
        match self {
            FaultsSpec::Spec(spec) => obj.member("spec", spec),
            FaultsSpec::Schedule { schedule, at_cycle } => {
                obj.member("schedule", schedule);
                obj.member("at_cycle", at_cycle);
            }
        }
        obj.end();
    }

    fn read(v: &Value, path: &str) -> Result<Self, String> {
        read::check_keys(v, path, &["spec", "schedule", "at_cycle"])?;
        if read::either(v, path, "spec", "schedule")? {
            read::only(v, path, &["at_cycle"], "a schedule takes")?;
            return Ok(FaultsSpec::Spec(read::field(v, path, "spec")?));
        }
        Ok(FaultsSpec::Schedule {
            schedule: read::field(v, path, "schedule")?,
            at_cycle: read::field(v, path, "at_cycle")?,
        })
    }
}

/// Open-loop traffic of a scenario: a named pattern, plus (for
/// single-point open-loop runs) a per-node injection rate.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// The generator.
    pub pattern: PatternSpec,
    /// Offered load in flits/cycle/node, in `(0, 1]`.
    pub rate: Option<f64>,
}

/// `{"pattern": "<name>", "rate": r}`, the rate optional.
impl Json for TrafficSpec {
    fn write(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out, None);
        obj.member("pattern", &self.pattern);
        obj.member("rate", &self.rate);
        obj.end();
    }

    fn read(v: &Value, path: &str) -> Result<Self, String> {
        read::check_keys(v, path, &["pattern", "rate"])?;
        let pattern = read::field(v, path, "pattern")?;
        let rate = match v.get("rate") {
            None => None,
            Some(Value::Num(x)) if *x > 0.0 && *x <= 1.0 => Some(*x),
            Some(_) => return Err(format!("{path}.rate: expected number in (0,1]")),
        };
        Ok(TrafficSpec { pattern, rate })
    }
}

/// Every [`PatternSpec`] under its stable scenario-file name.
const PATTERNS: [(&str, PatternSpec); 10] = [
    ("uniform", PatternSpec::Uniform),
    ("bit_reverse", PatternSpec::Permutation(BitReverse)),
    ("bit_shuffle", PatternSpec::Permutation(BitShuffle)),
    ("bit_transpose", PatternSpec::Permutation(BitTranspose)),
    ("hotspot", PatternSpec::Hotspot),
    ("worst_case", PatternSpec::WorstCase),
    ("ring_cgroup", PatternSpec::RingCGroup(Unidirectional)),
    ("ring_cgroup_bidir", PatternSpec::RingCGroup(Bidirectional)),
    ("ring_wgroup", PatternSpec::RingWGroup(Unidirectional)),
    ("ring_wgroup_bidir", PatternSpec::RingWGroup(Bidirectional)),
];

/// Stable scenario-file name of a [`PatternSpec`].
pub fn pattern_name(spec: PatternSpec) -> &'static str {
    let named = PATTERNS.iter().find(|(_, p)| *p == spec);
    named.expect("PATTERNS names every pattern").0
}

/// Inverse of [`pattern_name`].
pub fn pattern_from_name(name: &str) -> Option<PatternSpec> {
    PATTERNS.iter().find(|(n, _)| *n == name).map(|(_, p)| *p)
}

/// Written as its [`pattern_name`]; an unknown name fails as `unknown
/// pattern "<name>"`.
impl Json for PatternSpec {
    fn write(&self, out: &mut String) {
        pattern_name(*self).to_string().write(out);
    }

    fn read(v: &Value, path: &str) -> Result<Self, String> {
        let name = String::read(v, path)?;
        pattern_from_name(&name).ok_or_else(|| format!("{path}: unknown pattern \"{name}\""))
    }
}

/// Closed-loop workload participants.
#[derive(Debug, Clone, PartialEq)]
pub enum Participants {
    /// One node per chip (node 0), filtered to the largest live component
    /// when the bench is degraded — matching the resilience probe.
    Chips,
    /// Explicit endpoint ids.
    List(Vec<u32>),
}

/// `"chips"` or an array of endpoint ids.
impl Json for Participants {
    fn write(&self, out: &mut String) {
        match self {
            Participants::Chips => out.push_str("\"chips\""),
            Participants::List(ids) => ids.write(out),
        }
    }

    fn read(v: &Value, path: &str) -> Result<Self, String> {
        match v {
            Value::Str(s) if s == "chips" => Ok(Participants::Chips),
            Value::Arr(_) => Json::read(v, path).map(Participants::List),
            _ => Err(format!("{path}: expected \"chips\" or an id array")),
        }
    }
}

/// Closed-loop workload of a scenario: a named collective builder or an
/// explicit message DAG.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// Build with one of the [`Workload`] collective constructors.
    Collective {
        /// Builder name, one of [`wsdf_workload::COLLECTIVES`].
        kind: String,
        /// Who participates.
        participants: Participants,
        /// Payload flits (per participant, per pair, or per activation —
        /// whatever the builder takes).
        flits: u64,
        /// Microbatch count (pipeline builder only).
        microbatches: u32,
    },
    /// An explicit DAG in the [`Workload`] JSON form.
    Dag(Workload),
}

/// `{"collective": "<name>", "participants", "flits", "microbatches"}`
/// (participants `"chips"` by default, the rest as [`read_collective`]
/// reads them) or `{"dag": {..}}`.
impl Json for WorkloadSpec {
    fn write(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out, None);
        match self {
            WorkloadSpec::Collective {
                kind,
                participants,
                flits,
                microbatches,
            } => {
                obj.member("collective", kind);
                obj.member("participants", participants);
                obj.member("flits", flits);
                obj.member(
                    "microbatches",
                    &(kind == "pipeline").then_some(*microbatches),
                );
            }
            WorkloadSpec::Dag(wl) => obj.member("dag", wl),
        }
        obj.end();
    }

    fn read(v: &Value, path: &str) -> Result<Self, String> {
        read::check_keys(
            v,
            path,
            &["collective", "dag", "participants", "flits", "microbatches"],
        )?;
        if !read::either(v, path, "collective", "dag")? {
            let keys = ["participants", "flits", "microbatches"];
            read::only(v, path, &keys, "collective workloads take")?;
            return Ok(WorkloadSpec::Dag(read::field(v, path, "dag")?));
        }
        let (kind, flits, microbatches) = read_collective(v, path)?;
        Ok(WorkloadSpec::Collective {
            kind,
            participants: read::or(v, path, "participants", Participants::Chips)?,
            flits,
            microbatches,
        })
    }
}

/// What a scenario measures.
#[derive(Debug, Clone, PartialEq)]
pub enum RunSpec {
    /// Fixed-grid open-loop sweep → a [`Figure`]. Without `rates_chip`
    /// the single point `traffic.rate × nodes_per_chip` is swept.
    OpenLoop {
        /// Per-chip offered rates, in sweep order.
        rates_chip: Option<Vec<f64>>,
    },
    /// Adaptive saturation search → a [`SaturationReport`].
    Adaptive {
        /// First coarse-scan rate, flits/cycle/chip.
        start_chip: f64,
        /// Geometric growth factor (> 1).
        growth: f64,
        /// Bisection relative tolerance (> 0).
        rel_tol: f64,
        /// Hard cap on simulated points.
        max_points: u64,
    },
    /// Closed-loop collective → a [`WorkloadReport`].
    ClosedLoop {
        /// What to run.
        workload: WorkloadSpec,
        /// Payload bytes per flit (bandwidth reporting).
        flit_bytes: f64,
        /// Core clock in GHz (bandwidth reporting).
        clock_ghz: f64,
    },
    /// Fault-fraction resilience sweep → a [`ResilienceReport`].
    Resilience {
        /// Open-loop probe rate, flits/cycle/chip.
        rate_chip: f64,
        /// Link-fault fractions to sweep.
        fractions: Vec<f64>,
        /// Router faults ride along at `fraction × router_ratio`.
        router_ratio: f64,
        /// Fault-sampling seed.
        seed: u64,
        /// Ring-allreduce probe payload per participant (0 = skip).
        collective_flits: u64,
    },
    /// Multi-tenant serving run → a [`ServingReport`].
    Serving {
        /// Arrival process, job-class mix and placements.
        spec: ServingSpec,
    },
}

impl RunSpec {
    /// Stable run-kind name (`open_loop`, `adaptive`, `closed_loop`,
    /// `resilience`, `serving`).
    pub fn kind(&self) -> &'static str {
        match self {
            RunSpec::OpenLoop { .. } => "open_loop",
            RunSpec::Adaptive { .. } => "adaptive",
            RunSpec::ClosedLoop { .. } => "closed_loop",
            RunSpec::Resilience { .. } => "resilience",
            RunSpec::Serving { .. } => "serving",
        }
    }
}

/// Tagged by `kind`; every other member is optional and defaults as the
/// run kind's config does ([`AdaptiveConfig`], [`WorkloadUnits`],
/// [`ResilienceConfig`]), except a closed-loop `workload` and the serving
/// `arrivals` and `classes`.
impl Json for RunSpec {
    fn write(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out, None);
        obj.tag("kind", self.kind());
        match self {
            RunSpec::OpenLoop { rates_chip } => obj.member("rates_chip", rates_chip),
            RunSpec::Adaptive {
                start_chip,
                growth,
                rel_tol,
                max_points,
            } => {
                obj.member("start_chip", start_chip);
                obj.member("growth", growth);
                obj.member("rel_tol", rel_tol);
                obj.member("max_points", max_points);
            }
            RunSpec::ClosedLoop {
                workload,
                flit_bytes,
                clock_ghz,
            } => {
                obj.member("workload", workload);
                obj.member("flit_bytes", flit_bytes);
                obj.member("clock_ghz", clock_ghz);
            }
            RunSpec::Resilience {
                rate_chip,
                fractions,
                router_ratio,
                seed,
                collective_flits,
            } => {
                obj.member("rate_chip", rate_chip);
                obj.member("fractions", fractions);
                obj.member("router_ratio", router_ratio);
                obj.member("seed", seed);
                obj.member("collective_flits", collective_flits);
            }
            RunSpec::Serving { spec } => {
                obj.member("seed", &spec.seed);
                obj.member("max_jobs", &spec.max_jobs);
                obj.member("arrivals", &spec.arrivals);
                obj.member("classes", &spec.classes);
            }
        }
        obj.end();
    }

    fn read(v: &Value, path: &str) -> Result<Self, String> {
        let kinds = [
            "open_loop",
            "adaptive",
            "closed_loop",
            "resilience",
            "serving",
        ];
        match read::tag(v, path, "kind", &kinds)? {
            "open_loop" => {
                read::check_keys(v, path, &["kind", "rates_chip"])?;
                let rates_chip: Option<Vec<f64>> = read::or(v, path, "rates_chip", None)?;
                if let Some(rates) = &rates_chip {
                    if rates.is_empty() {
                        return Err(format!("{path}.rates_chip: expected at least one rate"));
                    }
                    if let Some(i) = rates.iter().position(|r| r.is_nan() || *r <= 0.0) {
                        return Err(format!("{path}.rates_chip[{i}]: expected number > 0"));
                    }
                }
                Ok(RunSpec::OpenLoop { rates_chip })
            }
            "adaptive" => {
                read::check_keys(
                    v,
                    path,
                    &["kind", "start_chip", "growth", "rel_tol", "max_points"],
                )?;
                let d = AdaptiveConfig::default();
                let start_chip = read::above(v, path, "start_chip", d.start_chip, 0.0)?;
                let growth = read::above(v, path, "growth", d.growth, 1.0)?;
                let rel_tol = read::above(v, path, "rel_tol", d.rel_tol, 0.0)?;
                let max_points = read::or(v, path, "max_points", d.max_points as u64)?;
                if max_points < 3 {
                    return Err(format!("{path}.max_points: must be at least 3"));
                }
                Ok(RunSpec::Adaptive {
                    start_chip,
                    growth,
                    rel_tol,
                    max_points,
                })
            }
            "closed_loop" => {
                read::check_keys(v, path, &["kind", "workload", "flit_bytes", "clock_ghz"])?;
                let workload = read::field(v, path, "workload")?;
                let d = WorkloadUnits::default();
                Ok(RunSpec::ClosedLoop {
                    workload,
                    flit_bytes: read::above(v, path, "flit_bytes", d.flit_bytes, 0.0)?,
                    clock_ghz: read::above(v, path, "clock_ghz", d.clock_ghz, 0.0)?,
                })
            }
            "resilience" => {
                read::check_keys(
                    v,
                    path,
                    &[
                        "kind",
                        "rate_chip",
                        "fractions",
                        "router_ratio",
                        "seed",
                        "collective_flits",
                    ],
                )?;
                let d = ResilienceConfig::default();
                let rate_chip = read::above(v, path, "rate_chip", d.rate_chip, 0.0)?;
                let fractions: Vec<f64> = read::or(v, path, "fractions", d.fractions)?;
                if let Some(i) = fractions.iter().position(|f| !(0.0..=1.0).contains(f)) {
                    return Err(format!("{path}.fractions[{i}]: expected number in [0, 1]"));
                }
                if fractions.is_empty() {
                    return Err(format!("{path}.fractions: expected at least one fraction"));
                }
                let router_ratio = read::or(v, path, "router_ratio", d.router_ratio)?;
                if !(0.0..=1.0).contains(&router_ratio) {
                    return Err(format!("{path}.router_ratio: expected number in [0, 1]"));
                }
                Ok(RunSpec::Resilience {
                    rate_chip,
                    fractions,
                    router_ratio,
                    seed: read::or(v, path, "seed", d.seed)?,
                    collective_flits: read::or(v, path, "collective_flits", d.collective_flits)?,
                })
            }
            _ => {
                read::check_keys(
                    v,
                    path,
                    &["kind", "seed", "max_jobs", "arrivals", "classes"],
                )?;
                let seed = read::or(v, path, "seed", 1)?;
                let max_jobs = read::or(v, path, "max_jobs", 256)?;
                if max_jobs == 0 || max_jobs > wsdf_workload::message::MAX_JOBS {
                    return Err(format!(
                        "{path}.max_jobs: must be in 1..={}",
                        wsdf_workload::message::MAX_JOBS
                    ));
                }
                let arrivals = read::field(v, path, "arrivals")?;
                let classes: Vec<_> = read::field(v, path, "classes")?;
                if classes.is_empty() {
                    return Err(format!("{path}.classes: expected at least one class"));
                }
                Ok(RunSpec::Serving {
                    spec: ServingSpec {
                        seed,
                        arrivals,
                        max_jobs,
                        classes,
                    },
                })
            }
        }
    }
}

/// A fully validated, executable experiment description. See the module
/// docs for the JSON schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (doubles as the open-loop figure id).
    pub name: String,
    /// Fabric family and size.
    pub topology: Topology,
    /// Routing mode (switchless/switchbased families only).
    pub route: RouteMode,
    /// VC discipline (switchless family only).
    pub vcs: VcScheme,
    /// Simulation windows/seed.
    pub sim: SimSpec,
    /// Engine stepping mode.
    pub stepping: Stepping,
    /// BSP partitioning.
    pub partitioning: Partitioning,
    /// Fault injection (never for resilience runs, which sample their
    /// own).
    pub faults: Option<FaultsSpec>,
    /// Open-loop traffic (open-loop/adaptive/resilience runs).
    pub traffic: Option<TrafficSpec>,
    /// Streaming telemetry (optional; observe-only). Adding or removing
    /// this section never changes the *report* digest — it only controls
    /// whether a trace stream is produced alongside.
    pub telemetry: Option<TraceConfig>,
    /// What to measure.
    pub run: RunSpec,
}

impl Scenario {
    /// Parse a scenario document (the whole file).
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        Self::read(&Value::parse(text)?, "scenario")
    }

    /// Canonical JSON form: every resolved field, one section per line.
    /// `Scenario::from_json_str(&s.to_json())` reproduces `s` exactly.
    pub fn to_json(&self) -> String {
        json::to_block(self)
    }

    /// Write every section through `obj`, the `oracle` section for the
    /// Dragonfly families only.
    fn write_members(&self, mut obj: ObjectWriter) {
        let switchless = matches!(self.topology, Topology::Switchless(_));
        let dragonfly = switchless || matches!(self.topology, Topology::Switchbased(_));
        let oracle = dragonfly.then_some(Oracle {
            route: self.route,
            vcs: switchless.then_some(self.vcs),
        });
        obj.member("name", &self.name);
        obj.member("topology", &self.topology);
        obj.member("oracle", &oracle);
        obj.member("sim", &self.sim);
        obj.member("stepping", &self.stepping);
        obj.member("partitioning", &self.partitioning);
        obj.member("faults", &self.faults);
        obj.member("traffic", &self.traffic);
        obj.member("telemetry", &self.telemetry);
        obj.member("run", &self.run);
        obj.end();
    }

    /// The rules that tie sections together, checked once every section
    /// is read: a buffer holds a packet, each run kind takes or refuses
    /// traffic and a rate, hotspot traffic needs four W-groups, and
    /// resilience runs sample their own faults.
    fn check(&self, path: &str) -> Result<(), String> {
        let (packet_len, buffer_flits) = (self.sim.packet_len, self.sim.buffer_flits);
        if buffer_flits < u16::from(packet_len) {
            return Err(format!(
                "{path}.sim.buffer_flits: expected integer in {packet_len}..=65535 (at least one packet)"
            ));
        }
        let tpath = format!("{path}.traffic");
        match (&self.run, &self.traffic) {
            (RunSpec::ClosedLoop { .. }, Some(_)) => {
                return Err(format!(
                    "{tpath}: closed-loop runs take {path}.run.workload, not traffic"
                ))
            }
            (RunSpec::Serving { .. }, Some(_)) => {
                return Err(format!(
                    "{tpath}: serving runs take {path}.run.classes, not traffic"
                ))
            }
            (RunSpec::ClosedLoop { .. } | RunSpec::Serving { .. }, None) => {}
            (_, None) => return Err(format!("{tpath}: missing required key")),
            (run, Some(t)) => {
                let rate = |rule: &str| Err(format!("{tpath}.rate: {rule}"));
                match run {
                    RunSpec::OpenLoop {
                        rates_chip: Some(_),
                    } if t.rate.is_some() => {
                        return rate("run.rates_chip already sets the sweep rates; remove one")
                    }
                    RunSpec::OpenLoop { rates_chip: None } if t.rate.is_none() => {
                        return rate("missing required key")
                    }
                    RunSpec::Adaptive { .. } if t.rate.is_some() => {
                        return rate("adaptive runs choose their own rates")
                    }
                    RunSpec::Resilience { .. } if t.rate.is_some() => {
                        return rate(&format!("resilience runs set {path}.run.rate_chip instead"))
                    }
                    _ => {}
                }
                if t.pattern == PatternSpec::Hotspot && self.topology.wgroups() < 4 {
                    return Err(format!(
                        "{tpath}.pattern: hotspot needs at least 4 W-groups (topology has {})",
                        self.topology.wgroups()
                    ));
                }
            }
        }
        if matches!(self.run, RunSpec::Resilience { .. }) && self.faults.is_some() {
            return Err(format!(
                "{path}.faults: resilience runs sample their own faults; remove this section"
            ));
        }
        Ok(())
    }

    /// Build the bench this scenario describes (topology + oracle +
    /// faults applied). Explicit fault ids are checked against the built
    /// fabric; a schedule is checked in the events it samples, named by
    /// their cycle.
    pub fn build_bench(&self) -> Result<Bench, String> {
        let bench = match &self.topology {
            Topology::Switchless(p) => Bench::switchless(p, self.route, self.vcs),
            Topology::Switchbased(p) => Bench::switchbased(p, self.route),
            Topology::Mesh { m, chiplet, width } => Bench::single_mesh(*m, *chiplet, *width),
            Topology::Switch { terminals } => Bench::single_switch(*terminals),
        };
        let net = bench.fabric.net();
        let faults = match &self.faults {
            None => return Ok(bench),
            Some(FaultsSpec::Spec(spec)) => {
                spec.check_ids(net)
                    .map_err(|e| format!("scenario.faults.spec.{e}"))?;
                FaultSet::sample(net, spec)
            }
            Some(FaultsSpec::Schedule { schedule, at_cycle }) => {
                for e in schedule.events().iter().filter(|e| e.cycle <= *at_cycle) {
                    e.spec.check_ids(net).map_err(|err| {
                        format!("scenario.faults.schedule[cycle {}].spec.{err}", e.cycle)
                    })?;
                }
                schedule.at_cycle(net, *at_cycle)
            }
        };
        Ok(bench.with_fault_set(&faults))
    }

    /// The [`SimConfig`] this scenario runs with (before partitioning is
    /// resolved), stepping mode included.
    fn sim_config(&self) -> SimConfig {
        SimConfig {
            packet_len: self.sim.packet_len,
            buffer_flits: self.sim.buffer_flits,
            warmup_cycles: self.sim.warmup_cycles,
            measure_cycles: self.sim.measure_cycles,
            drain_cycles: self.sim.drain_cycles,
            seed: self.sim.seed,
            event_driven: self.stepping == Stepping::Event,
            ..SimConfig::default()
        }
    }

    /// The scenario run path behind [`crate::Session::run`]. `trace`
    /// attaches streaming telemetry to every simulation the run kind
    /// performs (observe-only: the outcome is bit-identical with and
    /// without it).
    pub(crate) fn run_traced_on(
        &self,
        pool: &BspPool,
        trace: Option<&Tracer>,
    ) -> Result<ScenarioOutcome, String> {
        let bench = self.build_bench()?;
        let mut cfg = self.sim_config();
        self.partitioning.apply(&bench, &mut cfg)?;
        match &self.run {
            RunSpec::OpenLoop { rates_chip } => {
                let t = self.traffic.as_ref().expect("validated at parse");
                let rates: Vec<f64> = match rates_chip {
                    Some(r) => r.clone(),
                    None => vec![t.rate.expect("validated at parse") * bench.nodes_per_chip],
                };
                let points = sweep_impl(&bench, &cfg, t.pattern, &rates, pool, trace);
                let mut fig = Figure::new(
                    self.name.clone(),
                    format!("scenario {} — {}", self.name, pattern_name(t.pattern)),
                );
                fig.push(Curve::new(bench.label.clone(), points));
                Ok(ScenarioOutcome::OpenLoop(fig))
            }
            RunSpec::Adaptive {
                start_chip,
                growth,
                rel_tol,
                max_points,
            } => {
                let t = self.traffic.as_ref().expect("validated at parse");
                let acfg = AdaptiveConfig {
                    start_chip: *start_chip,
                    growth: *growth,
                    rel_tol: *rel_tol,
                    max_points: *max_points as usize,
                };
                let report = adaptive_impl(&bench, &cfg, &acfg, t.pattern, pool, trace);
                Ok(ScenarioOutcome::Adaptive {
                    label: bench.label.clone(),
                    report,
                })
            }
            RunSpec::ClosedLoop {
                workload,
                flit_bytes,
                clock_ghz,
            } => {
                let wl = build_workload(workload, &bench)?;
                wl.validate(bench.endpoints())
                    .map_err(|e| format!("scenario.run.workload: {e}"))?;
                let units = WorkloadUnits {
                    flit_bytes: *flit_bytes,
                    clock_ghz: *clock_ghz,
                };
                let wcfg = bench.prepare_cfg(&cfg);
                let report = run_workload_impl(&bench, &wcfg, &wl, &units, pool, trace)
                    .map_err(|e| format!("scenario.run: closed-loop run failed: {e}"))?;
                Ok(ScenarioOutcome::ClosedLoop(report))
            }
            RunSpec::Resilience {
                rate_chip,
                fractions,
                router_ratio,
                seed,
                collective_flits,
            } => {
                let t = self.traffic.as_ref().expect("validated at parse");
                let rcfg = ResilienceConfig {
                    rate_chip: *rate_chip,
                    fractions: fractions.clone(),
                    router_ratio: *router_ratio,
                    seed: *seed,
                    collective_flits: *collective_flits,
                };
                let report = resilience_impl(&bench, &cfg, &rcfg, t.pattern, pool, trace);
                Ok(ScenarioOutcome::Resilience(report))
            }
            RunSpec::Serving { spec } => {
                let scfg = bench.prepare_cfg(&cfg);
                let report = run_serving_impl(&bench, &scfg, spec, pool, trace)
                    .map_err(|e| format!("scenario.run: {e}"))?;
                Ok(ScenarioOutcome::Serving(Box::new(report)))
            }
        }
    }
}

/// The whole file: `name`, `topology` and `run` required, every other
/// section optional. Each section's reader checks its own members, the
/// `oracle` section is checked against the family right after
/// `topology`, and `Scenario::check` applies the rules that tie
/// sections together once all are read. The report layout puts one
/// section per line.
impl Json for Scenario {
    fn write(&self, out: &mut String) {
        self.write_members(ObjectWriter::new(out, None));
    }

    fn read(v: &Value, path: &str) -> Result<Self, String> {
        read::check_keys(
            v,
            path,
            &[
                "name",
                "topology",
                "oracle",
                "sim",
                "stepping",
                "partitioning",
                "faults",
                "traffic",
                "telemetry",
                "run",
            ],
        )?;
        let name: String = read::field(v, path, "name")?;
        if name.is_empty() {
            return Err(format!("{path}.name: must not be empty"));
        }
        let topology: Topology = read::field(v, path, "topology")?;
        // Only the Dragonfly families route configurably, and only the
        // switch-less one has a VC scheme.
        let oracle = match v.get("oracle") {
            None => None,
            Some(o) => {
                let opath = format!("{path}.oracle");
                if matches!(topology, Topology::Mesh { .. } | Topology::Switch { .. }) {
                    return Err(format!(
                        "{opath}: not configurable for family \"{}\"",
                        topology.family()
                    ));
                }
                if o.get("vcs").is_some() && !matches!(topology, Topology::Switchless(_)) {
                    return Err(format!(
                        "{opath}.vcs: only the switch-less family has a VC scheme"
                    ));
                }
                Some(Oracle::read(o, &opath)?)
            }
        };
        let s = Scenario {
            name,
            topology,
            route: oracle.as_ref().map_or(RouteMode::Minimal, |o| o.route),
            vcs: oracle.and_then(|o| o.vcs).unwrap_or(VcScheme::Baseline),
            sim: read::or(v, path, "sim", SimSpec::default())?,
            stepping: read::or(v, path, "stepping", Stepping::Event)?,
            partitioning: read::or(v, path, "partitioning", Partitioning::default())?,
            faults: read::or(v, path, "faults", None)?,
            run: read::field(v, path, "run")?,
            traffic: read::or(v, path, "traffic", None)?,
            telemetry: read::or(v, path, "telemetry", None)?,
        };
        s.check(path)?;
        Ok(s)
    }

    fn is_block(&self) -> bool {
        true
    }

    fn write_block(&self, out: &mut String, indent: usize) {
        self.write_members(ObjectWriter::new(out, Some(indent)));
    }
}

/// Materialize a [`WorkloadSpec`] against a built bench.
fn build_workload(spec: &WorkloadSpec, bench: &Bench) -> Result<Workload, String> {
    let (kind, participants, flits, microbatches) = match spec {
        WorkloadSpec::Dag(wl) => return Ok(wl.clone()),
        WorkloadSpec::Collective {
            kind,
            participants,
            flits,
            microbatches,
        } => (kind, participants, *flits, *microbatches),
    };
    let ids: Vec<u32> = match participants {
        Participants::Chips => bench.live_chips(),
        Participants::List(ids) => ids.clone(),
    };
    if ids.len() < 2 {
        return Err(format!(
            "scenario.run.workload: {kind} needs at least 2 participants, got {}",
            ids.len()
        ));
    }
    Workload::collective(kind, &ids, flits, microbatches)
        .map_err(|e| format!("scenario.run.workload: {e}"))
}

/// The result of executing a [`Scenario`]: one of the five report types,
/// with uniform rendering and digesting.
#[derive(Debug, Clone)]
pub enum ScenarioOutcome {
    /// Open-loop sweep result.
    OpenLoop(Figure),
    /// Adaptive saturation-search result.
    Adaptive {
        /// Bench label (curve label of the report).
        label: String,
        /// The located saturation point and measured points.
        report: SaturationReport,
    },
    /// Closed-loop collective result.
    ClosedLoop(WorkloadReport),
    /// Resilience sweep result.
    Resilience(ResilienceReport),
    /// Multi-tenant serving result (boxed: the report carries the full
    /// job-CT histogram, far larger than the other variants).
    Serving(Box<ServingReport>),
}

impl ScenarioOutcome {
    /// Run-kind name, matching [`RunSpec::kind`].
    pub fn kind(&self) -> &'static str {
        match self {
            ScenarioOutcome::OpenLoop(_) => "open_loop",
            ScenarioOutcome::Adaptive { .. } => "adaptive",
            ScenarioOutcome::ClosedLoop(_) => "closed_loop",
            ScenarioOutcome::Resilience(_) => "resilience",
            ScenarioOutcome::Serving(_) => "serving",
        }
    }

    /// The canonical report JSON (the digested text).
    pub fn report_json(&self) -> String {
        match self {
            ScenarioOutcome::OpenLoop(fig) => fig.to_json(),
            ScenarioOutcome::Adaptive { label, report } => report.to_json(label),
            ScenarioOutcome::ClosedLoop(r) => r.to_json(),
            ScenarioOutcome::Resilience(r) => r.to_json(),
            ScenarioOutcome::Serving(r) => r.to_json(),
        }
    }

    /// Content digest of [`report_json`](Self::report_json)
    /// (`fnv64:<16 hex>`); the golden-corpus regression signature.
    pub fn digest(&self) -> String {
        json::digest_hex(&self.report_json())
    }

    /// Human-readable rendering (harness output).
    pub fn render(&self) -> String {
        match self {
            ScenarioOutcome::OpenLoop(fig) => fig.render(),
            ScenarioOutcome::Adaptive { label, report } => report.render(label),
            ScenarioOutcome::ClosedLoop(r) => r.render(),
            ScenarioOutcome::Resilience(r) => r.render(),
            ScenarioOutcome::Serving(r) => r.render(),
        }
    }
}

// --- Golden corpus ---------------------------------------------------------

/// File name of the pinned digest table inside a corpus directory.
pub const DIGESTS_FILE: &str = "digests.json";

/// One loaded corpus scenario.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// File name within the corpus directory (e.g. `sl_open_uniform.json`).
    pub file: String,
    /// The parsed scenario.
    pub scenario: Scenario,
}

/// The corpus directory: `WSDF_SCENARIO_DIR` if set, else `scenarios/`
/// under the current directory if present, else the repo-root
/// `scenarios/` relative to this crate.
#[allow(clippy::disallowed_methods)] // the one WSDF_SCENARIO_DIR reader
pub fn corpus_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("WSDF_SCENARIO_DIR") {
        return PathBuf::from(dir);
    }
    let local = PathBuf::from("scenarios");
    if local.is_dir() {
        return local;
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// Load every `*.json` scenario in `dir` (sorted by file name;
/// [`DIGESTS_FILE`] and subdirectories are skipped). Any file that fails
/// to parse fails the whole load, with the file name in the error.
pub fn load_corpus(dir: &Path) -> Result<Vec<CorpusEntry>, String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read corpus dir {}: {e}", dir.display()))?;
    let mut files: Vec<String> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read corpus dir entry: {e}"))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !entry.path().is_file() || !name.ends_with(".json") || name == DIGESTS_FILE {
            continue;
        }
        files.push(name);
    }
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for file in files {
        let path = dir.join(&file);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let scenario = Scenario::from_json_str(&text).map_err(|e| format!("{file}: {e}"))?;
        out.push(CorpusEntry { file, scenario });
    }
    Ok(out)
}

/// Read the pinned digest table of a corpus directory: `(file, digest)`
/// pairs in file order.
pub fn read_digests(dir: &Path) -> Result<Vec<(String, String)>, String> {
    let path = dir.join(DIGESTS_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let v = Value::parse(&text)?;
    let members = read::obj(&v, "digests")?;
    members
        .iter()
        .map(|(file, digest)| {
            Ok((
                file.clone(),
                String::read(digest, &format!("digests.{file}"))?,
            ))
        })
        .collect()
}

/// Serialize a digest table (one `"file": "digest"` line per entry,
/// sorted by file name).
pub fn digests_json(entries: &[(String, String)]) -> String {
    let mut sorted = entries.to_vec();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::new();
    let mut obj = ObjectWriter::new(&mut out, Some(0));
    for (file, digest) in &sorted {
        obj.member(file, digest);
    }
    obj.end();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(s: &Scenario) -> Result<ScenarioOutcome, String> {
        crate::Session::scenario(s).run().map(|o| o.report)
    }

    fn mesh_scenario(run: &str, traffic: &str) -> String {
        format!(
            r#"{{
              "name": "t",
              "topology": {{"family": "mesh", "m": 4, "chiplet": 2, "width": 1}},
              "sim": {{"warmup_cycles": 200, "measure_cycles": 500, "drain_cycles": 100}},
              {traffic}
              "run": {run}
            }}"#
        )
    }

    #[test]
    fn minimal_open_loop_parses_and_round_trips() {
        let text = mesh_scenario(
            r#"{"kind": "open_loop"}"#,
            r#""traffic": {"pattern": "uniform", "rate": 0.25},"#,
        );
        let s = Scenario::from_json_str(&text).unwrap();
        assert_eq!(s.name, "t");
        assert_eq!(s.stepping, Stepping::Event);
        let back = Scenario::from_json_str(&s.to_json()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json(), s.to_json());
    }

    #[test]
    fn switchless_scenario_round_trips_with_all_sections() {
        let text = r#"{
          "name": "full",
          "topology": {"family": "switchless", "params": {"preset": "radix16", "wgroups": 4}},
          "oracle": {"route": "valiant", "vcs": "reduced"},
          "sim": {"warmup_cycles": 100, "measure_cycles": 300, "seed": 7},
          "stepping": "dense",
          "partitioning": {"partitions": 4, "partitioner": "blocks"},
          "faults": {"spec": {"link_fraction": 0.05, "seed": 3}},
          "traffic": {"pattern": "hotspot"},
          "run": {"kind": "adaptive", "max_points": 6}
        }"#;
        let s = Scenario::from_json_str(text).unwrap();
        assert_eq!(s.route, RouteMode::Valiant);
        assert_eq!(s.vcs, VcScheme::Reduced);
        assert_eq!(s.stepping, Stepping::Dense);
        assert!(matches!(s.faults, Some(FaultsSpec::Spec(_))));
        let back = Scenario::from_json_str(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    /// The canonical layout of a scenario that holds every section, byte
    /// for byte: a layout drift keeps the round-trip a fixed point, so
    /// only a pinned text shows it.
    #[test]
    fn canonical_form_is_pinned() {
        let text = r#"{
          "name": "every \"section\"",
          "topology": {"family": "switchless", "params": {"preset": "radix16", "wgroups": 4, "mesh_width": 2}},
          "oracle": {"route": "valiant", "vcs": "reduced"},
          "sim": {"warmup_cycles": 100, "measure_cycles": 300, "seed": 7, "packet_len": 8, "buffer_flits": 16},
          "stepping": "dense",
          "partitioning": {"partitions": 3, "partitioner": "blocks"},
          "faults": {"schedule": [{"cycle": 40, "spec": {"link_fraction": 0.05, "explicit_routers": [2]}}, {"cycle": 10, "spec": {"seed": 9, "router_fraction": 0.01}}], "at_cycle": 50},
          "telemetry": {"stride": 64, "streams": ["links", "jobs"]},
          "run": {"kind": "serving", "seed": 3, "max_jobs": 9,
                  "arrivals": {"process": "poisson", "rate_per_kcycle": 2.5, "horizon": 4000},
                  "classes": [{"name": "infer", "collective": "pipeline", "flits": 4, "microbatches": 2,
                               "participants": 3, "placement": "overlapping", "weight": 0.5},
                              {"name": "train", "collective": "ring_allreduce", "participants": 4, "slo_cycles": 5000}]}
        }"#;
        let want = r#"{
  "name": "every \"section\"",
  "topology": {"family": "switchless", "params": {"a": 4, "b": 2, "m": 4, "chiplet": 2, "wgroups": 4, "mesh_width": 2, "nodes_per_chip": 4}},
  "oracle": {"route": "valiant", "vcs": "reduced"},
  "sim": {"warmup_cycles": 100, "measure_cycles": 300, "drain_cycles": 0, "seed": 7, "packet_len": 8, "buffer_flits": 16},
  "stepping": "dense",
  "partitioning": {"partitions": 3, "partitioner": "blocks"},
  "faults": {"schedule": [{"cycle": 10, "spec": {"seed": 9, "link_fraction": 0, "router_fraction": 0.01, "explicit_links": [], "explicit_routers": []}}, {"cycle": 40, "spec": {"seed": 4195835629, "link_fraction": 0.05, "router_fraction": 0, "explicit_links": [], "explicit_routers": [2]}}], "at_cycle": 50},
  "telemetry": {"stride": 64, "streams": ["links", "jobs"]},
  "run": {"kind": "serving", "seed": 3, "max_jobs": 9, "arrivals": {"process": "poisson", "rate_per_kcycle": 2.5, "horizon": 4000}, "classes": [{"name": "infer", "collective": "pipeline", "flits": 4, "microbatches": 2, "participants": 3, "placement": "overlapping", "slo_cycles": 0, "weight": 0.5}, {"name": "train", "collective": "ring_allreduce", "flits": 64, "participants": 4, "placement": "block", "slo_cycles": 5000, "weight": 1}]}
}
"#;
        let s = Scenario::from_json_str(text).unwrap();
        assert_eq!(s.to_json(), want);
        assert_eq!(Scenario::from_json_str(want).unwrap(), s);
    }

    #[test]
    fn error_paths_are_precise() {
        let rate_oob = mesh_scenario(
            r#"{"kind": "open_loop"}"#,
            r#""traffic": {"pattern": "uniform", "rate": 1.5},"#,
        );
        let bad_pattern = mesh_scenario(
            r#"{"kind": "open_loop"}"#,
            r#""traffic": {"pattern": "zipf", "rate": 0.5},"#,
        );
        let no_traffic = mesh_scenario(r#"{"kind": "open_loop"}"#, "");
        let adaptive_rate = mesh_scenario(
            r#"{"kind": "adaptive"}"#,
            r#""traffic": {"pattern": "uniform", "rate": 0.5},"#,
        );
        let hotspot = mesh_scenario(
            r#"{"kind": "open_loop"}"#,
            r#""traffic": {"pattern": "hotspot", "rate": 0.5},"#,
        );
        let bad_kind = mesh_scenario(
            r#"{"kind": "warp"}"#,
            r#""traffic": {"pattern": "uniform", "rate": 0.5},"#,
        );
        let cases: &[(&str, &str)] = &[
            (&rate_oob, "scenario.traffic.rate: expected number in (0,1]"),
            (
                &bad_pattern,
                "scenario.traffic.pattern: unknown pattern \"zipf\"",
            ),
            (&no_traffic, "scenario.traffic: missing required key"),
            (
                &adaptive_rate,
                "scenario.traffic.rate: adaptive runs choose their own rates",
            ),
            (
                &hotspot,
                "scenario.traffic.pattern: hotspot needs at least 4 W-groups (topology has 1)",
            ),
            (
                &bad_kind,
                "scenario.run.kind: expected \"open_loop\", \"adaptive\", \"closed_loop\", \"resilience\" or \"serving\"",
            ),
        ];
        for (doc, want) in cases {
            assert_eq!(&Scenario::from_json_str(doc).unwrap_err(), want);
        }
    }

    #[test]
    fn oracle_rejected_for_flat_families() {
        let text = r#"{
          "name": "t",
          "topology": {"family": "switch", "terminals": 8},
          "oracle": {"route": "minimal"},
          "traffic": {"pattern": "uniform", "rate": 0.3},
          "run": {"kind": "open_loop"}
        }"#;
        assert_eq!(
            Scenario::from_json_str(text).unwrap_err(),
            "scenario.oracle: not configurable for family \"switch\""
        );
    }

    #[test]
    fn switch_terminals_stay_within_the_port_limit() {
        let switch = |terminals: u64| {
            Scenario::from_json_str(&format!(
                r#"{{"name": "t", "topology": {{"family": "switch", "terminals": {terminals}}},
                    "traffic": {{"pattern": "uniform", "rate": 0.3}},
                    "run": {{"kind": "open_loop"}}}}"#
            ))
        };
        for terminals in [0, 1, 65, 4_000_000_000, u64::from(u32::MAX) + 1] {
            assert_eq!(
                switch(terminals).unwrap_err(),
                "scenario.topology.terminals: expected integer in 2..=64",
                "terminals {terminals}"
            );
        }
        for terminals in [2, 64] {
            assert!(switch(terminals).is_ok(), "terminals {terminals}");
        }
    }

    #[test]
    fn resilience_rejects_faults_section() {
        let text = r#"{
          "name": "t",
          "topology": {"family": "mesh", "m": 4, "chiplet": 2, "width": 1},
          "faults": {"spec": {"link_fraction": 0.1}},
          "traffic": {"pattern": "uniform"},
          "run": {"kind": "resilience", "fractions": [0, 0.1]}
        }"#;
        assert_eq!(
            Scenario::from_json_str(text).unwrap_err(),
            "scenario.faults: resilience runs sample their own faults; remove this section"
        );
    }

    #[test]
    fn open_loop_executes_and_digest_is_stable() {
        let text = mesh_scenario(
            r#"{"kind": "open_loop", "rates_chip": [0.4, 0.8]}"#,
            r#""traffic": {"pattern": "uniform"},"#,
        );
        let s = Scenario::from_json_str(&text).unwrap();
        let a = run(&s).unwrap();
        let b = run(&s).unwrap();
        assert_eq!(a.kind(), "open_loop");
        assert_eq!(a.digest(), b.digest());
        assert!(a.report_json().contains("2D-Mesh"));
    }

    #[test]
    fn closed_loop_dag_and_collective_execute() {
        let text = mesh_scenario(
            r#"{"kind": "closed_loop", "workload": {"collective": "ring_allreduce", "flits": 16}}"#,
            "",
        );
        let s = Scenario::from_json_str(&text).unwrap();
        let out = run(&s).unwrap();
        let ScenarioOutcome::ClosedLoop(r) = &out else {
            panic!("wrong outcome kind")
        };
        assert!(r.completion_cycles > 0);

        let dag = mesh_scenario(
            r#"{"kind": "closed_loop", "workload": {"dag": {"name": "two", "phases": ["p"],
                "messages": [{"src": 0, "dst": 5, "flits": 8, "phase": 0},
                             {"src": 5, "dst": 0, "flits": 8, "phase": 0, "preds": [0]}]}}}"#,
            "",
        );
        let s = Scenario::from_json_str(&dag).unwrap();
        let out = run(&s).unwrap();
        assert_eq!(out.kind(), "closed_loop");
    }

    #[test]
    fn serving_parses_round_trips_and_executes() {
        let text = mesh_scenario(
            r#"{"kind": "serving", "seed": 3,
                "arrivals": {"process": "trace", "cycles": [0, 40, 80, 120]},
                "classes": [
                  {"name": "train", "collective": "ring_allreduce", "flits": 8,
                   "participants": 4, "placement": "block", "slo_cycles": 5000},
                  {"name": "infer", "collective": "pipeline", "flits": 4,
                   "microbatches": 2, "participants": 3, "placement": "overlapping",
                   "weight": 0.5}]}"#,
            "",
        );
        let s = Scenario::from_json_str(&text).unwrap();
        assert_eq!(s.run.kind(), "serving");
        // Canonical form round-trips exactly.
        let back = Scenario::from_json_str(&s.to_json()).unwrap();
        assert_eq!(back, s);
        let out = run(&s).unwrap();
        let ScenarioOutcome::Serving(r) = &out else {
            panic!("wrong outcome kind")
        };
        assert_eq!(r.jobs.len(), 4);
        assert_eq!(r.classes.len(), 2);
        assert_eq!(out.kind(), "serving");
    }

    #[test]
    fn serving_error_paths_are_precise() {
        let cases: &[(&str, &str)] = &[
            (
                r#"{"kind": "serving", "arrivals": {"process": "zipf"},
                    "classes": [{"name": "a", "collective": "reduce", "participants": 2}]}"#,
                "scenario.run.arrivals.process: expected \"poisson\" or \"trace\"",
            ),
            (
                r#"{"kind": "serving", "arrivals": {"process": "poisson", "rate_per_kcycle": 0},
                    "classes": [{"name": "a", "collective": "reduce", "participants": 2}]}"#,
                "scenario.run.arrivals.rate_per_kcycle: expected number in (0, 1000]",
            ),
            (
                r#"{"kind": "serving", "arrivals": {"process": "trace", "cycles": []},
                    "classes": [{"name": "a", "collective": "reduce", "participants": 2}]}"#,
                "scenario.run.arrivals.cycles: expected at least one arrival cycle",
            ),
            (
                r#"{"kind": "serving", "arrivals": {"process": "trace", "cycles": [0]},
                    "classes": []}"#,
                "scenario.run.classes: expected at least one class",
            ),
            (
                r#"{"kind": "serving", "arrivals": {"process": "trace", "cycles": [0]},
                    "classes": [{"name": "a", "collective": "reduce", "participants": 2,
                                 "placement": "anywhere"}]}"#,
                "scenario.run.classes[0].placement: expected \"block\", \"strided\" or \"overlapping\"",
            ),
            (
                r#"{"kind": "serving", "arrivals": {"process": "trace", "cycles": [0]},
                    "classes": [{"name": "a", "collective": "reduce", "participants": 1}]}"#,
                "scenario.run.classes[0].participants: must be at least 2",
            ),
            (
                r#"{"kind": "serving", "arrivals": {"process": "trace", "cycles": [0]},
                    "classes": [{"name": "a", "collective": "broadcast", "participants": 2,
                                 "microbatches": 3}]}"#,
                "scenario.run.classes[0].microbatches: only the pipeline collective takes microbatches",
            ),
        ];
        for (run, want) in cases {
            let err = Scenario::from_json_str(&mesh_scenario(run, "")).unwrap_err();
            assert_eq!(&err, want);
        }
        // Serving runs reject a traffic section outright.
        let err = Scenario::from_json_str(&mesh_scenario(
            r#"{"kind": "serving", "arrivals": {"process": "trace", "cycles": [0]},
                "classes": [{"name": "a", "collective": "reduce", "participants": 2}]}"#,
            r#""traffic": {"pattern": "uniform", "rate": 0.5},"#,
        ))
        .unwrap_err();
        assert_eq!(
            err,
            "scenario.traffic: serving runs take scenario.run.classes, not traffic"
        );
    }

    #[test]
    fn partitioning_does_not_change_digest() {
        let base = mesh_scenario(
            r#"{"kind": "open_loop", "rates_chip": [0.6]}"#,
            r#""traffic": {"pattern": "uniform"},"#,
        );
        let s = Scenario::from_json_str(&base).unwrap();
        let reference = run(&s).unwrap().digest();
        for partitioning in [
            r#"{"partitions": 4, "partitioner": "blocks"}"#,
            r#"{"partitions": 4, "partitioner": "locality"}"#,
        ] {
            let mut v = s.clone();
            v.partitioning = Partitioning::read(&Value::parse(partitioning).unwrap(), "p").unwrap();
            assert_eq!(run(&v).unwrap().digest(), reference, "{partitioning}");
        }
    }

    #[test]
    fn partition_map_ids_beyond_the_router_count_are_sparse() {
        let mut s = Scenario::from_json_str(&mesh_scenario(
            r#"{"kind": "open_loop", "rates_chip": [0.4]}"#,
            r#""traffic": {"pattern": "uniform"},"#,
        ))
        .unwrap();
        let mut map = vec![0; 16];
        map[15] = u32::MAX;
        s.partitioning = Partitioning::Map(map);
        assert_eq!(
            run(&s).unwrap_err(),
            "scenario.partitioning.map: partition ids must be dense (every id in 0..P used)"
        );
    }

    #[test]
    fn digest_table_round_trips() {
        let entries = vec![
            ("b.json".to_string(), "fnv64:0000000000000001".to_string()),
            ("a.json".to_string(), "fnv64:0000000000000002".to_string()),
        ];
        let text = digests_json(&entries);
        let dir = std::env::temp_dir().join(format!("wsdf_digests_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(DIGESTS_FILE), &text).unwrap();
        let back = read_digests(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].0, "a.json");
        assert_eq!(back[1].0, "b.json");
    }
}
