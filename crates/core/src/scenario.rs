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
//! * **Canonical round-trip.** [`Scenario::to_json`] writes the full
//!   resolved form; parsing it back yields an identical scenario.
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
use crate::json::{self, read, Value};
use crate::report::{Curve, Figure};
use crate::resilience::{resilience_impl, ResilienceConfig, ResilienceReport};
use crate::serving::{run_serving_impl, ServingReport};
use crate::sweep::{adaptive_impl, sweep_impl, AdaptiveConfig, SaturationReport};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wsdf_exec::BspPool;
use wsdf_routing::{RouteMode, VcScheme};
use wsdf_sim::{SimConfig, TraceConfig, Tracer, MAX_PORTS};
use wsdf_topo::{FaultSchedule, FaultSet, FaultSpec, SlParams, SwParams};
use wsdf_traffic::{PermKind, RingDirection};
use wsdf_workload::tenancy::{ArrivalProcess, JobClass, Placement, ServingSpec};
use wsdf_workload::Workload;

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

    fn to_json(&self) -> String {
        match self {
            Topology::Switchless(p) => {
                format!(
                    "{{\"family\": \"switchless\", \"params\": {}}}",
                    p.to_json()
                )
            }
            Topology::Switchbased(p) => {
                format!(
                    "{{\"family\": \"switchbased\", \"params\": {}}}",
                    p.to_json()
                )
            }
            Topology::Mesh { m, chiplet, width } => format!(
                "{{\"family\": \"mesh\", \"m\": {m}, \"chiplet\": {chiplet}, \"width\": {width}}}"
            ),
            Topology::Switch { terminals } => {
                format!("{{\"family\": \"switch\", \"terminals\": {terminals}}}")
            }
        }
    }

    fn from_json(v: &Value, path: &str) -> Result<Self, String> {
        read::obj(v, path)?;
        let family = read::str_field(v, path, "family")?;
        match family {
            "switchless" => {
                read::check_keys(v, path, &["family", "params"])?;
                let p =
                    SlParams::from_json(read::req(v, path, "params")?, &format!("{path}.params"))?;
                Ok(Topology::Switchless(p))
            }
            "switchbased" => {
                read::check_keys(v, path, &["family", "params"])?;
                let p =
                    SwParams::from_json(read::req(v, path, "params")?, &format!("{path}.params"))?;
                Ok(Topology::Switchbased(p))
            }
            "mesh" => {
                read::check_keys(v, path, &["family", "m", "chiplet", "width"])?;
                let m = read::field::<u64>(v, path, "m")?;
                let chiplet = read::field::<u64>(v, path, "chiplet")?;
                let width = read::u64_or(v, path, "width", 1)?;
                if !(2..=MAX_MESH_SIDE).contains(&m) {
                    return Err(format!("{path}.m: expected integer in 2..={MAX_MESH_SIDE}"));
                }
                if chiplet == 0 || m % chiplet != 0 {
                    return Err(format!("{path}.chiplet: must divide m ({m})"));
                }
                if width == 0 || width > 255 {
                    return Err(format!("{path}.width: expected integer in 1..=255"));
                }
                Ok(Topology::Mesh {
                    m: m as u32,
                    chiplet: chiplet as u32,
                    width: width as u8,
                })
            }
            "switch" => {
                read::check_keys(v, path, &["family", "terminals"])?;
                let terminals = read::field::<u64>(v, path, "terminals")?;
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
            _ => Err(format!(
                "{path}.family: expected \"switchless\", \"switchbased\", \"mesh\" or \"switch\""
            )),
        }
    }
}

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

impl SimSpec {
    fn to_json(&self) -> String {
        format!(
            "{{\"warmup_cycles\": {}, \"measure_cycles\": {}, \"drain_cycles\": {}, \
             \"seed\": {}, \"packet_len\": {}, \"buffer_flits\": {}}}",
            self.warmup_cycles,
            self.measure_cycles,
            self.drain_cycles,
            self.seed,
            self.packet_len,
            self.buffer_flits
        )
    }

    fn from_json(v: &Value, path: &str) -> Result<Self, String> {
        read::check_keys(
            v,
            path,
            &[
                "warmup_cycles",
                "measure_cycles",
                "drain_cycles",
                "seed",
                "packet_len",
                "buffer_flits",
            ],
        )?;
        let d = SimSpec::default();
        let packet_len = read::u64_or(v, path, "packet_len", d.packet_len as u64)?;
        if packet_len == 0 || packet_len > 255 {
            return Err(format!("{path}.packet_len: expected integer in 1..=255"));
        }
        let buffer_flits = read::u64_or(v, path, "buffer_flits", d.buffer_flits as u64)?;
        if buffer_flits < packet_len || buffer_flits > 65_535 {
            return Err(format!(
                "{path}.buffer_flits: expected integer in {packet_len}..=65535 (at least one packet)"
            ));
        }
        let spec = SimSpec {
            warmup_cycles: read::u64_or(v, path, "warmup_cycles", d.warmup_cycles)?,
            measure_cycles: read::u64_or(v, path, "measure_cycles", d.measure_cycles)?,
            drain_cycles: read::u64_or(v, path, "drain_cycles", d.drain_cycles)?,
            seed: read::u64_or(v, path, "seed", d.seed)?,
            packet_len: packet_len as u8,
            buffer_flits: buffer_flits as u16,
        };
        if spec.measure_cycles == 0 {
            return Err(format!("{path}.measure_cycles: must be at least 1"));
        }
        Ok(spec)
    }
}

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

impl Stepping {
    /// Stable lowercase name used by scenario files.
    pub fn name(self) -> &'static str {
        match self {
            Stepping::Event => "event",
            Stepping::Dense => "dense",
        }
    }
}

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

impl PartitionerKind {
    /// Stable lowercase name used by scenario files.
    pub fn name(self) -> &'static str {
        match self {
            PartitionerKind::Locality => "locality",
            PartitionerKind::Blocks => "blocks",
        }
    }
}

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

    fn to_json(&self) -> String {
        match self {
            Partitioning::Auto {
                partitions,
                partitioner,
            } => format!(
                "{{\"partitions\": {partitions}, \"partitioner\": \"{}\"}}",
                partitioner.name()
            ),
            Partitioning::Map(map) => format!("{{\"map\": {}}}", json::to_string(map)),
        }
    }

    fn from_json(v: &Value, path: &str) -> Result<Self, String> {
        read::check_keys(v, path, &["partitions", "partitioner", "map"])?;
        if v.get("map").is_some() {
            if v.get("partitions").is_some() || v.get("partitioner").is_some() {
                return Err(format!(
                    "{path}: give either \"map\" or \"partitions\"/\"partitioner\", not both"
                ));
            }
            return Ok(Partitioning::Map(read::field(v, path, "map")?));
        }
        let partitions = read::u64_or(v, path, "partitions", 1)?;
        let partitioner = match v.get("partitioner") {
            None => PartitionerKind::Locality,
            Some(p) => match p.as_str() {
                Some("locality") => PartitionerKind::Locality,
                Some("blocks") => PartitionerKind::Blocks,
                _ => {
                    return Err(format!(
                        "{path}.partitioner: expected \"locality\" or \"blocks\""
                    ))
                }
            },
        };
        Ok(Partitioning::Auto {
            partitions,
            partitioner,
        })
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

impl FaultsSpec {
    fn to_json(&self) -> String {
        match self {
            FaultsSpec::Spec(s) => format!("{{\"spec\": {}}}", json::to_string(s)),
            FaultsSpec::Schedule { schedule, at_cycle } => format!(
                "{{\"schedule\": {}, \"at_cycle\": {at_cycle}}}",
                json::to_string(schedule)
            ),
        }
    }

    fn from_json(v: &Value, path: &str) -> Result<Self, String> {
        read::check_keys(v, path, &["spec", "schedule", "at_cycle"])?;
        match (v.get("spec").is_some(), v.get("schedule").is_some()) {
            (true, true) => Err(format!(
                "{path}: give either \"spec\" or \"schedule\", not both"
            )),
            (false, false) => Err(format!(
                "{path}: expected a \"spec\" or \"schedule\" member"
            )),
            (true, false) => {
                if v.get("at_cycle").is_some() {
                    return Err(format!("{path}.at_cycle: only a schedule takes at_cycle"));
                }
                Ok(FaultsSpec::Spec(read::field(v, path, "spec")?))
            }
            (false, true) => {
                let schedule = read::field(v, path, "schedule")?;
                let at_cycle = read::field::<u64>(v, path, "at_cycle")?;
                Ok(FaultsSpec::Schedule { schedule, at_cycle })
            }
        }
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

impl TrafficSpec {
    fn to_json(&self) -> String {
        match self.rate {
            Some(r) => format!(
                "{{\"pattern\": \"{}\", \"rate\": {}}}",
                pattern_name(self.pattern),
                json::num(r)
            ),
            None => format!("{{\"pattern\": \"{}\"}}", pattern_name(self.pattern)),
        }
    }

    fn from_json(v: &Value, path: &str) -> Result<Self, String> {
        read::check_keys(v, path, &["pattern", "rate"])?;
        let name = read::str_field(v, path, "pattern")?;
        let pattern = pattern_from_name(name)
            .ok_or_else(|| format!("{path}.pattern: unknown pattern \"{name}\""))?;
        let rate = match v.get("rate") {
            None => None,
            Some(Value::Num(x)) if *x > 0.0 && *x <= 1.0 => Some(*x),
            Some(_) => return Err(format!("{path}.rate: expected number in (0,1]")),
        };
        Ok(TrafficSpec { pattern, rate })
    }
}

/// Stable scenario-file name of a [`PatternSpec`].
pub fn pattern_name(spec: PatternSpec) -> &'static str {
    match spec {
        PatternSpec::Uniform => "uniform",
        PatternSpec::Permutation(PermKind::BitReverse) => "bit_reverse",
        PatternSpec::Permutation(PermKind::BitShuffle) => "bit_shuffle",
        PatternSpec::Permutation(PermKind::BitTranspose) => "bit_transpose",
        PatternSpec::Hotspot => "hotspot",
        PatternSpec::WorstCase => "worst_case",
        PatternSpec::RingCGroup(RingDirection::Unidirectional) => "ring_cgroup",
        PatternSpec::RingCGroup(RingDirection::Bidirectional) => "ring_cgroup_bidir",
        PatternSpec::RingWGroup(RingDirection::Unidirectional) => "ring_wgroup",
        PatternSpec::RingWGroup(RingDirection::Bidirectional) => "ring_wgroup_bidir",
    }
}

/// Inverse of [`pattern_name`].
pub fn pattern_from_name(name: &str) -> Option<PatternSpec> {
    Some(match name {
        "uniform" => PatternSpec::Uniform,
        "bit_reverse" => PatternSpec::Permutation(PermKind::BitReverse),
        "bit_shuffle" => PatternSpec::Permutation(PermKind::BitShuffle),
        "bit_transpose" => PatternSpec::Permutation(PermKind::BitTranspose),
        "hotspot" => PatternSpec::Hotspot,
        "worst_case" => PatternSpec::WorstCase,
        "ring_cgroup" => PatternSpec::RingCGroup(RingDirection::Unidirectional),
        "ring_cgroup_bidir" => PatternSpec::RingCGroup(RingDirection::Bidirectional),
        "ring_wgroup" => PatternSpec::RingWGroup(RingDirection::Unidirectional),
        "ring_wgroup_bidir" => PatternSpec::RingWGroup(RingDirection::Bidirectional),
        _ => return None,
    })
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

/// Read the `collective`, `flits` and `microbatches` members a
/// closed-loop workload and a serving class share: a name from
/// [`wsdf_workload::COLLECTIVES`], at least one flit (64 by default), and
/// a microbatch count (1 by default) that only `pipeline` may set.
fn read_collective(v: &Value, path: &str) -> Result<(String, u64, u32), String> {
    let kind = read::str_field(v, path, "collective")?;
    if !wsdf_workload::COLLECTIVES.contains(&kind) {
        return Err(format!("{path}.collective: unknown collective \"{kind}\""));
    }
    let flits = read::u64_or(v, path, "flits", 64)?;
    if flits == 0 {
        return Err(format!("{path}.flits: must be at least 1"));
    }
    let microbatches = match v.get("microbatches") {
        None => 1,
        Some(_) if kind != "pipeline" => {
            return Err(format!(
                "{path}.microbatches: only the pipeline collective takes microbatches"
            ))
        }
        Some(_) => {
            let mb = read::field::<u64>(v, path, "microbatches")?;
            if mb == 0 || mb > u32::MAX as u64 {
                return Err(format!("{path}.microbatches: must be at least 1"));
            }
            mb as u32
        }
    };
    Ok((kind.to_string(), flits, microbatches))
}

/// The `flits` member, then `microbatches` for a pipeline: the writer
/// side of [`read_collective`] (the caller writes `collective`).
fn payload_json(kind: &str, flits: u64, microbatches: u32) -> String {
    if kind == "pipeline" {
        format!("\"flits\": {flits}, \"microbatches\": {microbatches}")
    } else {
        format!("\"flits\": {flits}")
    }
}

impl WorkloadSpec {
    fn to_json(&self) -> String {
        match self {
            WorkloadSpec::Collective {
                kind,
                participants,
                flits,
                microbatches,
            } => {
                let parts = match participants {
                    Participants::Chips => "\"chips\"".to_string(),
                    Participants::List(ids) => json::to_string(ids),
                };
                format!(
                    "{{\"collective\": \"{kind}\", \"participants\": {parts}, {}}}",
                    payload_json(kind, *flits, *microbatches)
                )
            }
            WorkloadSpec::Dag(wl) => format!("{{\"dag\": {}}}", json::to_string(wl)),
        }
    }

    fn from_json(v: &Value, path: &str) -> Result<Self, String> {
        read::check_keys(
            v,
            path,
            &["collective", "dag", "participants", "flits", "microbatches"],
        )?;
        match (v.get("collective").is_some(), v.get("dag").is_some()) {
            (true, true) => Err(format!(
                "{path}: give either \"collective\" or \"dag\", not both"
            )),
            (false, false) => Err(format!(
                "{path}: expected a \"collective\" or \"dag\" member"
            )),
            (false, true) => {
                for key in ["participants", "flits", "microbatches"] {
                    if v.get(key).is_some() {
                        return Err(format!(
                            "{path}.{key}: only collective workloads take {key}"
                        ));
                    }
                }
                Ok(WorkloadSpec::Dag(read::field(v, path, "dag")?))
            }
            (true, false) => {
                let (kind, flits, microbatches) = read_collective(v, path)?;
                let participants = match v.get("participants") {
                    None => Participants::Chips,
                    Some(Value::Str(s)) if s == "chips" => Participants::Chips,
                    Some(Value::Arr(_)) => {
                        Participants::List(read::field(v, path, "participants")?)
                    }
                    Some(_) => {
                        return Err(format!(
                            "{path}.participants: expected \"chips\" or an id array"
                        ))
                    }
                };
                Ok(WorkloadSpec::Collective {
                    kind,
                    participants,
                    flits,
                    microbatches,
                })
            }
        }
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

    fn to_json(&self) -> String {
        match self {
            RunSpec::OpenLoop { rates_chip } => match rates_chip {
                None => "{\"kind\": \"open_loop\"}".to_string(),
                Some(rates) => format!(
                    "{{\"kind\": \"open_loop\", \"rates_chip\": {}}}",
                    json::to_string(rates)
                ),
            },
            RunSpec::Adaptive {
                start_chip,
                growth,
                rel_tol,
                max_points,
            } => format!(
                "{{\"kind\": \"adaptive\", \"start_chip\": {}, \"growth\": {}, \
                 \"rel_tol\": {}, \"max_points\": {max_points}}}",
                json::num(*start_chip),
                json::num(*growth),
                json::num(*rel_tol)
            ),
            RunSpec::ClosedLoop {
                workload,
                flit_bytes,
                clock_ghz,
            } => format!(
                "{{\"kind\": \"closed_loop\", \"workload\": {}, \"flit_bytes\": {}, \
                 \"clock_ghz\": {}}}",
                workload.to_json(),
                json::num(*flit_bytes),
                json::num(*clock_ghz)
            ),
            RunSpec::Resilience {
                rate_chip,
                fractions,
                router_ratio,
                seed,
                collective_flits,
            } => format!(
                "{{\"kind\": \"resilience\", \"rate_chip\": {}, \"fractions\": {}, \
                 \"router_ratio\": {}, \"seed\": {seed}, \"collective_flits\": {collective_flits}}}",
                json::num(*rate_chip),
                json::to_string(fractions),
                json::num(*router_ratio)
            ),
            RunSpec::Serving { spec } => {
                let arrivals = match &spec.arrivals {
                    ArrivalProcess::Poisson {
                        rate_per_kcycle,
                        horizon,
                    } => format!(
                        "{{\"process\": \"poisson\", \"rate_per_kcycle\": {}, \"horizon\": {horizon}}}",
                        json::num(*rate_per_kcycle)
                    ),
                    ArrivalProcess::Trace { cycles } => format!(
                        "{{\"process\": \"trace\", \"cycles\": {}}}",
                        json::to_string(cycles)
                    ),
                };
                let classes: Vec<String> = spec
                    .classes
                    .iter()
                    .map(|c| {
                        format!(
                            "{{\"name\": \"{}\", \"collective\": \"{}\", {}, \
                             \"participants\": {}, \"placement\": \"{}\", \"slo_cycles\": {}, \
                             \"weight\": {}}}",
                            json::escape(&c.name),
                            c.collective,
                            payload_json(&c.collective, c.flits, c.microbatches),
                            c.participants,
                            c.placement.name(),
                            c.slo_cycles,
                            json::num(c.weight)
                        )
                    })
                    .collect();
                format!(
                    "{{\"kind\": \"serving\", \"seed\": {}, \"max_jobs\": {}, \
                     \"arrivals\": {arrivals}, \"classes\": [{}]}}",
                    spec.seed,
                    spec.max_jobs,
                    classes.join(", ")
                )
            }
        }
    }

    fn from_json(v: &Value, path: &str) -> Result<Self, String> {
        read::obj(v, path)?;
        let kind = read::str_field(v, path, "kind")?;
        match kind {
            "open_loop" => {
                read::check_keys(v, path, &["kind", "rates_chip"])?;
                let rates_chip = match v.get("rates_chip") {
                    None => None,
                    Some(_) => {
                        let arr = read::arr_field(v, path, "rates_chip")?;
                        if arr.is_empty() {
                            return Err(format!("{path}.rates_chip: expected at least one rate"));
                        }
                        let mut rates = Vec::with_capacity(arr.len());
                        for (i, r) in arr.iter().enumerate() {
                            match r {
                                Value::Num(x) if *x > 0.0 => rates.push(*x),
                                _ => {
                                    return Err(format!(
                                        "{path}.rates_chip[{i}]: expected number > 0"
                                    ))
                                }
                            }
                        }
                        Some(rates)
                    }
                };
                Ok(RunSpec::OpenLoop { rates_chip })
            }
            "adaptive" => {
                read::check_keys(
                    v,
                    path,
                    &["kind", "start_chip", "growth", "rel_tol", "max_points"],
                )?;
                let d = AdaptiveConfig::default();
                let start_chip =
                    read::opt_f64_field(v, path, "start_chip")?.unwrap_or(d.start_chip);
                if start_chip <= 0.0 {
                    return Err(format!("{path}.start_chip: expected number > 0"));
                }
                let growth = read::opt_f64_field(v, path, "growth")?.unwrap_or(d.growth);
                if growth <= 1.0 {
                    return Err(format!("{path}.growth: expected number > 1"));
                }
                let rel_tol = read::opt_f64_field(v, path, "rel_tol")?.unwrap_or(d.rel_tol);
                if rel_tol <= 0.0 {
                    return Err(format!("{path}.rel_tol: expected number > 0"));
                }
                let max_points = read::u64_or(v, path, "max_points", d.max_points as u64)?;
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
                let workload = WorkloadSpec::from_json(
                    read::req(v, path, "workload")?,
                    &format!("{path}.workload"),
                )?;
                let d = WorkloadUnits::default();
                let flit_bytes =
                    read::opt_f64_field(v, path, "flit_bytes")?.unwrap_or(d.flit_bytes);
                if flit_bytes <= 0.0 {
                    return Err(format!("{path}.flit_bytes: expected number > 0"));
                }
                let clock_ghz = read::opt_f64_field(v, path, "clock_ghz")?.unwrap_or(d.clock_ghz);
                if clock_ghz <= 0.0 {
                    return Err(format!("{path}.clock_ghz: expected number > 0"));
                }
                Ok(RunSpec::ClosedLoop {
                    workload,
                    flit_bytes,
                    clock_ghz,
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
                let rate_chip = read::opt_f64_field(v, path, "rate_chip")?.unwrap_or(d.rate_chip);
                if rate_chip <= 0.0 {
                    return Err(format!("{path}.rate_chip: expected number > 0"));
                }
                let fractions = match v.get("fractions") {
                    None => d.fractions.clone(),
                    Some(_) => {
                        let arr = read::arr_field(v, path, "fractions")?;
                        let mut out = Vec::with_capacity(arr.len());
                        for (i, f) in arr.iter().enumerate() {
                            match f {
                                Value::Num(x) if (0.0..=1.0).contains(x) => out.push(*x),
                                _ => {
                                    return Err(format!(
                                        "{path}.fractions[{i}]: expected number in [0, 1]"
                                    ))
                                }
                            }
                        }
                        if out.is_empty() {
                            return Err(format!(
                                "{path}.fractions: expected at least one fraction"
                            ));
                        }
                        out
                    }
                };
                let router_ratio =
                    read::opt_f64_field(v, path, "router_ratio")?.unwrap_or(d.router_ratio);
                if !(0.0..=1.0).contains(&router_ratio) {
                    return Err(format!("{path}.router_ratio: expected number in [0, 1]"));
                }
                Ok(RunSpec::Resilience {
                    rate_chip,
                    fractions,
                    router_ratio,
                    seed: read::u64_or(v, path, "seed", d.seed)?,
                    collective_flits: read::u64_or(
                        v,
                        path,
                        "collective_flits",
                        d.collective_flits,
                    )?,
                })
            }
            "serving" => {
                read::check_keys(
                    v,
                    path,
                    &["kind", "seed", "max_jobs", "arrivals", "classes"],
                )?;
                let seed = read::u64_or(v, path, "seed", 1)?;
                let max_jobs = read::u64_or(v, path, "max_jobs", 256)?;
                if max_jobs == 0 || max_jobs > wsdf_workload::message::MAX_JOBS {
                    return Err(format!(
                        "{path}.max_jobs: must be in 1..={}",
                        wsdf_workload::message::MAX_JOBS
                    ));
                }
                let apath = format!("{path}.arrivals");
                let a = read::req(v, path, "arrivals")?;
                read::check_keys(
                    a,
                    &apath,
                    &["process", "rate_per_kcycle", "horizon", "cycles"],
                )?;
                let arrivals = match read::str_field(a, &apath, "process")? {
                    "poisson" => {
                        if a.get("cycles").is_some() {
                            return Err(format!("{apath}.cycles: only trace arrivals take cycles"));
                        }
                        let rate =
                            read::opt_f64_field(a, &apath, "rate_per_kcycle")?.unwrap_or(1.0);
                        if !(rate > 0.0 && rate <= 1000.0) {
                            return Err(format!(
                                "{apath}.rate_per_kcycle: expected number in (0, 1000]"
                            ));
                        }
                        let horizon = read::u64_or(a, &apath, "horizon", 10_000)?;
                        if horizon == 0 {
                            return Err(format!("{apath}.horizon: must be at least 1"));
                        }
                        ArrivalProcess::Poisson {
                            rate_per_kcycle: rate,
                            horizon,
                        }
                    }
                    "trace" => {
                        for key in ["rate_per_kcycle", "horizon"] {
                            if a.get(key).is_some() {
                                return Err(format!(
                                    "{apath}.{key}: only poisson arrivals take {key}"
                                ));
                            }
                        }
                        let cycles: Vec<u64> = read::field(a, &apath, "cycles")?;
                        if cycles.is_empty() {
                            return Err(format!(
                                "{apath}.cycles: expected at least one arrival cycle"
                            ));
                        }
                        ArrivalProcess::Trace { cycles }
                    }
                    _ => {
                        return Err(format!(
                            "{apath}.process: expected \"poisson\" or \"trace\""
                        ))
                    }
                };
                let arr = read::arr_field(v, path, "classes")?;
                if arr.is_empty() {
                    return Err(format!("{path}.classes: expected at least one class"));
                }
                let mut classes = Vec::with_capacity(arr.len());
                for (i, c) in arr.iter().enumerate() {
                    let cpath = format!("{path}.classes[{i}]");
                    read::check_keys(
                        c,
                        &cpath,
                        &[
                            "name",
                            "collective",
                            "flits",
                            "microbatches",
                            "participants",
                            "placement",
                            "slo_cycles",
                            "weight",
                        ],
                    )?;
                    let name = read::str_field(c, &cpath, "name")?.to_string();
                    if name.is_empty() {
                        return Err(format!("{cpath}.name: must not be empty"));
                    }
                    let (collective, flits, microbatches) = read_collective(c, &cpath)?;
                    let participants = read::field::<u64>(c, &cpath, "participants")?;
                    if !(2..=u32::MAX as u64).contains(&participants) {
                        return Err(format!("{cpath}.participants: must be at least 2"));
                    }
                    let placement = match c.get("placement") {
                        None => Placement::Block,
                        Some(p) => p.as_str().and_then(Placement::from_name).ok_or_else(|| {
                            format!(
                                "{cpath}.placement: expected \"block\", \"strided\" or \"overlapping\""
                            )
                        })?,
                    };
                    let weight = read::opt_f64_field(c, &cpath, "weight")?.unwrap_or(1.0);
                    if weight <= 0.0 {
                        return Err(format!("{cpath}.weight: expected number > 0"));
                    }
                    classes.push(JobClass {
                        name,
                        collective,
                        flits,
                        microbatches,
                        participants: participants as u32,
                        placement,
                        slo_cycles: read::u64_or(c, &cpath, "slo_cycles", 0)?,
                        weight,
                    });
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
            _ => Err(format!(
                "{path}.kind: expected \"open_loop\", \"adaptive\", \"closed_loop\", \
                 \"resilience\" or \"serving\""
            )),
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
        let v = Value::parse(text)?;
        Self::from_json(&v, "scenario")
    }

    /// Parse a scenario from an already-parsed [`Value`] rooted at `path`.
    pub fn from_json(v: &Value, path: &str) -> Result<Self, String> {
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
        let name = read::str_field(v, path, "name")?.to_string();
        if name.is_empty() {
            return Err(format!("{path}.name: must not be empty"));
        }
        let topology =
            Topology::from_json(read::req(v, path, "topology")?, &format!("{path}.topology"))?;

        // Oracle: only the Dragonfly families route configurably.
        let (mut route, mut vcs) = (RouteMode::Minimal, VcScheme::Baseline);
        if let Some(o) = v.get("oracle") {
            let opath = format!("{path}.oracle");
            match topology {
                Topology::Mesh { .. } | Topology::Switch { .. } => {
                    return Err(format!(
                        "{opath}: not configurable for family \"{}\"",
                        topology.family()
                    ));
                }
                _ => {}
            }
            read::check_keys(o, &opath, &["route", "vcs"])?;
            if let Some(r) = o.get("route") {
                route = r
                    .as_str()
                    .and_then(RouteMode::from_name)
                    .ok_or_else(|| format!("{opath}.route: expected \"minimal\" or \"valiant\""))?;
            }
            if let Some(s) = o.get("vcs") {
                if !matches!(topology, Topology::Switchless(_)) {
                    return Err(format!(
                        "{opath}.vcs: only the switch-less family has a VC scheme"
                    ));
                }
                vcs = s
                    .as_str()
                    .and_then(VcScheme::from_name)
                    .ok_or_else(|| format!("{opath}.vcs: expected \"baseline\" or \"reduced\""))?;
            }
        }

        let sim = match v.get("sim") {
            None => SimSpec::default(),
            Some(s) => SimSpec::from_json(s, &format!("{path}.sim"))?,
        };
        let stepping = match v.get("stepping") {
            None => Stepping::Event,
            Some(s) => match s.as_str() {
                Some("event") => Stepping::Event,
                Some("dense") => Stepping::Dense,
                _ => return Err(format!("{path}.stepping: expected \"event\" or \"dense\"")),
            },
        };
        let partitioning = match v.get("partitioning") {
            None => Partitioning::default(),
            Some(p) => Partitioning::from_json(p, &format!("{path}.partitioning"))?,
        };
        let faults = match v.get("faults") {
            None => None,
            Some(f) => Some(FaultsSpec::from_json(f, &format!("{path}.faults"))?),
        };
        let run = RunSpec::from_json(read::req(v, path, "run")?, &format!("{path}.run"))?;
        let traffic = match v.get("traffic") {
            None => None,
            Some(t) => Some(TrafficSpec::from_json(t, &format!("{path}.traffic"))?),
        };
        let telemetry = match v.get("telemetry") {
            None => None,
            Some(t) => Some(TraceConfig::from_json(t, &format!("{path}.telemetry"))?),
        };

        // Cross-section rules: what each run kind takes.
        let tpath = format!("{path}.traffic");
        match &run {
            RunSpec::ClosedLoop { .. } => {
                if traffic.is_some() {
                    return Err(format!(
                        "{tpath}: closed-loop runs take {path}.run.workload, not traffic"
                    ));
                }
            }
            RunSpec::Serving { .. } => {
                if traffic.is_some() {
                    return Err(format!(
                        "{tpath}: serving runs take {path}.run.classes, not traffic"
                    ));
                }
            }
            _ => {
                let t = traffic
                    .as_ref()
                    .ok_or_else(|| format!("{tpath}: missing required key"))?;
                match &run {
                    RunSpec::OpenLoop { rates_chip } => {
                        if rates_chip.is_some() && t.rate.is_some() {
                            return Err(format!(
                                "{tpath}.rate: run.rates_chip already sets the sweep rates; remove one"
                            ));
                        }
                        if rates_chip.is_none() && t.rate.is_none() {
                            return Err(format!("{tpath}.rate: missing required key"));
                        }
                    }
                    RunSpec::Adaptive { .. } => {
                        if t.rate.is_some() {
                            return Err(format!(
                                "{tpath}.rate: adaptive runs choose their own rates"
                            ));
                        }
                    }
                    RunSpec::Resilience { .. } => {
                        if t.rate.is_some() {
                            return Err(format!(
                                "{tpath}.rate: resilience runs set {path}.run.rate_chip instead"
                            ));
                        }
                    }
                    RunSpec::ClosedLoop { .. } | RunSpec::Serving { .. } => unreachable!(),
                }
                if t.pattern == PatternSpec::Hotspot && topology.wgroups() < 4 {
                    return Err(format!(
                        "{tpath}.pattern: hotspot needs at least 4 W-groups (topology has {})",
                        topology.wgroups()
                    ));
                }
            }
        }
        if matches!(run, RunSpec::Resilience { .. }) && faults.is_some() {
            return Err(format!(
                "{path}.faults: resilience runs sample their own faults; remove this section"
            ));
        }

        Ok(Scenario {
            name,
            topology,
            route,
            vcs,
            sim,
            stepping,
            partitioning,
            faults,
            traffic,
            telemetry,
            run,
        })
    }

    /// Canonical JSON form: every resolved field, one section per line.
    /// `Scenario::from_json_str(&s.to_json())` reproduces `s` exactly.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"name\": \"{}\",\n", json::escape(&self.name)));
        s.push_str(&format!("  \"topology\": {},\n", self.topology.to_json()));
        match &self.topology {
            Topology::Switchless(_) => s.push_str(&format!(
                "  \"oracle\": {{\"route\": \"{}\", \"vcs\": \"{}\"}},\n",
                self.route.name(),
                self.vcs.name()
            )),
            Topology::Switchbased(_) => s.push_str(&format!(
                "  \"oracle\": {{\"route\": \"{}\"}},\n",
                self.route.name()
            )),
            _ => {}
        }
        s.push_str(&format!("  \"sim\": {},\n", self.sim.to_json()));
        s.push_str(&format!("  \"stepping\": \"{}\",\n", self.stepping.name()));
        s.push_str(&format!(
            "  \"partitioning\": {},\n",
            self.partitioning.to_json()
        ));
        if let Some(f) = &self.faults {
            s.push_str(&format!("  \"faults\": {},\n", f.to_json()));
        }
        if let Some(t) = &self.traffic {
            s.push_str(&format!("  \"traffic\": {},\n", t.to_json()));
        }
        if let Some(t) = &self.telemetry {
            s.push_str(&format!("  \"telemetry\": {},\n", t.to_json()));
        }
        s.push_str(&format!("  \"run\": {}\n}}\n", self.run.to_json()));
        s
    }

    /// Build the bench this scenario describes (topology + oracle +
    /// faults applied).
    pub fn build_bench(&self) -> Bench {
        let bench = match &self.topology {
            Topology::Switchless(p) => Bench::switchless(p, self.route, self.vcs),
            Topology::Switchbased(p) => Bench::switchbased(p, self.route),
            Topology::Mesh { m, chiplet, width } => Bench::single_mesh(*m, *chiplet, *width),
            Topology::Switch { terminals } => Bench::single_switch(*terminals),
        };
        match &self.faults {
            None => bench,
            Some(FaultsSpec::Spec(spec)) => {
                let fs = FaultSet::sample(bench.fabric.net(), spec);
                bench.with_fault_set(&fs)
            }
            Some(FaultsSpec::Schedule { schedule, at_cycle }) => {
                let fs = schedule.at_cycle(bench.fabric.net(), *at_cycle);
                bench.with_fault_set(&fs)
            }
        }
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
        let bench = self.build_bench();
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
    let mut out = Vec::with_capacity(members.len());
    for (file, digest) in members {
        let digest = digest
            .as_str()
            .ok_or_else(|| format!("digests.{file}: expected string"))?;
        out.push((file.clone(), digest.to_string()));
    }
    Ok(out)
}

/// Serialize a digest table (one `"file": "digest"` line per entry,
/// sorted by file name).
pub fn digests_json(entries: &[(String, String)]) -> String {
    let mut sorted: Vec<&(String, String)> = entries.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let mut s = String::from("{\n");
    for (i, (file, digest)) in sorted.iter().enumerate() {
        s.push_str(&format!(
            "  \"{}\": \"{}\"{}\n",
            json::escape(file),
            json::escape(digest),
            if i + 1 < sorted.len() { "," } else { "" }
        ));
    }
    s.push_str("}\n");
    s
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
            v.partitioning =
                Partitioning::from_json(&Value::parse(partitioning).unwrap(), "p").unwrap();
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
