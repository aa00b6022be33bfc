//! Opt-in streaming telemetry: time-series trace of link utilization,
//! router queue depths, ejection latencies, fault epochs, and serving job
//! lifecycle, captured as an in-memory JSONL stream.
//!
//! # Design
//!
//! The hot path must stay bit-identical and (when telemetry is off)
//! cost-free, so the trace pipeline is strictly observe-only and strictly
//! staged:
//!
//! 1. **Buffer in the parallel section.** Each partition owns a
//!    [`PartTrace`]: windowed per-channel flit counters, per-endpoint
//!    latency accumulators, and a record buffer. Routers and endpoints
//!    only bump counters through [`PartTrace::link`]/[`PartTrace::latency`]
//!    — no I/O, no locks, no allocation beyond the amortized buffers.
//! 2. **Drain at the barrier.** After the BSP broadcast of a cycle
//!    returns, the engine (single-threaded at that point) appends every
//!    partition's buffered records — in partition order — into one batch
//!    and sorts it by the canonical `(cycle, kind, agent id)` key.
//!    Sorting at the drain makes the emitted stream independent of the
//!    partition count and worker count: every agent is counted by exactly
//!    one partition with identical values, so the sorted batch is a pure
//!    function of simulated state.
//! 3. **Serialize at the barrier.** [`Tracer::emit`] appends the batch
//!    as JSONL lines through the hand-rolled [`crate::json`] writer
//!    conventions to one string that every clone of the [`Tracer`]
//!    shares; [`Tracer::take_jsonl`] hands the stream over after the run.
//!
//! # Determinism contract
//!
//! The emitted byte stream is deterministic and identical across
//! partition counts, worker counts, and dense/event-driven stepping, so
//! trace files can be digest-pinned exactly like reports:
//!
//! * **Windows.** Link and latency records aggregate over `[k·stride,
//!   (k+1)·stride)` windows and are stamped with the window *end*. A
//!   window is flushed at the first executed cycle at or past its end;
//!   under event-driven stepping idle cycles are skipped, but any cycle
//!   with activity is always executed, so the flushed deltas — and the
//!   stamps — match the dense schedule byte for byte. Empty windows emit
//!   nothing.
//! * **Queue samples.** Router occupancy is sampled at cycles divisible
//!   by the stride, omitting zero depths. A skipped boundary cycle
//!   provably has all queues empty (a router with a buffered flit keeps
//!   its pending-work bit, so the next event is the next cycle), so both
//!   stepping modes emit the same samples.
//! * **Ordering.** Each drained batch is sorted by `(cycle, kind, id)`;
//!   batches are appended in execution order. Window stamps never exceed
//!   the draining cycle and later batches only carry later stamps, so the
//!   whole stream is cycle-monotonic.

use crate::json::{escape, read, Json, ObjectWriter, Value};
use crate::router::RouterRt;
use std::sync::{Arc, Mutex};

/// Which streams to record and how often to sample/flush.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Sampling stride in cycles: queue depths are sampled at multiples
    /// of it, link/latency windows aggregate over it. Must be ≥ 1.
    pub stride: u64,
    /// Per-channel flit-traversal counts per window (`"link"` records).
    pub links: bool,
    /// Per-router buffered-flit depth at stride boundaries (`"queue"`).
    pub queues: bool,
    /// Per-destination-endpoint packet-latency aggregates per window
    /// (`"lat"` records; measurement-window packets only, matching the
    /// summary report's latency statistics).
    pub latencies: bool,
    /// Serving job lifecycle (`"admit"`/`"retire"` records).
    pub jobs: bool,
    /// Fault-epoch transitions of resilience sweeps (`"epoch"` records).
    pub epochs: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            stride: 256,
            links: true,
            queues: true,
            latencies: true,
            jobs: true,
            epochs: true,
        }
    }
}

/// Named accessor into one of [`TraceConfig`]'s stream flags.
type StreamField = (&'static str, fn(&mut TraceConfig) -> &mut bool);

impl TraceConfig {
    const STREAMS: [StreamField; 5] = [
        ("links", |c| &mut c.links),
        ("queues", |c| &mut c.queues),
        ("latencies", |c| &mut c.latencies),
        ("jobs", |c| &mut c.jobs),
        ("epochs", |c| &mut c.epochs),
    ];
}

/// A scenario `telemetry` section: `{"stride": N, "streams": ["links",
/// ...]}`. `streams` absent enables everything; present, it enables
/// exactly the named streams. Written with every field explicit and the
/// streams in a fixed order, so scenario round-trips are byte-stable.
impl Json for TraceConfig {
    fn write(&self, out: &mut String) {
        let mut cfg = self.clone();
        let streams: Vec<String> = Self::STREAMS
            .iter()
            .filter(|(_, field)| *field(&mut cfg))
            .map(|(name, _)| name.to_string())
            .collect();
        let mut obj = ObjectWriter::new(out, None);
        obj.member("stride", &self.stride);
        obj.member("streams", &streams);
        obj.end();
    }

    fn read(v: &Value, path: &str) -> Result<TraceConfig, String> {
        read::check_keys(v, path, &["stride", "streams"])?;
        let stride = read::or(v, path, "stride", 256)?;
        if stride == 0 {
            return Err(format!("{path}.stride: expected positive integer"));
        }
        let mut cfg = TraceConfig {
            stride,
            ..TraceConfig::default()
        };
        if let Some(names) = read::or::<Option<Vec<String>>>(v, path, "streams", None)? {
            for (_, field) in Self::STREAMS {
                *field(&mut cfg) = false;
            }
            for (i, name) in names.iter().enumerate() {
                let Some((_, field)) = Self::STREAMS.iter().find(|(n, _)| n == name) else {
                    return Err(format!("{path}.streams[{i}]: unknown stream \"{name}\""));
                };
                *field(&mut cfg) = true;
            }
        }
        Ok(cfg)
    }
}

/// One trace record. Serialized as a single JSONL line; ordered by
/// [`TraceRec::sort_key`] within each drained batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceRec {
    /// Buffered-flit depth of one router at a stride boundary
    /// (zero depths are omitted from the stream).
    Queue {
        /// Sample cycle (multiple of the stride).
        cycle: u64,
        /// Global router id.
        router: u32,
        /// Flits buffered across all input VCs.
        depth: u32,
    },
    /// Flits that traversed one channel during the window ending at
    /// `cycle` (all traversals, not just measured ones).
    Link {
        /// Window-end cycle (multiple of the stride).
        cycle: u64,
        /// Global channel id.
        ch: u32,
        /// Flit traversals in the window.
        flits: u64,
    },
    /// Latency aggregate of packets ejected at one endpoint during the
    /// window ending at `cycle`. Gated exactly like the summary report:
    /// only packets *created* inside the measurement window count, so
    /// stream totals reconcile with `Metrics::{packets_ejected,
    /// latency_sum, latency_max}`.
    Lat {
        /// Window-end cycle (multiple of the stride).
        cycle: u64,
        /// Destination endpoint id.
        ep: u32,
        /// Packets ejected in the window.
        n: u64,
        /// Sum of their latencies (cycles).
        sum: u64,
        /// Maximum latency in the window (cycles).
        max: u64,
    },
    /// A fault-epoch transition of a resilience sweep. Each epoch is an
    /// independent simulation starting at cycle 0, so the record marks a
    /// segment boundary rather than a point on one shared clock.
    Epoch {
        /// Cycle within the epoch (0 at emission).
        cycle: u64,
        /// Epoch index (position in the fault-fraction sweep).
        epoch: u32,
        /// Human-readable epoch label (e.g. the fault fraction).
        label: String,
    },
    /// A serving job entered the network (first message released).
    Admit {
        /// Admission cycle.
        cycle: u64,
        /// Job instance id.
        job: u32,
        /// Job class index within the serving spec.
        class: u32,
    },
    /// A serving job completed (stamped at the detection cycle; `done`
    /// is the arrival cycle of its last message, which may trail by up
    /// to one channel latency).
    Retire {
        /// Detection cycle.
        cycle: u64,
        /// Job instance id.
        job: u32,
        /// Arrival cycle of the job's final message.
        done: u64,
    },
}

impl TraceRec {
    /// Canonical in-batch order: `(cycle, kind rank, agent id)`. Unique
    /// within a batch (one record per agent per kind per stamp), so the
    /// sorted batch is independent of partition iteration order.
    pub fn sort_key(&self) -> (u64, u8, u64) {
        match self {
            TraceRec::Queue { cycle, router, .. } => (*cycle, 0, *router as u64),
            TraceRec::Link { cycle, ch, .. } => (*cycle, 1, *ch as u64),
            TraceRec::Lat { cycle, ep, .. } => (*cycle, 2, *ep as u64),
            TraceRec::Epoch { cycle, epoch, .. } => (*cycle, 3, *epoch as u64),
            TraceRec::Admit { cycle, job, .. } => (*cycle, 4, *job as u64),
            TraceRec::Retire { cycle, job, .. } => (*cycle, 5, *job as u64),
        }
    }

    /// Append this record's JSONL line (without the trailing newline).
    pub fn write_line(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            TraceRec::Queue {
                cycle,
                router,
                depth,
            } => {
                let _ = write!(
                    out,
                    "{{\"t\": \"queue\", \"cycle\": {cycle}, \"router\": {router}, \"depth\": {depth}}}"
                );
            }
            TraceRec::Link { cycle, ch, flits } => {
                let _ = write!(
                    out,
                    "{{\"t\": \"link\", \"cycle\": {cycle}, \"ch\": {ch}, \"flits\": {flits}}}"
                );
            }
            TraceRec::Lat {
                cycle,
                ep,
                n,
                sum,
                max,
            } => {
                let _ = write!(
                    out,
                    "{{\"t\": \"lat\", \"cycle\": {cycle}, \"ep\": {ep}, \"n\": {n}, \"sum\": {sum}, \"max\": {max}}}"
                );
            }
            TraceRec::Epoch {
                cycle,
                epoch,
                label,
            } => {
                let _ = write!(
                    out,
                    "{{\"t\": \"epoch\", \"cycle\": {cycle}, \"epoch\": {epoch}, \"label\": \"{}\"}}",
                    escape(label)
                );
            }
            TraceRec::Admit { cycle, job, class } => {
                let _ = write!(
                    out,
                    "{{\"t\": \"admit\", \"cycle\": {cycle}, \"job\": {job}, \"class\": {class}}}"
                );
            }
            TraceRec::Retire { cycle, job, done } => {
                let _ = write!(
                    out,
                    "{{\"t\": \"retire\", \"cycle\": {cycle}, \"job\": {job}, \"done\": {done}}}"
                );
            }
        }
    }
}

/// Per-partition trace state, owned by the partition and touched only
/// inside the parallel section. Allocated once at attach time; the hot
/// path bumps counters and pushes into pre-grown vectors.
#[derive(Debug)]
pub struct PartTrace {
    stride: u64,
    links: bool,
    queues: bool,
    latencies: bool,
    /// End cycle of the currently accumulating window.
    next_sample: u64,
    /// Per-channel flit count in the open window (global channel id).
    link_win: Vec<u64>,
    /// Channels with a non-zero count in the open window.
    link_dirty: Vec<u32>,
    /// Per-endpoint latency aggregates in the open window.
    lat_n: Vec<u64>,
    lat_sum: Vec<u64>,
    lat_max: Vec<u64>,
    /// Endpoints with ejections in the open window.
    lat_dirty: Vec<u32>,
    /// Records buffered since the last barrier drain.
    out: Vec<TraceRec>,
}

impl PartTrace {
    /// State for one partition of a network with `channels` channels and
    /// `endpoints` endpoints (counter vectors are globally indexed; each
    /// partition only touches the agents it owns).
    pub fn new(cfg: &TraceConfig, channels: usize, endpoints: usize) -> PartTrace {
        PartTrace {
            stride: cfg.stride,
            links: cfg.links,
            queues: cfg.queues,
            latencies: cfg.latencies,
            next_sample: cfg.stride,
            link_win: vec![0; if cfg.links { channels } else { 0 }],
            link_dirty: Vec::new(),
            lat_n: vec![0; if cfg.latencies { endpoints } else { 0 }],
            lat_sum: vec![0; if cfg.latencies { endpoints } else { 0 }],
            lat_max: vec![0; if cfg.latencies { endpoints } else { 0 }],
            lat_dirty: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Record one flit traversing channel `ch` (called by the sending
    /// router/endpoint — each channel has exactly one sender, so exactly
    /// one partition counts it).
    #[inline]
    pub fn link(&mut self, ch: u32) {
        if self.links {
            let slot = &mut self.link_win[ch as usize];
            if *slot == 0 {
                self.link_dirty.push(ch);
            }
            *slot += 1;
        }
    }

    /// Record one measured packet ejected at endpoint `ep` with latency
    /// `lat` (called at the attach router's partition, which also owns
    /// the endpoint).
    #[inline]
    pub fn latency(&mut self, ep: u32, lat: u64) {
        if self.latencies {
            let i = ep as usize;
            if self.lat_n[i] == 0 {
                self.lat_dirty.push(ep);
            }
            self.lat_n[i] += 1;
            self.lat_sum[i] += lat;
            self.lat_max[i] = self.lat_max[i].max(lat);
        }
    }

    /// Cycle-entry hook: flush any window whose end has passed (stamped
    /// with the window end, not the current cycle — see the module docs
    /// for why this is stepping-mode invariant), then sample queue depths
    /// if `now` is a stride boundary.
    pub(crate) fn begin_cycle(&mut self, now: u64, routers: &[RouterRt]) {
        if now >= self.next_sample {
            self.flush_windows();
            self.next_sample = (now / self.stride + 1) * self.stride;
        }
        if self.queues && now.is_multiple_of(self.stride) {
            for r in routers {
                let depth = r.buffered();
                if depth != 0 {
                    self.out.push(TraceRec::Queue {
                        cycle: now,
                        router: r.id,
                        depth,
                    });
                }
            }
        }
    }

    /// End-of-run hook: flush the final (possibly partial) window.
    pub fn finish(&mut self) {
        self.flush_windows();
    }

    fn flush_windows(&mut self) {
        let cycle = self.next_sample;
        for ch in self.link_dirty.drain(..) {
            let flits = std::mem::take(&mut self.link_win[ch as usize]);
            self.out.push(TraceRec::Link { cycle, ch, flits });
        }
        for ep in self.lat_dirty.drain(..) {
            let i = ep as usize;
            self.out.push(TraceRec::Lat {
                cycle,
                ep,
                n: std::mem::take(&mut self.lat_n[i]),
                sum: std::mem::take(&mut self.lat_sum[i]),
                max: std::mem::take(&mut self.lat_max[i]),
            });
        }
    }

    /// Move buffered records into `into` (the engine's serial barrier
    /// drain).
    pub fn drain_into(&mut self, into: &mut Vec<TraceRec>) {
        into.append(&mut self.out);
    }
}

/// Sort one drained batch into the canonical stream order.
pub fn canonicalize(batch: &mut [TraceRec]) {
    batch.sort_by_key(TraceRec::sort_key);
}

/// Handle for emitting trace batches. Cheap to clone; attach one to each
/// simulation of a run (and keep one for out-of-engine records like
/// epochs). Every clone appends to the same in-memory JSONL stream.
#[derive(Debug, Clone)]
pub struct Tracer {
    cfg: TraceConfig,
    jsonl: Arc<Mutex<String>>,
}

impl Tracer {
    /// A tracer over an empty stream.
    pub fn new(cfg: TraceConfig) -> Tracer {
        Tracer {
            cfg,
            jsonl: Arc::default(),
        }
    }

    /// The stream/stride configuration this tracer was created with.
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Append one canonicalized batch to the stream, one JSONL line per
    /// record. An empty batch appends nothing.
    pub fn emit(&self, batch: &[TraceRec]) {
        let mut out = self.jsonl.lock().expect("trace stream poisoned");
        for rec in batch {
            rec.write_line(&mut out);
            out.push('\n');
        }
    }

    /// Take the stream emitted so far through any clone, leaving it
    /// empty.
    pub fn take_jsonl(&self) -> String {
        std::mem::take(&mut *self.jsonl.lock().expect("trace stream poisoned"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_json_round_trip() {
        let v = Value::parse(r#"{"stride": 128, "streams": ["links", "queues"]}"#).unwrap();
        let cfg = TraceConfig::read(&v, "telemetry").unwrap();
        assert_eq!(cfg.stride, 128);
        assert!(cfg.links && cfg.queues);
        assert!(!cfg.latencies && !cfg.jobs && !cfg.epochs);
        let back = Value::parse(&crate::json::to_string(&cfg)).unwrap();
        assert_eq!(TraceConfig::read(&back, "telemetry").unwrap(), cfg);
    }

    #[test]
    fn config_defaults_enable_everything() {
        let v = Value::parse("{}").unwrap();
        let cfg = TraceConfig::read(&v, "telemetry").unwrap();
        assert_eq!(cfg, TraceConfig::default());
    }

    #[test]
    fn config_errors_carry_exact_paths() {
        let v = Value::parse(r#"{"stride": 0}"#).unwrap();
        assert_eq!(
            TraceConfig::read(&v, "telemetry").unwrap_err(),
            "telemetry.stride: expected positive integer"
        );
        let v = Value::parse(r#"{"streams": ["links", "bogus"]}"#).unwrap();
        assert_eq!(
            TraceConfig::read(&v, "telemetry").unwrap_err(),
            "telemetry.streams[1]: unknown stream \"bogus\""
        );
        let v = Value::parse(r#"{"cadence": 4}"#).unwrap();
        assert_eq!(
            TraceConfig::read(&v, "telemetry").unwrap_err(),
            "telemetry.cadence: unknown key"
        );
    }

    #[test]
    fn records_serialize_canonically() {
        let mut line = String::new();
        TraceRec::Link {
            cycle: 256,
            ch: 7,
            flits: 42,
        }
        .write_line(&mut line);
        assert_eq!(
            line,
            "{\"t\": \"link\", \"cycle\": 256, \"ch\": 7, \"flits\": 42}"
        );
        line.clear();
        TraceRec::Epoch {
            cycle: 0,
            epoch: 2,
            label: "f=0.10".into(),
        }
        .write_line(&mut line);
        assert_eq!(
            line,
            "{\"t\": \"epoch\", \"cycle\": 0, \"epoch\": 2, \"label\": \"f=0.10\"}"
        );
    }

    #[test]
    fn canonical_order_is_cycle_kind_id() {
        let mut batch = vec![
            TraceRec::Lat {
                cycle: 256,
                ep: 1,
                n: 1,
                sum: 9,
                max: 9,
            },
            TraceRec::Queue {
                cycle: 256,
                router: 3,
                depth: 2,
            },
            TraceRec::Link {
                cycle: 128,
                ch: 9,
                flits: 1,
            },
            TraceRec::Queue {
                cycle: 256,
                router: 1,
                depth: 5,
            },
        ];
        canonicalize(&mut batch);
        let keys: Vec<_> = batch.iter().map(TraceRec::sort_key).collect();
        assert_eq!(
            keys,
            vec![(128, 1, 9), (256, 0, 1), (256, 0, 3), (256, 2, 1)]
        );
    }

    #[test]
    fn part_trace_windows_flush_with_end_stamp() {
        let cfg = TraceConfig {
            stride: 100,
            ..TraceConfig::default()
        };
        let mut pt = PartTrace::new(&cfg, 4, 2);
        pt.begin_cycle(0, &[]);
        pt.link(2);
        pt.link(2);
        pt.latency(1, 50);
        // First executed cycle past the window end flushes it, stamped 100
        // even though the cycle is 240 (event-driven skip).
        pt.begin_cycle(240, &[]);
        pt.link(3);
        pt.finish();
        let mut got = Vec::new();
        pt.drain_into(&mut got);
        assert_eq!(
            got,
            vec![
                TraceRec::Link {
                    cycle: 100,
                    ch: 2,
                    flits: 2
                },
                TraceRec::Lat {
                    cycle: 100,
                    ep: 1,
                    n: 1,
                    sum: 50,
                    max: 50
                },
                TraceRec::Link {
                    cycle: 300,
                    ch: 3,
                    flits: 1
                },
            ]
        );
    }

    #[test]
    fn clones_share_one_stream_in_emit_order() {
        let tracer = Tracer::new(TraceConfig::default());
        let clone = tracer.clone();
        tracer.emit(&[]);
        assert_eq!(clone.take_jsonl(), "", "an empty batch writes nothing");
        tracer.emit(&[TraceRec::Queue {
            cycle: 0,
            router: 1,
            depth: 3,
        }]);
        clone.emit(&[
            TraceRec::Link {
                cycle: 256,
                ch: 0,
                flits: 10,
            },
            TraceRec::Epoch {
                cycle: 256,
                epoch: 1,
                label: "f=0.10".into(),
            },
        ]);
        assert_eq!(
            tracer.take_jsonl(),
            "{\"t\": \"queue\", \"cycle\": 0, \"router\": 1, \"depth\": 3}\n\
             {\"t\": \"link\", \"cycle\": 256, \"ch\": 0, \"flits\": 10}\n\
             {\"t\": \"epoch\", \"cycle\": 256, \"epoch\": 1, \"label\": \"f=0.10\"}\n"
        );
    }
}
