//! # wsdf-sim — cycle-accurate flit-level network simulator
//!
//! This crate is the simulation substrate for the *Switch-Less Dragonfly on
//! Wafers* reproduction. The paper evaluates its architecture with CNSim, a
//! cycle-accurate packet-parallel simulator; no equivalent exists in the Rust
//! ecosystem, so this crate rebuilds one from scratch.
//!
//! The model is a classic input-queued virtual-channel (VC) router network:
//!
//! * **Flits** move over **channels** with configurable latency (cycles) and
//!   width (flits/cycle) — Table IV of the paper: 1-cycle short-reach links,
//!   8-cycle long-reach links, 1 flit/cycle base bandwidth, 4-flit packets.
//! * **Routers** have per-(port, VC) input buffers (32 flits by default),
//!   credit-based flow control, and a single-cycle pipeline of route
//!   computation → VC allocation → switch allocation → traversal, with
//!   round-robin separable allocators.
//! * **Endpoints** inject packets from unbounded source queues (so measured
//!   latency includes source queueing, the standard open-loop methodology)
//!   and eject flits at a bounded per-port rate.
//! * Routing is delegated to a [`RouteOracle`] implemented by downstream
//!   crates (`wsdf-routing`); traffic to a [`TrafficPattern`]
//!   (`wsdf-traffic`).
//! * Besides the open-loop schedule ([`Simulation::run`]), the engine has a
//!   **closed-loop** mode ([`Simulation::run_closed_loop`]): a
//!   [`WorkloadDriver`] injects packets between cycles, observes
//!   [`Arrival`] events at the BSP barrier, and the run ends at quiescence
//!   — the substrate of the `wsdf-workload` collective subsystem.
//! * A [`FaultMap`] ([`Simulation::with_faults`]) marks routers/channels
//!   dead: traversing a dead channel is a hard assert (a fault-aware
//!   oracle must detour — `wsdf-routing`'s `DetourOracle`), and automatic
//!   partition sizing counts live routers only.
//!
//! The engine runs either sequentially or as a BSP-parallel simulation on
//! the persistent [`wsdf_exec::BspPool`] executor, which keeps the hot
//! path free of locks: each partition exclusively owns its routers' state
//! and is pinned to the same pool worker for the whole run, and cross-
//! partition flit/credit transfer happens through double-buffered
//! per-(src, dst) mailboxes swapped at the cycle barrier. Determinism is
//! preserved in both modes and for any worker count (per-endpoint
//! counter-based RNG, fixed arbitration and delivery order).

#![deny(missing_docs)]

pub mod channel;
pub mod config;
pub mod engine;
pub mod fault;
pub mod flit;
pub mod json;
pub mod metrics;
pub mod network;
pub mod oracle;
pub mod pattern;
pub mod rng;
mod router;
pub mod telemetry;

pub use channel::{ChannelClass, ChannelDesc, ChannelId, Terminus};
pub use config::SimConfig;
pub use engine::{
    effective_partitions, simulate_traced_on, ExchangeEdge, Injector, SimError, SimResult,
    Simulation, WorkloadDriver,
};
pub use fault::FaultMap;
pub use flit::{Flit, FlitKind, PacketHeader};
pub use metrics::{ClassCounters, LatencyHistogram, Metrics};
pub use network::{EndpointDesc, NetworkDesc, RouterDesc, MAX_PORTS};
pub use oracle::{RouteChoice, RouteOracle};
pub use pattern::TrafficPattern;
pub use rng::SplitMix64;
pub use router::Arrival;
pub use telemetry::{TraceConfig, TraceRec, Tracer};
pub use wsdf_exec::{configured_threads, global_pool, BspPool};
