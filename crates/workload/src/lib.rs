//! # wsdf-workload — closed-loop collective workloads
//!
//! Everything below `wsdf-sim` answers *"what latency at what offered
//! rate?"* — open-loop questions. This crate asks the question ML fabrics
//! are actually judged on: **how many cycles does this operation take end
//! to end?** It layers three pieces on the flit engine:
//!
//! * [`message`] — the tag space: messages (src, dst, size in flits)
//!   segmented into engine packets, reassembled at the destination by
//!   counting tagged packet arrivals.
//! * [`collective::Workload`] — message dependency DAGs, with builders for
//!   ring / recursive-doubling allreduce, all-to-all, binomial
//!   broadcast/reduce, and pipeline-parallel schedules.
//! * [`driver`] — the closed-loop scheduler: eligible messages inject as
//!   fast as backpressure allows, dependencies release at reassembly, and
//!   the run ends at quiescence, yielding a [`WorkloadOutcome`] with
//!   completion cycles, per-phase timing, and the engine's full latency
//!   histogram.
//! * [`tenancy`] — multi-tenant serving: a seeded job arrival process
//!   spawning collective instances onto endpoint placements, multiplexed
//!   through one [`tenancy::MultiJobDriver`] sharing the fabric.
//!
//! Completion times are bit-identical for any BSP partition or worker
//! count — dependency release happens at the cycle barrier on merged
//! state, never mid-cycle.
//!
//! ```no_run
//! use wsdf_workload::{run_collective_traced_on, Workload};
//! use wsdf_sim::SimConfig;
//! # fn net() -> wsdf_sim::NetworkDesc { unimplemented!() }
//! # fn oracle() -> std::sync::Arc<dyn wsdf_sim::RouteOracle> { unimplemented!() }
//! let participants: Vec<u32> = (0..16).collect();
//! let wl = Workload::ring_allreduce(&participants, 256);
//! let (cfg, pool) = (SimConfig::default(), wsdf_exec::global_pool());
//! // No fault map, no telemetry.
//! let out = run_collective_traced_on(&net(), &cfg, oracle(), &wl, pool, None, None).unwrap();
//! println!("allreduce took {} cycles", out.completion_cycles);
//! ```

#![deny(missing_docs)]

pub mod collective;
pub mod driver;
pub mod message;
pub mod tenancy;

pub use collective::{read_collective, Message, Workload, COLLECTIVES, MESSAGE_BUDGET};
pub use driver::{run_collective_traced_on, ClosedLoop, PhaseStat, WorkloadOutcome};
pub use message::{packet_count, packet_id, segments, Reassembly};
pub use tenancy::{
    build_jobs, run_multi_job_traced_on, ArrivalProcess, JobClass, JobInstance, MultiJobDriver,
    MultiJobOutcome, Placement, ServingSpec,
};
