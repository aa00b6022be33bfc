//! The `repro serving` target: multi-tenant serving on both topology
//! families.
//!
//! Each family serves the same job mix — a dozen jobs of three classes
//! (training allreduce, inference pipeline, all-to-all shard) arriving on
//! a fixed trace onto block / strided / overlapping placements — at BSP
//! partition counts {1, 2, 4}, *verifying the three reports are
//! bit-identical* (job records, CT percentiles, slowdowns, fairness, SLO
//! misses) before emitting one. A faulted variant re-serves the mix on a
//! degraded switch-less fabric, exercising placement-over-live-endpoints
//! and the detour oracle under load. A mismatch is a determinism bug and
//! panics.

use crate::collectives::{family_benches, PARTITIONS};
use crate::Effort;
use wsdf::workload::tenancy::{ArrivalProcess, JobClass, Placement, ServingSpec};
use wsdf::{ServingReport, Session};
use wsdf_sim::SimConfig;
use wsdf_topo::{FaultSet, FaultSpec};

/// Jobs in the serving trace (≥ 8 concurrent jobs of 3 classes).
const TRACE_JOBS: u64 = 12;

/// Per-participant payload in flits for one [`Effort`] level.
fn data_flits(effort: Effort) -> u64 {
    match effort {
        Effort::Smoke => 16,
        Effort::Standard => 64,
        Effort::Full => 256,
    }
}

/// The serving job mix: three classes with distinct collectives,
/// placements and SLO budgets.
pub fn serving_mix(data: u64, slo: u64) -> Vec<JobClass> {
    vec![
        JobClass {
            name: "train-allreduce".into(),
            collective: "ring_allreduce".into(),
            flits: data,
            microbatches: 1,
            participants: 8,
            placement: Placement::Block,
            slo_cycles: slo,
            weight: 2.0,
        },
        JobClass {
            name: "infer-pipeline".into(),
            collective: "pipeline".into(),
            flits: (data / 2).max(4),
            microbatches: 4,
            participants: 4,
            placement: Placement::Strided,
            slo_cycles: slo / 2,
            weight: 1.0,
        },
        JobClass {
            name: "shard-alltoall".into(),
            collective: "all_to_all".into(),
            flits: (data / 8).max(1),
            microbatches: 1,
            participants: 4,
            placement: Placement::Overlapping,
            slo_cycles: 0,
            weight: 1.0,
        },
    ]
}

/// The serving spec run by the target: a tight fixed trace so the jobs
/// genuinely overlap in flight.
pub fn serving_spec(effort: Effort) -> ServingSpec {
    let data = data_flits(effort);
    ServingSpec {
        seed: 0x5E21,
        arrivals: ArrivalProcess::Trace {
            cycles: (0..TRACE_JOBS).map(|k| k * 200).collect(),
        },
        max_jobs: 64,
        // SLO near the expected contended CT, so misses are informative
        // rather than all-or-nothing.
        classes: serving_mix(data, 400 * data),
    }
}

/// Run the suite: the mix on both families plus a faulted switch-less
/// variant, each verified bit-identical across [`PARTITIONS`].
///
/// # Panics
/// If any partition count changes any field of a report — that would be a
/// BSP determinism regression, not a measurement.
pub fn serving(effort: Effort) -> Vec<ServingReport> {
    let spec = serving_spec(effort);
    let mut benches = family_benches();
    // Degraded-fabric-under-load variant: 2% link faults on the
    // switch-less family (deterministic sample, detour-routed).
    let fs = FaultSet::sample(benches[0].fabric.net(), &FaultSpec::links(0.02, 13));
    benches.push(benches[0].with_fault_set(&fs));
    let mut out = Vec::new();
    for (i, bench) in benches.iter().enumerate() {
        let mut reports: Vec<ServingReport> = PARTITIONS
            .iter()
            .map(|&parts| {
                let cfg = SimConfig {
                    partitions: parts,
                    ..Default::default()
                };
                Session::bench(bench)
                    .sim(cfg)
                    .serving(&spec)
                    .map(|o| o.report)
                    .unwrap_or_else(|e| panic!("[{}] p={parts}: {e}", bench.label))
            })
            .collect();
        let mut base = reports.remove(0);
        for (r, &parts) in reports.iter().zip(&PARTITIONS[1..]) {
            assert_eq!(
                *r, base,
                "[{}] partitions={parts} diverged from partitions=1",
                bench.label
            );
        }
        if i == benches.len() - 1 {
            base.label = format!("{} (2% faults)", base.label);
        }
        out.push(base);
    }
    out
}

/// Render [`serving`] results as text.
pub fn render_serving(reports: &[ServingReport]) -> String {
    let mut s = format!(
        "== serving — multi-tenant job mix ({TRACE_JOBS} jobs, 3 classes; \
         bit-identical over partitions {PARTITIONS:?}) ==\n"
    );
    for r in reports {
        s.push_str(&r.render());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_serves_the_mix_on_both_families_and_faulted() {
        let reports = serving(Effort::Smoke);
        assert_eq!(reports.len(), 3);
        let labels: Vec<&str> = reports.iter().map(|r| r.label.as_str()).collect();
        assert!(labels.contains(&"SW-less"));
        assert!(labels.contains(&"SW-based"));
        assert!(labels.iter().any(|l| l.contains("faults")));
        for r in &reports {
            assert_eq!(r.jobs.len() as u64, TRACE_JOBS, "{}", r.label);
            assert_eq!(r.classes.len(), 3, "{}", r.label);
            assert!(r.classes.iter().all(|c| c.jobs > 0), "{}", r.label);
            assert!(r.makespan_cycles > 0, "{}", r.label);
            assert!(r.fairness > 0.0 && r.fairness <= 1.0, "{}", r.label);
            // Round-trip through JSON, histogram included.
            let back = ServingReport::from_json(&r.to_json()).unwrap();
            assert_eq!(&back, r, "{}", r.label);
        }
        let json = crate::json_array(&reports, ServingReport::to_json);
        let arr = wsdf::json::Value::parse(&json).unwrap();
        assert_eq!(arr.as_arr().unwrap().len(), reports.len());
    }
}
