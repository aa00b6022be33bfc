//! The `repro collectives` target: closed-loop collective completion
//! times on both topology families.
//!
//! For every (fabric, collective) pair the suite runs the workload DAG to
//! quiescence at BSP partition counts {1, 2, 4} and *verifies the three
//! reports are bit-identical* — completion cycles, per-phase spans, and
//! the latency distribution — before emitting one report. A mismatch is a
//! determinism bug and panics. Participants are one node per chip (the
//! NPU-per-chip view of the paper's fabrics), so both families run the
//! same logical collectives over 32 chips of one W-group.

use crate::Effort;
use wsdf::routing::{RouteMode, VcScheme};
use wsdf::{Bench, Session, Workload, WorkloadReport, WorkloadUnits};
use wsdf_sim::SimConfig;
use wsdf_topo::{SlParams, SwParams};

/// Partition counts every collective is verified over.
pub const PARTITIONS: &[usize] = &[1, 2, 4];

/// Per-participant payload in flits for one [`Effort`] level.
fn data_flits(effort: Effort) -> u64 {
    match effort {
        Effort::Smoke => 32,
        Effort::Standard => 256,
        Effort::Full => 1024,
    }
}

/// The two evaluated fabrics at matching scale: one W-group (32 chips) of
/// the radix-16 switch-less configuration and one group (32 chips) of the
/// switch-based baseline. Shared with the resilience suite so both
/// degradation and collective numbers describe the same fabrics.
pub fn family_benches() -> Vec<Bench> {
    vec![
        Bench::switchless(
            &SlParams::radix16().with_wgroups(1),
            RouteMode::Minimal,
            VcScheme::Baseline,
        ),
        Bench::switchbased(&SwParams::radix16().with_groups(1), RouteMode::Minimal),
    ]
}

/// The collective set run on each fabric. Sizes are scaled so every
/// workload moves a comparable payload.
fn workloads(participants: &[u32], data: u64) -> Vec<Workload> {
    let stages: Vec<u32> = participants.iter().copied().step_by(4).collect();
    vec![
        Workload::ring_allreduce(participants, data),
        Workload::rd_allreduce(participants, (data / 4).max(4))
            .expect("chip count is a power of two"),
        Workload::all_to_all(participants, (data / 16).max(1)),
        Workload::broadcast(participants, data * 2),
        Workload::pipeline(&stages, 8, (data / 2).max(4)),
    ]
}

/// Run the full suite: each collective on each topology family, verified
/// bit-identical across [`PARTITIONS`], reported once.
///
/// # Panics
/// If any partition count changes any field of a report — that would be a
/// BSP determinism regression, not a measurement.
pub fn collectives(effort: Effort) -> Vec<WorkloadReport> {
    let data = data_flits(effort);
    let units = WorkloadUnits::default();
    let mut out = Vec::new();
    for bench in family_benches() {
        let participants = bench.live_chips();
        for wl in workloads(&participants, data) {
            let mut reports: Vec<WorkloadReport> = PARTITIONS
                .iter()
                .map(|&parts| {
                    let cfg = SimConfig {
                        partitions: parts,
                        ..Default::default()
                    };
                    Session::bench(&bench)
                        .sim(cfg)
                        .workload(&wl, &units)
                        .map(|o| o.report)
                        .unwrap_or_else(|e| {
                            panic!("[{} / {}] p={parts}: {e}", bench.label, wl.name)
                        })
                })
                .collect();
            let base = reports.remove(0);
            for (r, &parts) in reports.iter().zip(&PARTITIONS[1..]) {
                assert_eq!(
                    *r, base,
                    "[{} / {}] partitions={parts} diverged from partitions=1",
                    bench.label, wl.name
                );
            }
            out.push(base);
        }
    }
    out
}

/// Render [`collectives`] results as text.
pub fn render_collectives(reports: &[WorkloadReport]) -> String {
    let mut s = format!(
        "== collectives — closed-loop completion times (quiescence-terminated, \
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
    fn suite_covers_both_families_and_all_collectives() {
        let reports = collectives(Effort::Smoke);
        assert_eq!(reports.len(), 2 * 5);
        let labels: Vec<&str> = reports.iter().map(|r| r.label.as_str()).collect();
        assert!(labels.contains(&"SW-less"));
        assert!(labels.contains(&"SW-based"));
        for r in &reports {
            assert!(r.completion_cycles > 0, "{}/{}", r.label, r.workload);
            assert!(r.latency.count > 0, "{}/{}", r.label, r.workload);
        }
        // Round-trip every report through JSON.
        let json = crate::json_array(&reports, WorkloadReport::to_json);
        let arr = wsdf::json::Value::parse(&json).unwrap();
        assert_eq!(arr.as_arr().unwrap().len(), reports.len());
    }
}
