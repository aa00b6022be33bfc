//! Closed-loop collective invariants: completion times are a property of
//! the network, not of the BSP execution schedule.
//!
//! The acceptance bar for the workload subsystem: allreduce and
//! all-to-all completion cycles (and every other report field) must be
//! bit-identical across partition counts {1, 2, 4} *and* worker counts
//! {1, 2, 4} on both evaluated topology families, with every run
//! terminating at quiescence rather than a fixed cycle budget.

mod common;

use std::sync::Arc;

use common::families;
use wsdf::exec::BspPool;
use wsdf::sim::SimConfig;
use wsdf::topo::contiguous_blocks;
use wsdf::{Bench, Session, Workload, WorkloadReport, WorkloadUnits};

fn run_workload(bench: &Bench, cfg: SimConfig, wl: &Workload) -> WorkloadReport {
    Session::bench(bench)
        .sim(cfg)
        .workload(wl, &WorkloadUnits::default())
        .unwrap()
        .report
}

/// One participant per chip, in chip order (32 chips on both fabrics).
fn chip_participants(bench: &Bench) -> Vec<u32> {
    (0..bench.scope.num_chips())
        .map(|c| bench.scope.node_of(c, 0))
        .collect()
}

fn acceptance_workloads(participants: &[u32]) -> Vec<Workload> {
    vec![
        Workload::ring_allreduce(participants, 64),
        Workload::all_to_all(participants, 4),
    ]
}

fn cfg(partitions: usize) -> SimConfig {
    SimConfig {
        partitions,
        ..Default::default()
    }
}

/// Allreduce + all-to-all completion cycles (and the full report) are
/// bit-identical across partitions {1, 2, 4}, under the default locality
/// map and under contiguous blocks, on both topology families.
#[test]
fn collective_reports_bit_identical_across_partitions() {
    for (name, bench) in families() {
        let participants = chip_participants(&bench);
        for wl in acceptance_workloads(&participants) {
            let run = |cfg: SimConfig| -> WorkloadReport { run_workload(&bench, cfg, &wl) };
            let base = run(cfg(1));
            assert!(base.completion_cycles > 0, "{name}/{}", wl.name);
            assert_eq!(base.flits, wl.total_flits());
            for parts in [2usize, 4] {
                let blocks = contiguous_blocks(bench.fabric.net(), parts);
                for (scheme, map) in [("locality", None), ("blocks", Some(Arc::new(blocks)))] {
                    let r = run(SimConfig {
                        partition_map: map,
                        ..cfg(parts)
                    });
                    assert_eq!(
                        r, base,
                        "{name}/{} partitions={parts} map={scheme}",
                        wl.name
                    );
                }
            }
        }
    }
}

/// The executor is invisible too: explicit pools of 1, 2, and 4 workers
/// reproduce the same reports at a fixed partitioning.
#[test]
fn collective_reports_bit_identical_across_workers() {
    for (name, bench) in families() {
        let participants = chip_participants(&bench);
        let wl = Workload::ring_allreduce(&participants, 32);
        let run = |workers: usize| -> WorkloadReport {
            let pool = BspPool::new(workers);
            Session::bench(&bench)
                .sim(cfg(4))
                .pool(&pool)
                .workload(&wl, &WorkloadUnits::default())
                .unwrap()
                .report
        };
        let base = run(1);
        for workers in [2usize, 4] {
            assert_eq!(run(workers), base, "{name} workers={workers}");
        }
    }
}

/// Quiescence semantics: the run ends when the collective does — no fixed
/// cycle budget — and the whole run is measured.
#[test]
fn collective_runs_end_at_quiescence() {
    for (_, bench) in families() {
        let participants = chip_participants(&bench);
        let wl = Workload::broadcast(&participants, 32);
        let r = run_workload(&bench, cfg(1), &wl);
        // Every packet is a latency sample (32-flit messages segment into
        // 8 packets of 4 flits); completion bounds every sample.
        assert_eq!(r.latency.count, r.messages * 8);
        assert!(r.latency.max <= r.completion_cycles as f64);
        // Phases tile the run: the last phase ends at completion.
        let end = r.phases.iter().map(|p| p.end_cycle).max().unwrap();
        assert_eq!(end, r.completion_cycles);
    }
}

/// Dependency semantics on a real fabric: a pipeline's stage boundaries
/// start strictly later the deeper the stage, and ring-allreduce's
/// allgather cannot begin before some reduce-scatter chain finishes.
#[test]
fn phase_ordering_follows_dependencies() {
    let bench = &families()[0].1;
    let participants = chip_participants(bench);

    let stages: Vec<u32> = participants.iter().copied().take(6).collect();
    let pipe = Workload::pipeline(&stages, 4, 16);
    let r = run_workload(bench, cfg(1), &pipe);
    for w in r.phases.windows(2) {
        assert!(
            w[1].start_cycle > w[0].start_cycle,
            "stage fill must ramp: {:?}",
            r.phases
        );
    }

    let ar = Workload::ring_allreduce(&participants, 64);
    let r = run_workload(bench, cfg(1), &ar);
    let rs = &r.phases[0];
    let ag = &r.phases[1];
    assert!(ag.start_cycle > rs.start_cycle);
    assert_eq!(ag.end_cycle, r.completion_cycles);
}
