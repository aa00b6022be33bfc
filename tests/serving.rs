//! Multi-tenant serving invariants: the full [`ServingReport`] — job
//! records, CT percentiles and histogram, per-class slowdowns, fairness,
//! SLO misses — is a property of the network and the spec, not of the
//! BSP execution schedule.
//!
//! The acceptance matrix: partitions {1, 2, 4} × workers {1, 4} ×
//! {event, dense} stepping × {contiguous blocks, locality} partition
//! maps, on both evaluated Dragonfly families. Within a stepping mode
//! every field must be bit-identical; across modes everything but the
//! busy/skipped cycle split must match (the split is the one metric the
//! fast-forward optimization is *supposed* to change — same contract as
//! `tests/event_equivalence.rs`).
//!
//! The arrival process gets its own property tests: keyed per-cycle
//! draws make the arrival set prefix-closed in the horizon (so
//! event-driven cycle skipping cannot change who arrives), and fixed
//! traces admit exactly their listed cycles.

mod common;

use std::sync::Arc;

use common::families;
use wsdf::exec::BspPool;
use wsdf::sim::{SimConfig, SplitMix64};
use wsdf::topo::locality_partition;
use wsdf::workload::tenancy::{ArrivalProcess, JobClass, Placement, ServingSpec};
use wsdf::{Bench, ServingReport, Session};

/// A small but genuinely concurrent mix: three classes, three placement
/// schemes, arrivals tight enough that jobs overlap in flight.
fn acceptance_spec() -> ServingSpec {
    ServingSpec {
        seed: 0xACCE_5511,
        arrivals: ArrivalProcess::Trace {
            cycles: (0..8).map(|k| k * 60).collect(),
        },
        max_jobs: 32,
        classes: vec![
            JobClass {
                name: "train".into(),
                collective: "ring_allreduce".into(),
                flits: 12,
                microbatches: 1,
                participants: 6,
                placement: Placement::Block,
                slo_cycles: 50_000,
                weight: 2.0,
            },
            JobClass {
                name: "infer".into(),
                collective: "pipeline".into(),
                flits: 6,
                microbatches: 2,
                participants: 3,
                placement: Placement::Strided,
                slo_cycles: 25_000,
                weight: 1.0,
            },
            JobClass {
                name: "shard".into(),
                collective: "all_to_all".into(),
                flits: 2,
                microbatches: 1,
                participants: 4,
                placement: Placement::Overlapping,
                slo_cycles: 0,
                weight: 1.0,
            },
        ],
    }
}

/// One cell of the matrix.
fn run_cell(
    bench: &Bench,
    spec: &ServingSpec,
    partitions: usize,
    workers: usize,
    event: bool,
    locality: bool,
) -> ServingReport {
    let mut cfg = SimConfig {
        partitions,
        event_driven: event,
        ..Default::default()
    };
    if locality {
        cfg.partition_map = Some(Arc::new(locality_partition(
            bench.fabric.net(),
            partitions,
            None,
        )));
    }
    let pool = BspPool::new(workers);
    Session::bench(bench)
        .sim(cfg)
        .pool(&pool)
        .serving(spec)
        .map(|o| o.report)
        .unwrap_or_else(|e| {
            panic!("P={partitions} W={workers} event={event} locality={locality}: {e}")
        })
}

/// The same report with the busy/skipped split zeroed — the only fields
/// event-driven stepping is allowed to change.
fn sans_stepping_split(r: &ServingReport) -> ServingReport {
    let mut r = r.clone();
    r.busy_cycles = 0;
    r.skipped_cycles = 0;
    r
}

/// The full acceptance matrix on both families.
#[test]
fn serving_reports_bit_identical_across_schedules() {
    let spec = acceptance_spec();
    for (name, bench) in families() {
        // Per-mode references at P=1, W=1, contiguous blocks.
        let base_event = run_cell(&bench, &spec, 1, 1, true, false);
        let base_dense = run_cell(&bench, &spec, 1, 1, false, false);

        // Sanity: the mix really runs — all 8 jobs, every class served.
        assert_eq!(base_event.jobs.len(), 8, "{name}");
        assert_eq!(base_event.classes.len(), 3, "{name}");
        assert!(base_event.classes.iter().all(|c| c.jobs > 0), "{name}");
        assert_eq!(base_event.ct_hist.count(), 8, "{name}");
        assert!(
            base_event.fairness > 0.0 && base_event.fairness <= 1.0,
            "{name}"
        );

        // Stepping modes agree on everything but the busy/skipped split,
        // and the split itself must tile the dense cycle count.
        assert_eq!(
            sans_stepping_split(&base_event),
            sans_stepping_split(&base_dense),
            "{name}: event vs dense"
        );
        assert_eq!(base_dense.skipped_cycles, 0, "{name}: dense must not skip");
        assert_eq!(
            base_event.busy_cycles + base_event.skipped_cycles,
            base_dense.busy_cycles,
            "{name}: busy + skipped accounting"
        );

        for partitions in [1usize, 2, 4] {
            for workers in [1usize, 4] {
                for event in [true, false] {
                    for locality in [false, true] {
                        let r = run_cell(&bench, &spec, partitions, workers, event, locality);
                        let base = if event { &base_event } else { &base_dense };
                        assert_eq!(
                            r, *base,
                            "{name}: P={partitions} W={workers} event={event} \
                             locality={locality} diverged"
                        );
                    }
                }
            }
        }
    }
}

/// Arrivals further apart than the watchdog window leave the fabric idle
/// but healthy in between: a promised arrival is a wait, not a deadlock.
/// Both stepping modes must serve every job and agree on everything but
/// the busy/skipped split.
#[test]
fn idle_gaps_between_arrivals_are_not_deadlocks() {
    let class = |collective: &str, participants: u32| JobClass {
        name: collective.into(),
        collective: collective.into(),
        flits: 10,
        microbatches: 1,
        participants,
        placement: Placement::Block,
        slo_cycles: 0,
        weight: 1.0,
    };
    // One mix per family, in `families()` order: switch-less, then
    // switch-based.
    let specs = [
        ServingSpec {
            arrivals: ArrivalProcess::Trace {
                cycles: vec![0, 6_000],
            },
            classes: vec![class("ring_allreduce", 6)],
            ..acceptance_spec()
        },
        ServingSpec {
            arrivals: ArrivalProcess::Poisson {
                rate_per_kcycle: 0.4,
                horizon: 20_000,
            },
            classes: vec![class("rd_allreduce", 4)],
            ..acceptance_spec()
        },
    ];
    for ((name, bench), spec) in families().iter().zip(&specs) {
        let event = run_cell(bench, spec, 1, 1, true, false);
        let dense = run_cell(bench, spec, 1, 1, false, false);
        let arrivals = spec.arrivals.cycles(spec.seed, spec.max_jobs);
        // Some arrival comes more than two watchdog windows after the
        // previous one (or after cycle 0), and no job runs anywhere near
        // a window, so the fabric sits idle past the window.
        let window = SimConfig::default().watchdog_cycles;
        let mut prev = 0;
        assert!(
            arrivals
                .iter()
                .any(|&a| a - std::mem::replace(&mut prev, a) > 2 * window),
            "{name}: the mix must idle past the watchdog window"
        );
        assert_eq!(event.jobs.len(), arrivals.len(), "{name}");
        assert_eq!(
            sans_stepping_split(&event),
            sans_stepping_split(&dense),
            "{name}: event vs dense"
        );
    }
}

/// Cases per arrival-process property (same harness style as
/// `tests/proptests.rs`: seeded SplitMix64 sampling, bit-reproducible).
const CASES: usize = 24;

/// Keyed per-cycle draws make Poisson arrivals prefix-closed in the
/// horizon: shortening the horizon never changes *which* cycles arrive
/// below it, so idle fast-forward (which never lands mid-horizon on a
/// skipped cycle) cannot perturb the process.
#[test]
fn poisson_arrivals_are_prefix_closed_in_horizon() {
    let mut rng = SplitMix64::new(0x5EED_0A01);
    for case in 0..CASES {
        let seed = rng.next_u64();
        let rate = (1 + rng.next_below(400)) as f64; // per kcycle
        let long = 500 + rng.next_below(4_000);
        let short = 1 + rng.next_below(long);
        let cap = u64::MAX; // no truncation: test the raw process
        let full = ArrivalProcess::Poisson {
            rate_per_kcycle: rate,
            horizon: long,
        }
        .cycles(seed, cap);
        let prefix = ArrivalProcess::Poisson {
            rate_per_kcycle: rate,
            horizon: short,
        }
        .cycles(seed, cap);
        let expected: Vec<u64> = full.iter().copied().filter(|&c| c < short).collect();
        assert_eq!(prefix, expected, "case {case}: seed {seed:#x} rate {rate}");
        // Arrivals are strictly increasing (≤ 1 per cycle) and in-horizon.
        assert!(full.windows(2).all(|w| w[0] < w[1]), "case {case}");
        assert!(full.iter().all(|&c| c < long), "case {case}");
    }
}

/// The `max_jobs` cap truncates the same stream rather than resampling:
/// capped arrivals are a prefix of the uncapped ones, with exact length.
#[test]
fn arrival_cap_truncates_the_same_stream() {
    let mut rng = SplitMix64::new(0x5EED_0A02);
    for case in 0..CASES {
        let seed = rng.next_u64();
        let p = ArrivalProcess::Poisson {
            rate_per_kcycle: 250.0,
            horizon: 2_000,
        };
        let full = p.cycles(seed, u64::MAX);
        let cap = rng.next_below(full.len() as u64 + 2);
        let capped = p.cycles(seed, cap);
        assert_eq!(
            capped.len() as u64,
            cap.min(full.len() as u64),
            "case {case}"
        );
        assert_eq!(capped[..], full[..capped.len()], "case {case}");
    }
}

/// Fixed traces admit exactly their listed cycles, sorted, regardless of
/// input order; the cap takes the first `max_jobs` *listed* arrivals.
#[test]
fn trace_arrivals_are_exact() {
    let mut rng = SplitMix64::new(0x5EED_0A03);
    for case in 0..CASES {
        let n = 1 + rng.next_below(40) as usize;
        let cycles: Vec<u64> = (0..n).map(|_| rng.next_below(10_000)).collect();
        let t = ArrivalProcess::Trace {
            cycles: cycles.clone(),
        };
        let all = t.cycles(rng.next_u64(), u64::MAX);
        let mut sorted = cycles.clone();
        sorted.sort_unstable();
        assert_eq!(all, sorted, "case {case}: trace must sort, not resample");
        let cap = 1 + rng.next_below(n as u64 + 3);
        let capped = t.cycles(0, cap);
        let mut expected: Vec<u64> = cycles.iter().copied().take(cap as usize).collect();
        expected.sort_unstable();
        assert_eq!(capped, expected, "case {case}: cap then sort");
    }
}
