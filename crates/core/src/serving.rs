//! Multi-tenant serving runs on a [`Bench`], and their reports.
//!
//! [`Session::serving`](crate::Session::serving) materializes a
//! [`ServingSpec`] (seeded arrivals × class mix × placements) against the
//! bench's live endpoints, drives all jobs concurrently through
//! [`wsdf_workload::tenancy::MultiJobDriver`], then re-runs one instance
//! of each job class **alone** on the same fabric to obtain the
//! isolated-run interference baseline. The
//! [`ServingReport`] carries per-job completion records, job-CT
//! percentiles from a [`LatencyHistogram`], per-class slowdown vs. the
//! isolated baseline, Jain's fairness index over class throughputs, and
//! SLO-miss counts against per-class deadline budgets.

use crate::bench::{with_oracle, Bench};
use crate::json::{self, Json, Value};
use wsdf_exec::BspPool;
use wsdf_sim::{json_object, LatencyHistogram, SimConfig, Tracer};
use wsdf_workload::run_collective_traced_on;
use wsdf_workload::tenancy::{build_jobs, run_multi_job_traced_on, JobInstance, ServingSpec};

/// Completion record of one served job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobRecord {
    /// Job id (arrival order).
    pub id: u32,
    /// Class name (from the spec's mix).
    pub class: String,
    /// Arrival cycle.
    pub arrival: u64,
    /// Completion cycle (last message fully arrived).
    pub completion: u64,
    /// Job completion time, `completion - arrival`.
    pub ct: u64,
}

/// Aggregate interference metrics of one job class.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassStat {
    /// Class name.
    pub name: String,
    /// Jobs of this class served.
    pub jobs: u64,
    /// Total payload flits served for this class.
    pub flits: u64,
    /// Mean job completion time, cycles (NaN when no jobs).
    pub mean_ct: f64,
    /// Completion cycles of one instance run alone on the same fabric
    /// (0 when no jobs — no baseline to run).
    pub isolated_ct: u64,
    /// Interference slowdown: `mean_ct / isolated_ct` (NaN when no jobs).
    pub slowdown: f64,
    /// Class throughput over the run: flits per kilocycle of makespan.
    pub throughput_flits_per_kcycle: f64,
    /// Per-job deadline budget, cycles (0 = no SLO tracked).
    pub slo_cycles: u64,
    /// Jobs whose CT exceeded the budget (always 0 when `slo_cycles` is 0).
    pub slo_misses: u64,
}

/// Result of one multi-tenant serving run on one bench.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServingReport {
    /// Bench label (`SW-less`, `SW-based`, ...).
    pub label: String,
    /// Cycle the last job completed.
    pub makespan_cycles: u64,
    /// Median job completion time, cycles (NaN when no jobs).
    pub ct_p50: f64,
    /// 95th-percentile job CT, cycles.
    pub ct_p95: f64,
    /// 99th-percentile job CT, cycles.
    pub ct_p99: f64,
    /// Jain's fairness index over class throughputs, in (0, 1]
    /// (1 = perfectly fair; NaN when no class served any flits).
    pub fairness: f64,
    /// Job-CT histogram (the percentile source). Not serialized raw — it
    /// is rebuilt from the job records on parse, so JSON round-trips
    /// compare equal.
    pub ct_hist: LatencyHistogram,
    /// Per-job completion records, in job-id (arrival) order.
    pub jobs: Vec<JobRecord>,
    /// Per-class aggregates, in spec mix order.
    pub classes: Vec<ClassStat>,
    /// Cycles the engine actually stepped.
    pub busy_cycles: u64,
    /// Cycles fast-forwarded over by event-driven stepping.
    pub skipped_cycles: u64,
}

impl ServingReport {
    /// Assemble the report from a run's raw pieces. `isolated[c]` is the
    /// isolated-run completion of class `c` (0 when the class served no
    /// jobs); `class_meta` is `(name, slo_cycles)` in spec order.
    #[allow(clippy::too_many_arguments)]
    fn build(
        label: &str,
        jobs: &[JobInstance],
        completion: &[u64],
        class_meta: &[(String, u64)],
        isolated: &[u64],
        makespan: u64,
        busy_cycles: u64,
        skipped_cycles: u64,
    ) -> Self {
        let mut hist = LatencyHistogram::default();
        let records: Vec<JobRecord> = jobs
            .iter()
            .zip(completion)
            .map(|(j, &done)| {
                let ct = done - j.arrival;
                hist.record(ct);
                JobRecord {
                    id: j.id,
                    class: class_meta[j.class as usize].0.clone(),
                    arrival: j.arrival,
                    completion: done,
                    ct,
                }
            })
            .collect();
        let classes: Vec<ClassStat> = class_meta
            .iter()
            .enumerate()
            .map(|(ci, (name, slo))| {
                let mine: Vec<&JobRecord> = records
                    .iter()
                    .zip(jobs)
                    .filter(|(_, j)| j.class as usize == ci)
                    .map(|(r, _)| r)
                    .collect();
                let flits: u64 = jobs
                    .iter()
                    .filter(|j| j.class as usize == ci)
                    .map(|j| j.workload.total_flits())
                    .sum();
                let n = mine.len() as u64;
                let mean_ct = if n == 0 {
                    f64::NAN
                } else {
                    mine.iter().map(|r| r.ct as f64).sum::<f64>() / n as f64
                };
                let slowdown = if n == 0 || isolated[ci] == 0 {
                    f64::NAN
                } else {
                    mean_ct / isolated[ci] as f64
                };
                ClassStat {
                    name: name.clone(),
                    jobs: n,
                    flits,
                    mean_ct,
                    isolated_ct: isolated[ci],
                    slowdown,
                    throughput_flits_per_kcycle: flits as f64 * 1000.0 / makespan.max(1) as f64,
                    slo_cycles: *slo,
                    slo_misses: if *slo == 0 {
                        0
                    } else {
                        mine.iter().filter(|r| r.ct > *slo).count() as u64
                    },
                }
            })
            .collect();
        let pct = |q: Option<u64>| q.map(|v| v as f64).unwrap_or(f64::NAN);
        ServingReport {
            label: label.to_string(),
            makespan_cycles: makespan,
            ct_p50: pct(hist.p50()),
            ct_p95: pct(hist.p95()),
            ct_p99: pct(hist.p99()),
            fairness: jain_fairness(
                &classes
                    .iter()
                    .filter(|c| c.jobs > 0)
                    .map(|c| c.throughput_flits_per_kcycle)
                    .collect::<Vec<f64>>(),
            ),
            ct_hist: hist,
            jobs: records,
            classes,
            busy_cycles,
            skipped_cycles,
        }
    }

    /// Render as aligned text rows (harness output).
    pub fn render(&self) -> String {
        let mut s = format!(
            "  {:<14} {:>4} jobs  makespan {:>8} cycles  CT p50 {:.0} p95 {:.0} p99 {:.0}  \
             fairness {:.3}\n",
            self.label,
            self.jobs.len(),
            self.makespan_cycles,
            self.ct_p50,
            self.ct_p95,
            self.ct_p99,
            self.fairness,
        );
        for c in &self.classes {
            s.push_str(&format!(
                "    {:<16} {:>4} jobs  {:>9} flits  mean CT {:>8.0}  slowdown {:>6.2}x  \
                 SLO {:>6} miss {}\n",
                c.name, c.jobs, c.flits, c.mean_ct, c.slowdown, c.slo_cycles, c.slo_misses,
            ));
        }
        s
    }

    /// The report document, the digested text of `serving` scenarios.
    pub fn to_json(&self) -> String {
        json::to_block(self)
    }

    /// Parse a report previously written by [`to_json`](Self::to_json).
    ///
    /// Forward-compatible: missing numeric summaries parse as NaN,
    /// missing counters as 0, and missing `jobs`/`classes` arrays as
    /// empty. The CT histogram is rebuilt from the job records, so a
    /// round-trip compares equal.
    pub fn from_json(text: &str) -> Result<ServingReport, String> {
        let mut r = ServingReport::read(&Value::parse(text)?, "report")?;
        for j in &r.jobs {
            r.ct_hist.record(j.ct);
        }
        Ok(r)
    }
}

json_object!(JobRecord, JobRecord::default(); id, class, arrival, completion, ct);

json_object!(ClassStat, ClassStat {
        mean_ct: f64::NAN, slowdown: f64::NAN, throughput_flits_per_kcycle: f64::NAN,
        ..Default::default()
    };
    name, jobs, flits?, mean_ct?, isolated_ct?, slowdown?, throughput_flits_per_kcycle?,
    slo_cycles?, slo_misses?,
);

// `ct_hist` is not a member: `from_json` rebuilds it from the jobs.
json_object!(ServingReport, ServingReport {
        ct_p50: f64::NAN, ct_p95: f64::NAN, ct_p99: f64::NAN, fairness: f64::NAN,
        ..Default::default()
    };
    label, makespan_cycles?, busy_cycles?, skipped_cycles?, ct_p50?, ct_p95?, ct_p99?, fairness?,
    jobs?, classes?,
);

/// Jain's fairness index `(Σx)² / (n·Σx²)` over the given allocations —
/// 1 when all equal, → 1/n under total capture; NaN for an empty or
/// all-zero allocation vector.
pub fn jain_fairness(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if xs.is_empty() || sq == 0.0 {
        return f64::NAN;
    }
    sum * sum / (xs.len() as f64 * sq)
}

/// Run a serving spec on `bench` with an already-prepared config — the
/// core of the [`crate::Session`] serving run kind.
///
/// Materializes the jobs against the bench's live endpoints (so
/// placements avoid faulted regions), runs them all concurrently, then
/// runs one instance per served class in isolation for the interference
/// baseline. Dispatches on the bench's oracle enum once. Errors are
/// human-readable strings (spec materialization and engine failures
/// both).
///
/// Telemetry covers the *concurrent* run only — the per-class isolated
/// baselines are auxiliary reference simulations and stay untraced, so
/// the job stream in the trace corresponds one-to-one with the report's
/// job table.
pub(crate) fn run_serving_impl(
    bench: &Bench,
    cfg: &SimConfig,
    spec: &ServingSpec,
    pool: &BspPool,
    trace: Option<&Tracer>,
) -> Result<ServingReport, String> {
    let endpoints = bench.live_chips();
    let jobs = build_jobs(spec, &endpoints)?;
    let net = bench.fabric.net();
    let faults = bench.fault_map();
    let out = with_oracle!(&bench.oracle, |o| {
        run_multi_job_traced_on(net, cfg, o, &jobs, pool, faults, trace)
    })
    .map_err(|e| format!("serving run failed: {e}"))?;

    // Isolated baseline: the first instance of each served class, alone.
    let mut isolated = vec![0u64; spec.classes.len()];
    for (ci, slot) in isolated.iter_mut().enumerate() {
        let Some(job) = jobs.iter().find(|j| j.class as usize == ci) else {
            continue;
        };
        let iso = with_oracle!(&bench.oracle, |o| {
            run_collective_traced_on(net, cfg, o, &job.workload, pool, faults, None)
        })
        .map_err(|e| format!("isolated baseline failed: {e}"))?;
        *slot = iso.completion_cycles;
    }

    let class_meta: Vec<(String, u64)> = spec
        .classes
        .iter()
        .map(|c| (c.name.clone(), c.slo_cycles))
        .collect();
    let makespan = out.job_completion.iter().copied().max().unwrap_or(0);
    Ok(ServingReport::build(
        &bench.label,
        &jobs,
        &out.job_completion,
        &class_meta,
        &isolated,
        makespan,
        out.metrics.busy_cycles,
        out.metrics.skipped_cycles,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsdf_workload::tenancy::{ArrivalProcess, JobClass, Placement};

    fn mix() -> Vec<JobClass> {
        vec![
            JobClass {
                name: "train".into(),
                collective: "ring_allreduce".into(),
                flits: 16,
                microbatches: 1,
                participants: 4,
                placement: Placement::Block,
                slo_cycles: 100_000,
                weight: 1.0,
            },
            JobClass {
                name: "infer".into(),
                collective: "pipeline".into(),
                flits: 8,
                microbatches: 2,
                participants: 3,
                placement: Placement::Strided,
                slo_cycles: 1,
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
        ]
    }

    fn spec() -> ServingSpec {
        ServingSpec {
            seed: 11,
            arrivals: ArrivalProcess::Trace {
                cycles: (0..9).map(|k| k * 50).collect(),
            },
            max_jobs: 64,
            classes: mix(),
        }
    }

    #[test]
    fn serving_on_mesh_reports_all_sections() {
        let bench = Bench::single_mesh(4, 2, 1);
        let r = crate::session::Session::bench(&bench)
            .serving(&spec())
            .unwrap()
            .report;
        assert_eq!(r.jobs.len(), 9);
        assert_eq!(r.classes.len(), 3);
        assert_eq!(r.ct_hist.count(), 9);
        assert!(r.makespan_cycles > 0);
        assert!(r.ct_p50 > 0.0 && r.ct_p50 <= r.ct_p99);
        assert!(r.fairness > 0.0 && r.fairness <= 1.0);
        for c in &r.classes {
            if c.jobs > 0 {
                assert!(c.isolated_ct > 0, "{}: no isolated baseline", c.name);
                assert!(
                    c.slowdown >= 1.0 - 1e-9,
                    "{}: speedup under contention?",
                    c.name
                );
            }
        }
        // The 1-cycle SLO is unmeetable: every served infer job misses.
        let infer = r.classes.iter().find(|c| c.name == "infer").unwrap();
        assert_eq!(infer.slo_misses, infer.jobs);
        // The untracked class never misses.
        let shard = r.classes.iter().find(|c| c.name == "shard").unwrap();
        assert_eq!(shard.slo_misses, 0);
    }

    #[test]
    fn serving_report_json_roundtrip() {
        let bench = Bench::single_mesh(4, 2, 1);
        let r = crate::session::Session::bench(&bench)
            .serving(&spec())
            .unwrap()
            .report;
        let back = ServingReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn legacy_reports_parse_with_defaults() {
        // A minimal pre-serving-era file: no percentiles, no jobs, no
        // classes, no counters.
        let r = ServingReport::from_json("{\"label\": \"old\"}").unwrap();
        assert_eq!(r.label, "old");
        assert!(r.jobs.is_empty() && r.classes.is_empty());
        assert!(r.ct_p50.is_nan() && r.ct_p99.is_nan() && r.fairness.is_nan());
        assert_eq!(r.makespan_cycles, 0);
        assert!(r.ct_hist.is_empty());
    }

    #[test]
    fn unknown_report_keys_are_rejected_with_their_path() {
        assert_eq!(
            ServingReport::from_json("{\"label\": \"a\", \"extra\": 1}").unwrap_err(),
            "report.extra: unknown key"
        );
    }

    #[test]
    fn fairness_index_bounds() {
        assert!((jain_fairness(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((jain_fairness(&[1.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
        assert!(jain_fairness(&[]).is_nan());
        assert!(jain_fairness(&[0.0, 0.0]).is_nan());
    }
}
