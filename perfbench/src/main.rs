//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable lines, then, as the last line of standard
//! output, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. Exits 1 when a check failed, 2 on bad usage.

use std::path::PathBuf;
use std::process::ExitCode;
use wsdf::sim::BspPool;
use wsdf_perfbench::runner::{self, Options, Report, PARTITIONS, WORKERS};
use wsdf_perfbench::sys::Manifest;
use wsdf_perfbench::workloads::{Size, Workload, DEFAULT_SEED, MAX_SEED};

const USAGE: &str = "usage: perfbench --workload <global_uniform|serving_mix|fault_sweep|all> \
[--seed N] [--seconds S] [--trace 0|1] [--spans DIR]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        spans: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workloads = match value.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload \"{name}\""))?],
                }
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .ok()
                    .filter(|&s| s < MAX_SEED)
                    .ok_or_else(|| format!("--seed: expected an integer below {MAX_SEED}"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds: expected a positive number")?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: expected 0 or 1".into()),
                }
            }
            "--spans" => args.spans = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// A finite number with all its digits (JSON has no NaN or infinity).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn result_json(reports: &[(Workload, Report)]) -> String {
    let prefix = reports.len() > 1;
    let mut metrics = Vec::new();
    for (w, r) in reports {
        for m in &r.metrics {
            let name = if prefix {
                format!("{}.{}", w.name(), m.name)
            } else {
                m.name.to_string()
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                num(m.value),
                m.unit
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        reports.iter().all(|(_, r)| r.correct),
        reports.iter().map(|(_, r)| r.attempted).sum::<u64>(),
        reports.iter().map(|(_, r)| r.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let pool = BspPool::new(WORKERS);
    let manifest = Manifest::collect(WORKERS, PARTITIONS);
    let mut reports = Vec::new();
    for &workload in &args.workloads {
        let o = Options {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            size: Size::Full,
        };
        let report = if args.trace {
            let r = runner::traced(&o, &pool, &manifest);
            let path =
                args.spans
                    .join(format!("spans-{}-seed{}.jsonl", workload.name(), args.seed));
            let written = std::fs::create_dir_all(&args.spans)
                .and_then(|()| std::fs::write(&path, &r.spans_jsonl));
            match written {
                Ok(()) => println!("  spans written to {}", path.display()),
                Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
            }
            r
        } else {
            runner::end_to_end(&o, &pool, &manifest)
        };
        reports.push((workload, report));
    }
    drop(pool);
    let json = result_json(&reports);
    println!("{json}");
    if reports.iter().all(|(_, r)| r.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
