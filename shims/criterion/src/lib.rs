//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no network access, so this workspace vendors
//! the subset of criterion's API that its benches use: `Criterion`,
//! benchmark groups with `sample_size`/`bench_function`/`bench_with_input`,
//! `Bencher::iter` and `Bencher::iter_batched`, `BenchmarkId`, and the
//! `criterion_group!`/`criterion_main!` macros.
//!
//! Measurement is deliberately simple — per benchmark: one warm-up
//! iteration, then up to `sample_size` timed iterations bounded by a
//! wall-clock budget, reporting the mean, the minimum, and the
//! p50/p95/p99 iteration-time percentiles (nearest-rank over the recorded
//! samples). Results print as a table; set `CRITERION_JSON=<path>` to also
//! write them as a JSON array (used to record `BENCH_*.json` baselines).

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Wall-clock budget per benchmark (after warm-up).
const TIME_BUDGET: Duration = Duration::from_secs(3);

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// `group/name` identifier.
    pub id: String,
    /// Timed iterations.
    pub iters: u64,
    /// Mean time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Fastest iteration, nanoseconds.
    pub min_ns: f64,
    /// Median iteration time, nanoseconds (nearest-rank).
    pub p50_ns: f64,
    /// 95th-percentile iteration time, nanoseconds (nearest-rank).
    pub p95_ns: f64,
    /// 99th-percentile iteration time, nanoseconds (nearest-rank).
    pub p99_ns: f64,
    /// Executor worker count the bench ran with
    /// ([`wsdf_exec::configured_threads`]) — recorded so baselines from
    /// different machines/thread pins stay comparable.
    pub threads: usize,
    /// Free-form per-bench metadata (e.g. `partitions`), set via
    /// [`BenchmarkGroup::meta`].
    pub meta: Vec<(String, String)>,
}

/// The benchmark driver: collects measurements across groups.
#[derive(Debug, Default)]
pub struct Criterion {
    results: Vec<Measurement>,
}

impl Criterion {
    /// Start a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.into(),
            samples: 10,
            meta: Vec::new(),
        }
    }

    /// Run a benchmark outside any group.
    pub fn bench_function<F>(&mut self, id: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let samples = 10;
        self.run_one(id.to_string(), samples, Vec::new(), f);
        self
    }

    fn run_one<F>(&mut self, id: String, samples: usize, meta: Vec<(String, String)>, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            samples: samples.max(1) as u64,
            iters: 0,
            total: Duration::ZERO,
            min: Duration::MAX,
            recorded: Vec::new(),
        };
        f(&mut b);
        let iters = b.iters.max(1);
        let mut sorted = std::mem::take(&mut b.recorded);
        sorted.sort_unstable();
        let pct = |q: f64| -> f64 {
            if sorted.is_empty() {
                return 0.0;
            }
            // Nearest-rank: the ⌈q·n⌉-th smallest sample (1-based).
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[rank - 1].as_nanos() as f64
        };
        let m = Measurement {
            id,
            iters: b.iters,
            mean_ns: b.total.as_nanos() as f64 / iters as f64,
            min_ns: if b.min == Duration::MAX {
                0.0
            } else {
                b.min.as_nanos() as f64
            },
            p50_ns: pct(0.50),
            p95_ns: pct(0.95),
            p99_ns: pct(0.99),
            threads: wsdf_exec::configured_threads(),
            meta,
        };
        let tags: String = m.meta.iter().map(|(k, v)| format!(" {k}={v}")).collect();
        println!(
            "{:<52} {:>12.0} ns/iter (min {:>12.0}, p50 {:>12.0}, p99 {:>12.0} ns, {} iters, \
             {} threads{})",
            m.id, m.mean_ns, m.min_ns, m.p50_ns, m.p99_ns, m.iters, m.threads, tags
        );
        self.results.push(m);
    }

    /// Print the summary and honor `CRITERION_JSON`. Called by
    /// `criterion_main!` after all groups ran.
    #[allow(clippy::disallowed_methods)] // the one CRITERION_JSON reader
    pub fn final_summary(&self) {
        if let Ok(path) = std::env::var("CRITERION_JSON") {
            let mut out = String::from("[\n");
            for (i, m) in self.results.iter().enumerate() {
                let meta: String = m
                    .meta
                    .iter()
                    .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
                    .collect::<Vec<_>>()
                    .join(", ");
                out.push_str(&format!(
                    "  {{\"id\": \"{}\", \"iters\": {}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \
                     \"p50_ns\": {:.1}, \"p95_ns\": {:.1}, \"p99_ns\": {:.1}, \
                     \"threads\": {}, \"meta\": {{{}}}}}{}\n",
                    json_escape(&m.id),
                    m.iters,
                    m.mean_ns,
                    m.min_ns,
                    m.p50_ns,
                    m.p95_ns,
                    m.p99_ns,
                    m.threads,
                    meta,
                    if i + 1 < self.results.len() { "," } else { "" }
                ));
            }
            out.push_str("]\n");
            if let Err(e) = std::fs::write(&path, out) {
                eprintln!("criterion shim: cannot write {path}: {e}");
            } else {
                eprintln!("criterion shim: wrote {path}");
            }
        }
    }
}

/// Escape a string for inclusion in a JSON string literal (quotes,
/// backslashes, and control characters — ids and meta values are
/// free-form `Display` output).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A named group of benchmarks sharing a sample-size setting and a set of
/// metadata tags.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
    samples: usize,
    meta: Vec<(String, String)>,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    /// Attach a metadata tag (e.g. `partitions`) to every *subsequent*
    /// benchmark in this group; setting an existing key overwrites it.
    /// Tags land in the printed table and the `meta` object of the
    /// `CRITERION_JSON` baseline, alongside the automatic `threads` field.
    pub fn meta(&mut self, key: impl Into<String>, value: impl Display) -> &mut Self {
        let key = key.into();
        let value = value.to_string();
        if let Some(slot) = self.meta.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.meta.push((key, value));
        }
        self
    }

    /// Run one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        self.c.run_one(full, self.samples, self.meta.clone(), f);
        self
    }

    /// Run one parameterized benchmark in this group.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.0);
        self.c
            .run_one(full, self.samples, self.meta.clone(), |b| f(b, input));
        self
    }

    /// End the group (accepted for API compatibility; nothing to flush).
    pub fn finish(self) {}
}

/// A benchmark identifier composed of a function name and a parameter.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `function/parameter` identifier.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        BenchmarkId(format!("{function}/{parameter}"))
    }

    /// Identifier from the parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

/// Passed to every benchmark closure; `iter` does the timing.
pub struct Bencher {
    samples: u64,
    iters: u64,
    total: Duration,
    min: Duration,
    recorded: Vec<Duration>,
}

impl Bencher {
    /// Time `f`: one warm-up call, then up to the configured sample count
    /// (bounded by a wall-clock budget). Every sample is kept so the shim
    /// can report iteration-time percentiles alongside mean/min.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        self.measure(|| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed()
        });
    }

    /// Time `routine` on a fresh input from `setup`, which runs before each
    /// call and outside the timed span; samples are taken as in
    /// [`iter`](Self::iter). Unlike criterion's, this takes no `BatchSize`:
    /// every sample is one setup and one timed call.
    pub fn iter_batched<I, R, S, F>(&mut self, mut setup: S, mut routine: F)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> R,
    {
        self.measure(|| {
            let input = setup();
            let t0 = Instant::now();
            std::hint::black_box(routine(input));
            t0.elapsed()
        });
    }

    /// One warm-up `sample`, then the timed ones; `sample` returns the
    /// time it measured.
    fn measure(&mut self, mut sample: impl FnMut() -> Duration) {
        sample();
        let budget_start = Instant::now();
        self.recorded.reserve(self.samples as usize);
        for _ in 0..self.samples {
            let dt = sample();
            self.total += dt;
            self.min = self.min.min(dt);
            self.recorded.push(dt);
            self.iters += 1;
            if budget_start.elapsed() > TIME_BUDGET {
                break;
            }
        }
    }
}

/// Bundle benchmark functions into a group runner, mirroring criterion.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Produce a `main` that runs the given groups and prints the summary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $($group(&mut c);)+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_measure_and_record() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(3);
            g.bench_function("noop", |b| b.iter(|| 1 + 1));
            g.bench_with_input(BenchmarkId::new("param", 4), &4, |b, &x| b.iter(|| x * 2));
            g.finish();
        }
        assert_eq!(c.results.len(), 2);
        assert_eq!(c.results[0].id, "g/noop");
        assert_eq!(c.results[1].id, "g/param/4");
        assert!(c.results.iter().all(|m| m.iters >= 1));
        assert!(c.results.iter().all(|m| m.threads >= 1));
    }

    #[test]
    fn meta_tags_attach_to_subsequent_benches_and_overwrite() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(1);
            g.bench_function("untagged", |b| b.iter(|| 0));
            g.meta("partitions", 4);
            g.bench_function("p4", |b| b.iter(|| 0));
            g.meta("partitions", 8);
            g.bench_function("p8", |b| b.iter(|| 0));
            g.finish();
        }
        assert!(c.results[0].meta.is_empty());
        assert_eq!(
            c.results[1].meta,
            vec![("partitions".to_string(), "4".to_string())]
        );
        assert_eq!(
            c.results[2].meta,
            vec![("partitions".to_string(), "8".to_string())]
        );
    }

    #[test]
    fn iteration_percentiles_are_ordered() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(8);
            g.bench_function("work", |b| {
                b.iter(|| std::hint::black_box((0..1000u64).sum::<u64>()))
            });
            g.finish();
        }
        let m = &c.results[0];
        assert!(m.min_ns <= m.p50_ns, "{} > {}", m.min_ns, m.p50_ns);
        assert!(m.p50_ns <= m.p95_ns && m.p95_ns <= m.p99_ns);
    }

    #[test]
    fn iter_batched_times_the_routine_not_the_setup() {
        let mut c = Criterion::default();
        let mut setups = 0;
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(4);
            g.bench_function("batched", |b| {
                b.iter_batched(
                    || {
                        setups += 1;
                        std::thread::sleep(Duration::from_millis(20));
                        setups
                    },
                    |n| assert!(n >= 1),
                )
            });
            g.finish();
        }
        let m = &c.results[0];
        assert_eq!(setups, m.iters + 1, "one setup per sample and the warm-up");
        assert!(m.p99_ns < 10e6, "setup was timed: p99 {} ns", m.p99_ns);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 3).0, "f/3");
        assert_eq!(BenchmarkId::from_parameter("x").0, "x");
    }

    #[test]
    fn json_escape_covers_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("C:\\tmp"), "C:\\\\tmp");
        assert_eq!(json_escape("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
