//! In-memory span recorder for the traced replay.
//!
//! A span is one timed call into a layer, made from the benchmark's own
//! code: a name, start and end (nanoseconds since the recorder was
//! created), the enclosing span, the workload and the simulation index.
//! Spans are kept in memory and written out as JSON lines when the run
//! ends. Everything runs on the calling thread, so spans nest strictly.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `sim.step`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Simulation index within the workload run, `None` outside one.
    pub sim: Option<u32>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder of one traced workload run.
pub struct Recorder {
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    sim: Option<u32>,
}

impl Recorder {
    /// Empty recorder; its epoch is now.
    pub fn new(workload: &'static str) -> Self {
        Recorder {
            workload,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            sim: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Simulation index stamped on spans opened from now on.
    pub fn set_sim(&mut self, sim: Option<u32>) {
        self.sim = sim;
    }

    /// Open a span under the innermost open span; returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            sim: self.sim,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Close every span still open (after an error unwinds the replay).
    pub fn close_all(&mut self) {
        while let Some(&id) = self.open.last() {
            self.exit(id);
        }
    }

    /// All spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the time its children
    /// cover. Children are checked not to overlap (see
    /// [`check_nesting`](Self::check_nesting)), so the covered time is
    /// the sum of their durations.
    pub fn self_times_ns(&self) -> Vec<i64> {
        let mut out: Vec<i64> = self.spans.iter().map(|s| s.dur_ns() as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.dur_ns() as i64;
            }
        }
        out
    }

    /// Summed self time of every span named `name`, in seconds.
    pub fn self_seconds(&self, name: &str) -> f64 {
        let st = self.self_times_ns();
        let ns: i64 = self
            .spans
            .iter()
            .zip(&st)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| t)
            .sum();
        ns as f64 * 1e-9
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Duration of the first span named `name`, in seconds.
    pub fn first_seconds(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
    }

    /// Check that every span is closed and lies inside its parent, that
    /// siblings do not overlap, and that no self time is negative.
    pub fn check_nesting(&self) -> Result<(), String> {
        if !self.open.is_empty() {
            return Err(format!("{} spans left open", self.open.len()));
        }
        let mut last_child_end: Vec<u64> = self.spans.iter().map(|s| s.start_ns).collect();
        let mut root_end = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            let prev_end = match s.parent {
                Some(p) => {
                    let ps = &self.spans[p];
                    if s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                        return Err(format!(
                            "span {i} ({}) is not inside its parent {p} ({})",
                            s.name, ps.name
                        ));
                    }
                    &mut last_child_end[p]
                }
                None => &mut root_end,
            };
            if s.start_ns < *prev_end {
                return Err(format!(
                    "span {i} ({}) overlaps its previous sibling",
                    s.name
                ));
            }
            *prev_end = s.end_ns;
        }
        if let Some((i, t)) = self
            .self_times_ns()
            .iter()
            .enumerate()
            .find(|(_, &t)| t < 0)
        {
            return Err(format!(
                "span {i} ({}) has negative self time {t} ns",
                self.spans[i].name
            ));
        }
        Ok(())
    }

    /// The spans as JSON lines, one object per span, with self time.
    pub fn to_jsonl(&self) -> String {
        let st = self.self_times_ns();
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(st).enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"workload\": \"{}\", \
                 \"sim\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}\n",
                s.name,
                self.workload,
                opt(s.sim.map(u64::from)),
                opt(s.parent.map(|p| p as u64)),
                s.start_ns,
                s.end_ns,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new("t");
        let root = r.enter("root");
        r.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.exit(root);
        r.check_nesting().unwrap();
        let st = r.self_times_ns();
        assert_eq!(st[0], r.spans()[0].dur_ns() as i64 - st[1] - st[2]);
        assert_eq!(r.count("child"), 2);
        assert!(r.self_seconds("child") >= 0.004);
    }

    #[test]
    fn unclosed_spans_fail_the_check() {
        let mut r = Recorder::new("t");
        r.enter("root");
        assert!(r.check_nesting().is_err());
        r.close_all();
        r.check_nesting().unwrap();
    }
}
