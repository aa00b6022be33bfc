//! Multi-tenant serving: many independent jobs sharing one fabric.
//!
//! A *job* is one collective workload instance (a training allreduce, an
//! inference pipeline, an all-to-all shard, ...) arriving at a seeded
//! cycle and placed onto a subset of the fabric's endpoints. The
//! [`MultiJobDriver`] multiplexes every admitted job's DAG frontier into
//! the engine through the ordinary [`WorkloadDriver`] hook, so a serving
//! run rides `run_closed_loop_on` unchanged and inherits its bit-identity
//! guarantee across partitions × workers × stepping modes.
//!
//! Determinism contract:
//!
//! * **Arrivals** are a pure function of `(seed, cycle)`: the Poisson-like
//!   process draws one keyed Bernoulli per cycle via
//!   [`SplitMix64::for_event`], so skipping idle cycles cannot change the
//!   arrival sequence, and a longer horizon extends the sequence without
//!   rewriting its prefix. Fixed-trace arrivals are taken verbatim.
//! * **Class and placement** of job `k` are keyed draws on `k`, never on
//!   simulation state.
//! * **Admission** happens in `pre_cycle` — the engine's merged-state
//!   barrier hook — at exactly the job's arrival cycle: the driver's
//!   [`WorkloadDriver::next_release`] reports the next arrival, so
//!   event-driven fast-forward can never skip past it.
//! * **Message ids** partition the tag space as
//!   `job id | intra-job id | seq` ([`crate::message::job_packet_id`]),
//!   keeping concurrent jobs' reassembly state disjoint.

use crate::collective::{check_budget, read_collective, Rows, Workload};
use crate::driver::ROOTS;
use crate::message::{
    job_msg_of, job_of, job_packet_id, segments, Reassembly, MAX_JOBS, MAX_JOB_MESSAGES,
};
use std::collections::{BTreeSet, HashMap};
use wsdf_exec::BspPool;
use wsdf_sim::json::{read, Json, ObjectWriter, Value};
use wsdf_sim::json_names;
use wsdf_sim::{
    Arrival, FaultMap, Injector, Metrics, NetworkDesc, RouteOracle, SimConfig, SimResult,
    Simulation, SplitMix64, TraceRec, Tracer, WorkloadDriver,
};

/// Keyed-stream salt for arrival draws (one Bernoulli per cycle).
const ARRIVAL_STREAM: u64 = 0x7E4A_4C1D_0001;
/// Keyed-stream salt for per-job class selection.
const CLASS_STREAM: u64 = 0x7E4A_4C1D_0002;
/// Keyed-stream salt for per-job overlapping-placement sampling.
const PLACEMENT_STREAM: u64 = 0x7E4A_4C1D_0003;

/// How job arrival cycles are generated.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson-like seeded process: at most one arrival per cycle, each
    /// cycle an independent keyed Bernoulli with probability
    /// `rate_per_kcycle / 1000` (so the mean inter-arrival gap is
    /// `1000 / rate_per_kcycle` cycles). Rate must lie in `(0, 1000]`.
    Poisson {
        /// Expected arrivals per 1000 cycles, in `(0, 1000]`.
        rate_per_kcycle: f64,
        /// Cycles `0..horizon` are eligible for arrivals.
        horizon: u64,
    },
    /// Fixed arrival trace: exactly these cycles, one job each (sorted
    /// ascending at build; duplicates allowed — two jobs may arrive on
    /// the same cycle).
    Trace {
        /// Arrival cycle per job.
        cycles: Vec<u64>,
    },
}

impl ArrivalProcess {
    /// Materialize the arrival cycles, capped at `max_jobs`, sorted
    /// ascending. Pure in `(self, seed)` — see the module determinism
    /// contract.
    pub fn cycles(&self, seed: u64, max_jobs: u64) -> Vec<u64> {
        match self {
            ArrivalProcess::Poisson {
                rate_per_kcycle,
                horizon,
            } => {
                let p = rate_per_kcycle / 1000.0;
                let mut out = Vec::new();
                for c in 0..*horizon {
                    if out.len() as u64 >= max_jobs {
                        break;
                    }
                    if SplitMix64::for_event(seed, ARRIVAL_STREAM, c).chance(p) {
                        out.push(c);
                    }
                }
                out
            }
            ArrivalProcess::Trace { cycles } => {
                let mut out: Vec<u64> = cycles.iter().copied().take(max_jobs as usize).collect();
                out.sort_unstable();
                out
            }
        }
    }
}

/// `{"process": "poisson", "rate_per_kcycle", "horizon"}` (rate 1 and
/// horizon 10000 by default) or `{"process": "trace", "cycles": [..]}`
/// (at least one cycle); each rejects the other's members.
impl Json for ArrivalProcess {
    fn write(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out, None);
        match self {
            ArrivalProcess::Poisson {
                rate_per_kcycle,
                horizon,
            } => {
                obj.tag("process", "poisson");
                obj.member("rate_per_kcycle", rate_per_kcycle);
                obj.member("horizon", horizon);
            }
            ArrivalProcess::Trace { cycles } => {
                obj.tag("process", "trace");
                obj.member("cycles", cycles);
            }
        }
        obj.end();
    }

    fn read(v: &Value, path: &str) -> Result<Self, String> {
        read::check_keys(
            v,
            path,
            &["process", "rate_per_kcycle", "horizon", "cycles"],
        )?;
        if read::tag(v, path, "process", &["poisson", "trace"])? == "poisson" {
            read::only(v, path, &["cycles"], "trace arrivals take")?;
            let rate_per_kcycle = read::or(v, path, "rate_per_kcycle", 1.0)?;
            if !(rate_per_kcycle > 0.0 && rate_per_kcycle <= 1000.0) {
                return Err(format!(
                    "{path}.rate_per_kcycle: expected number in (0, 1000]"
                ));
            }
            let horizon = read::or(v, path, "horizon", 10_000)?;
            if horizon == 0 {
                return Err(format!("{path}.horizon: must be at least 1"));
            }
            Ok(ArrivalProcess::Poisson {
                rate_per_kcycle,
                horizon,
            })
        } else {
            let poisson = ["rate_per_kcycle", "horizon"];
            read::only(v, path, &poisson, "poisson arrivals take")?;
            let cycles: Vec<u64> = read::field(v, path, "cycles")?;
            if cycles.is_empty() {
                return Err(format!(
                    "{path}.cycles: expected at least one arrival cycle"
                ));
            }
            Ok(ArrivalProcess::Trace { cycles })
        }
    }
}

/// How a job's participants are laid out over the live endpoint list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Contiguous run of endpoints starting at
    /// `(job index × participants) mod n` — consecutive jobs occupy
    /// disjoint blocks until the list wraps.
    Block,
    /// Every `⌊n / participants⌋`-th endpoint, offset by the job index —
    /// spreads one job across the fabric, interleaving jobs.
    Strided,
    /// A seeded random sample without replacement — jobs overlap and may
    /// oversubscribe hot endpoints.
    Overlapping,
}

json_names!(Placement; Block = "block", Strided = "strided", Overlapping = "overlapping");

impl Placement {
    /// Resolve the endpoint set of job `job_index` with `participants`
    /// members out of `endpoints` (the live endpoint list, in id order).
    /// Deterministic in `(self, seed, job_index)`; `participants` must
    /// not exceed `endpoints.len()`.
    pub fn resolve(
        &self,
        seed: u64,
        job_index: u64,
        participants: usize,
        endpoints: &[u32],
    ) -> Vec<u32> {
        let n = endpoints.len();
        assert!(participants <= n, "placement wider than the fabric");
        match self {
            Placement::Block => {
                let start = (job_index as usize * participants) % n;
                (0..participants)
                    .map(|i| endpoints[(start + i) % n])
                    .collect()
            }
            Placement::Strided => {
                let stride = (n / participants).max(1);
                let offset = job_index as usize % stride;
                (0..participants)
                    .map(|i| endpoints[(offset + i * stride) % n])
                    .collect()
            }
            Placement::Overlapping => {
                // Partial Fisher–Yates over the index range `0..n`, keyed
                // by job. Slot `x` of the shuffled range holds `moved[x]`,
                // or `x` while no swap has touched it, so a draw costs
                // O(participants) whatever `n`. Step `i` swaps slot `i`
                // with a slot `j ≥ i` and never touches slot `i` again.
                let mut rng = SplitMix64::for_agent(seed ^ PLACEMENT_STREAM, job_index);
                let mut moved: HashMap<usize, usize> = HashMap::with_capacity(participants);
                let mut picked: Vec<u32> = (0..participants)
                    .map(|i| {
                        let j = i + rng.next_below((n - i) as u64) as usize;
                        let at_i = moved.remove(&i).unwrap_or(i);
                        let at_j = if j == i {
                            at_i
                        } else {
                            moved.insert(j, at_i).unwrap_or(j)
                        };
                        endpoints[at_j]
                    })
                    .collect();
                picked.sort_unstable();
                picked
            }
        }
    }
}

/// One job class of a serving mix: what arrives, how wide, where it
/// lands, and its deadline budget.
#[derive(Debug, Clone, PartialEq)]
pub struct JobClass {
    /// Class label (report rows key on it).
    pub name: String,
    /// Collective builder name, one of [`crate::COLLECTIVES`].
    pub collective: String,
    /// Payload flits (per participant/pair/activation — whatever the
    /// builder takes).
    pub flits: u64,
    /// Microbatch count (pipeline builder only; 1 otherwise).
    pub microbatches: u32,
    /// Endpoints per job instance.
    pub participants: u32,
    /// Placement policy for this class's instances.
    pub placement: Placement,
    /// Completion-time deadline in cycles (0 = no SLO tracked).
    pub slo_cycles: u64,
    /// Relative arrival weight among classes (> 0).
    pub weight: f64,
}

/// Every field explicit, with `microbatches` only for a pipeline. Read
/// with `placement` block, `slo_cycles` 0 and `weight` 1 by default; the
/// collective members as [`read_collective`] reads them.
impl Json for JobClass {
    fn write(&self, out: &mut String) {
        let pipeline = self.collective == "pipeline";
        let mut obj = ObjectWriter::new(out, None);
        obj.member("name", &self.name);
        obj.member("collective", &self.collective);
        obj.member("flits", &self.flits);
        obj.member("microbatches", &pipeline.then_some(self.microbatches));
        obj.member("participants", &self.participants);
        obj.member("placement", &self.placement);
        obj.member("slo_cycles", &self.slo_cycles);
        obj.member("weight", &self.weight);
        obj.end();
    }

    fn read(v: &Value, path: &str) -> Result<Self, String> {
        read::check_keys(
            v,
            path,
            &[
                "name",
                "collective",
                "flits",
                "microbatches",
                "participants",
                "placement",
                "slo_cycles",
                "weight",
            ],
        )?;
        let name: String = read::field(v, path, "name")?;
        if name.is_empty() {
            return Err(format!("{path}.name: must not be empty"));
        }
        let (collective, flits, microbatches) = read_collective(v, path)?;
        let participants: u64 = read::field(v, path, "participants")?;
        let participants = u32::try_from(participants)
            .ok()
            .filter(|&p| p >= 2)
            .ok_or_else(|| format!("{path}.participants: must be at least 2"))?;
        let placement = read::or(v, path, "placement", Placement::Block)?;
        let weight = read::above(v, path, "weight", 1.0, 0.0)?;
        Ok(JobClass {
            name,
            collective,
            flits,
            microbatches,
            participants,
            placement,
            slo_cycles: read::or(v, path, "slo_cycles", 0)?,
            weight,
        })
    }
}

/// A full serving workload: arrival process plus job-class mix.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingSpec {
    /// Seed of every keyed draw (arrivals, class mix, placements) —
    /// independent of the engine's `SimConfig::seed`.
    pub seed: u64,
    /// When jobs arrive.
    pub arrivals: ArrivalProcess,
    /// Hard cap on spawned jobs (also bounds Poisson tails).
    pub max_jobs: u64,
    /// The class mix (non-empty; weights > 0).
    pub classes: Vec<JobClass>,
}

/// One materialized job: a workload instance with an arrival cycle and a
/// resolved endpoint set.
#[derive(Debug, Clone)]
pub struct JobInstance {
    /// Job id (dense, arrival order; the tag-space job field).
    pub id: u32,
    /// Index into [`ServingSpec::classes`].
    pub class: u32,
    /// Cycle the job arrives (its DAG roots become eligible here).
    pub arrival: u64,
    /// Resolved participant endpoints.
    pub endpoints: Vec<u32>,
    /// The job's message DAG.
    pub workload: Workload,
}

/// Materialize a [`ServingSpec`] against the live endpoint list: draw the
/// arrival cycles, assign a class to each job by weighted keyed draw, and
/// resolve each job's placement. Every job is sized in closed form before
/// any DAG is built: one over [`MAX_JOB_MESSAGES`], or a job set over
/// [`MESSAGE_BUDGET`](crate::collective::MESSAGE_BUDGET) in all, fails
/// without allocating it. Errors are human-readable and stable (the
/// scenario frontend forwards them verbatim).
pub fn build_jobs(spec: &ServingSpec, endpoints: &[u32]) -> Result<Vec<JobInstance>, String> {
    if spec.classes.is_empty() {
        return Err("serving spec has no job classes".into());
    }
    if spec.max_jobs == 0 || spec.max_jobs > MAX_JOBS {
        return Err(format!("max_jobs must be in 1..={MAX_JOBS}"));
    }
    let total_weight: f64 = spec.classes.iter().map(|c| c.weight).sum();
    // NaN-safe: a NaN weight must fail this gate, not flow into the draw.
    if total_weight.is_nan() || total_weight <= 0.0 {
        return Err("class weights must sum to a positive number".into());
    }
    let arrivals = spec.arrivals.cycles(spec.seed, spec.max_jobs);
    if arrivals.is_empty() {
        return Err(
            "no job arrivals (raise rate_per_kcycle or horizon, or give a non-empty trace)".into(),
        );
    }
    let mut drawn = Vec::with_capacity(arrivals.len());
    let mut total = 0u64;
    for k in 0..arrivals.len() {
        // Weighted class draw, keyed on the job index.
        let mut x =
            SplitMix64::for_agent(spec.seed ^ CLASS_STREAM, k as u64).next_f64() * total_weight;
        let mut ci = spec.classes.len() - 1;
        for (i, c) in spec.classes.iter().enumerate() {
            if x < c.weight {
                ci = i;
                break;
            }
            x -= c.weight;
        }
        let class = &spec.classes[ci];
        let p = class.participants as usize;
        if p < 2 {
            return Err(format!(
                "class \"{}\": needs at least 2 participants",
                class.name
            ));
        }
        if p > endpoints.len() {
            return Err(format!(
                "class \"{}\": {} participants exceed the {} usable endpoints",
                class.name,
                p,
                endpoints.len()
            ));
        }
        let messages = Workload::collective_len(&class.collective, p, class.microbatches)
            .map_err(|e| format!("class \"{}\": {e}", class.name))?;
        if messages > MAX_JOB_MESSAGES {
            return Err(format!(
                "class \"{}\": {messages} messages exceed the per-job limit {MAX_JOB_MESSAGES}",
                class.name
            ));
        }
        total += messages;
        drawn.push(ci);
    }
    check_budget(total).map_err(|e| format!("serving mix of {} jobs: {e}", drawn.len()))?;
    let mut jobs = Vec::with_capacity(arrivals.len());
    for (k, (&arrival, ci)) in arrivals.iter().zip(drawn).enumerate() {
        let class = &spec.classes[ci];
        let p = class.participants as usize;
        let ids = class.placement.resolve(spec.seed, k as u64, p, endpoints);
        let workload =
            Workload::collective(&class.collective, &ids, class.flits, class.microbatches)
                .map_err(|e| format!("class \"{}\": {e}", class.name))?;
        jobs.push(JobInstance {
            id: k as u32,
            class: ci as u32,
            arrival,
            endpoints: ids,
            workload,
        });
    }
    Ok(jobs)
}

/// Result of one multi-job serving run.
#[derive(Debug, Clone)]
pub struct MultiJobOutcome {
    /// Completion cycle per job, in job-id order (the cycle the job's
    /// last message fully arrived).
    pub job_completion: Vec<u64>,
    /// Engine metrics over the whole run.
    pub metrics: Metrics,
}

/// Scheduler state of one admitted job.
struct JobState {
    /// Outstanding predecessor count per message.
    waiting: Vec<u32>,
    succs: Rows,
    reasm: Reassembly,
    /// Latest message-completion cycle seen (the job CT once all land).
    last_done: u64,
    completed: usize,
}

/// Multi-job closed-loop scheduler; implements the engine's
/// [`WorkloadDriver`] hook over every admitted job at once.
///
/// Jobs are admitted at their arrival cycle inside `pre_cycle` (the
/// merged-state barrier hook); each job's frontier then releases exactly
/// as [`crate::driver::ClosedLoop`] would, with packet ids in the job's
/// slice of the tag space.
pub struct MultiJobDriver<'a> {
    jobs: &'a [JobInstance],
    packet_len: u8,
    /// Jobs `0..next_admit` are admitted (jobs are in arrival order).
    next_admit: usize,
    states: Vec<Option<JobState>>,
    /// Eligible-but-not-yet-submitted messages, ordered by
    /// (eligible cycle, job id, message id) — the deterministic
    /// submission order across all admitted jobs. A job's roots are one
    /// [`ROOTS`] entry at its arrival cycle, where it has no other entry.
    ready: BTreeSet<(u64, u32, u32)>,
    /// Completion cycle per job (`u64::MAX` = not yet complete).
    job_completion: Vec<u64>,
    jobs_done: usize,
    /// Telemetry buffer for job admit/retire records; `None` (the
    /// default) records nothing. Armed by [`Self::record_trace`] when a
    /// run traces the `jobs` stream.
    trace_buf: Option<Vec<TraceRec>>,
}

impl<'a> MultiJobDriver<'a> {
    /// Driver over `jobs` (must be sorted by arrival cycle — as
    /// [`build_jobs`] returns them), segmenting into packets of at most
    /// `packet_len` flits.
    pub fn new(jobs: &'a [JobInstance], packet_len: u8) -> Self {
        assert!(
            jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "jobs must be sorted by arrival cycle"
        );
        assert!(
            jobs.len() as u64 <= MAX_JOBS,
            "too many jobs for the tag space"
        );
        MultiJobDriver {
            jobs,
            packet_len,
            next_admit: 0,
            states: (0..jobs.len()).map(|_| None).collect(),
            ready: BTreeSet::new(),
            job_completion: vec![u64::MAX; jobs.len()],
            jobs_done: 0,
            trace_buf: None,
        }
    }

    /// Arm job-lifecycle telemetry: buffer an `admit` record at every
    /// admission and a `retire` record at every completion, handed to the
    /// engine through [`WorkloadDriver::drain_trace`]. Records are pure
    /// functions of the (deterministic) arrival/completion schedule, so
    /// the trace stream stays digest-stable.
    pub fn record_trace(&mut self) {
        self.trace_buf = Some(Vec::new());
    }

    /// Jobs fully completed so far.
    pub fn jobs_done(&self) -> usize {
        self.jobs_done
    }

    /// Admit every job whose arrival cycle has come: build its scheduler
    /// state and queue its DAG roots at the arrival cycle.
    fn admit_until(&mut self, now: u64) {
        while self.next_admit < self.jobs.len() && self.jobs[self.next_admit].arrival <= now {
            let j = self.next_admit;
            let job = &self.jobs[j];
            let wl = &job.workload;
            let waiting: Vec<u32> = wl.pred_counts().collect();
            if waiting.contains(&0) {
                self.ready.insert((job.arrival, j as u32, ROOTS));
            }
            self.states[j] = Some(JobState {
                waiting,
                succs: wl.successors(),
                reasm: Reassembly::new(wl.messages().iter().map(|m| m.flits)),
                last_done: 0,
                completed: 0,
            });
            if let Some(buf) = &mut self.trace_buf {
                // Admission happens exactly at the arrival cycle (the
                // engine's fast-forward never hops past `next_release`),
                // so the arrival is also the record's stream position.
                buf.push(TraceRec::Admit {
                    cycle: job.arrival,
                    job: j as u32,
                    class: job.class,
                });
            }
            self.next_admit += 1;
        }
    }

    /// Queue every packet of message `m` of job `j` at its source.
    fn submit(&self, j: u32, m: u32, inj: &mut Injector<'_>) {
        let msg = self.jobs[j as usize].workload.messages()[m as usize];
        for (seq, len) in segments(msg.flits, self.packet_len) {
            inj.submit(msg.src, msg.dst, job_packet_id(j, m, seq), len);
        }
    }

    /// Consume the driver into a [`MultiJobOutcome`] (call after the
    /// engine reached quiescence).
    pub fn into_outcome(self, metrics: Metrics) -> MultiJobOutcome {
        assert_eq!(
            self.jobs_done,
            self.jobs.len(),
            "outcome of an unfinished run"
        );
        MultiJobOutcome {
            job_completion: self.job_completion,
            metrics,
        }
    }
}

impl WorkloadDriver for MultiJobDriver<'_> {
    fn pre_cycle(&mut self, now: u64, inj: &mut Injector<'_>) {
        self.admit_until(now);
        while let Some(&(at, j, m)) = self.ready.iter().next() {
            if at > now {
                break;
            }
            self.ready.remove(&(at, j, m));
            if m != ROOTS {
                self.submit(j, m, inj);
                continue;
            }
            let st = self.states[j as usize]
                .as_ref()
                .expect("roots of an unadmitted job");
            for r in 0..st.waiting.len() as u32 {
                if st.waiting[r as usize] == 0 {
                    self.submit(j, r, inj);
                }
            }
        }
    }

    fn on_arrivals(&mut self, now: u64, arrivals: &[Arrival]) {
        for a in arrivals {
            let (j, m) = (job_of(a.id), job_msg_of(a.id));
            let st = self.states[j as usize]
                .as_mut()
                .expect("arrival for an unadmitted job");
            let Some(done_at) = st.reasm.on_packet(m, a.flits, a.arrive) else {
                continue;
            };
            st.completed += 1;
            st.last_done = st.last_done.max(done_at);
            for &s in st.succs.row(m) {
                let w = &mut st.waiting[s as usize];
                *w -= 1;
                if *w == 0 {
                    // Eligible the cycle after its last dependency landed.
                    self.ready.insert((done_at + 1, j, s));
                }
            }
            if st.completed == self.jobs[j as usize].workload.len() {
                self.job_completion[j as usize] = st.last_done;
                self.jobs_done += 1;
                if let Some(buf) = &mut self.trace_buf {
                    // Stamped at the detection cycle (`now`) to keep the
                    // stream cycle-monotonic; `done` carries the actual
                    // completion cycle, which may trail `now` by up to one
                    // ejection-channel latency (see `Arrival`).
                    buf.push(TraceRec::Retire {
                        cycle: now,
                        job: j,
                        done: st.last_done,
                    });
                }
            }
        }
    }

    fn done(&self) -> bool {
        self.next_admit == self.jobs.len() && self.jobs_done == self.jobs.len()
    }

    fn next_release(&self) -> Option<u64> {
        // Next frontier release or next un-admitted arrival, whichever is
        // sooner — so event-driven fast-forward can never hop over an
        // admission cycle.
        let frontier = self.ready.iter().next().map_or(u64::MAX, |&(at, ..)| at);
        let arrival = self
            .jobs
            .get(self.next_admit)
            .map_or(u64::MAX, |job| job.arrival);
        Some(frontier.min(arrival))
    }

    fn drain_trace(&mut self, out: &mut Vec<TraceRec>) {
        if let Some(buf) = &mut self.trace_buf {
            out.append(buf);
        }
    }
}

/// Run a materialized job set to quiescence on `net` with `oracle`, on an
/// explicit executor. `None` faults is the pristine path; `Some` arms the
/// engine's dead-channel asserts (placements must already avoid dead
/// endpoints — [`build_jobs`] resolves against the live list). When
/// `trace` is `Some`, the engine streams link/queue/latency records and,
/// when the tracer's `jobs` stream is on, the driver adds admit/retire
/// records.
pub fn run_multi_job_traced_on<O: RouteOracle>(
    net: &NetworkDesc,
    cfg: &SimConfig,
    oracle: O,
    jobs: &[JobInstance],
    pool: &BspPool,
    faults: Option<&FaultMap>,
    trace: Option<&Tracer>,
) -> SimResult<MultiJobOutcome> {
    for job in jobs {
        job.workload
            .validate(net.num_endpoints() as u32)
            .map_err(wsdf_sim::SimError::Invalid)?;
    }
    let mut sim = Simulation::with_faults(net, cfg, oracle, faults)?;
    let mut driver = MultiJobDriver::new(jobs, cfg.packet_len);
    if let Some(t) = trace {
        sim.attach_trace(t);
        if t.config().jobs {
            driver.record_trace();
        }
    }
    let metrics = sim.run_closed_loop_on(pool, &mut driver)?;
    Ok(driver.into_outcome(metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(arrivals: ArrivalProcess) -> ServingSpec {
        ServingSpec {
            seed: 7,
            arrivals,
            max_jobs: 64,
            classes: vec![
                JobClass {
                    name: "train".into(),
                    collective: "ring_allreduce".into(),
                    flits: 8,
                    microbatches: 1,
                    participants: 4,
                    placement: Placement::Block,
                    slo_cycles: 0,
                    weight: 2.0,
                },
                JobClass {
                    name: "infer".into(),
                    collective: "pipeline".into(),
                    flits: 4,
                    microbatches: 2,
                    participants: 3,
                    placement: Placement::Overlapping,
                    slo_cycles: 500,
                    weight: 1.0,
                },
            ],
        }
    }

    #[test]
    fn poisson_arrivals_are_a_pure_prefix_closed_function_of_seed() {
        let short = ArrivalProcess::Poisson {
            rate_per_kcycle: 50.0,
            horizon: 2_000,
        };
        let long = ArrivalProcess::Poisson {
            rate_per_kcycle: 50.0,
            horizon: 10_000,
        };
        let a = short.cycles(42, u64::MAX);
        let b = long.cycles(42, u64::MAX);
        assert!(!a.is_empty(), "rate 50/kcycle over 2k cycles should arrive");
        assert_eq!(&b[..a.len()], &a[..], "longer horizon rewrote the prefix");
        assert!(b.len() > a.len(), "longer horizon added no arrivals");
        // Different seed, different sequence.
        assert_ne!(short.cycles(43, u64::MAX), a);
        // The cap truncates without re-drawing.
        assert_eq!(short.cycles(42, 3), a[..3].to_vec());
    }

    #[test]
    fn trace_arrivals_are_sorted_verbatim() {
        let t = ArrivalProcess::Trace {
            cycles: vec![30, 10, 10, 250],
        };
        assert_eq!(t.cycles(99, u64::MAX), vec![10, 10, 30, 250]);
        assert_eq!(t.cycles(99, 2), vec![10, 30]);
    }

    #[test]
    fn placements_are_deterministic_and_in_bounds() {
        let eps: Vec<u32> = (0..16).map(|i| i * 3).collect();
        for placement in [Placement::Block, Placement::Strided, Placement::Overlapping] {
            for k in 0..8u64 {
                let a = placement.resolve(5, k, 4, &eps);
                let b = placement.resolve(5, k, 4, &eps);
                assert_eq!(a, b, "{placement:?} job {k} not deterministic");
                assert_eq!(a.len(), 4);
                let set: BTreeSet<u32> = a.iter().copied().collect();
                assert_eq!(set.len(), 4, "{placement:?} job {k} repeats an endpoint");
                assert!(a.iter().all(|e| eps.contains(e)));
            }
        }
        // Block placements of consecutive jobs are disjoint until wrap.
        let b0 = Placement::Block.resolve(5, 0, 4, &eps);
        let b1 = Placement::Block.resolve(5, 1, 4, &eps);
        assert!(b0.iter().all(|e| !b1.contains(e)));
    }

    #[test]
    fn build_jobs_materializes_every_arrival() {
        let s = spec(ArrivalProcess::Trace {
            cycles: (0..10).map(|k| k * 100).collect(),
        });
        let eps: Vec<u32> = (0..12).collect();
        let jobs = build_jobs(&s, &eps).expect("build");
        assert_eq!(jobs.len(), 10);
        for (k, job) in jobs.iter().enumerate() {
            assert_eq!(job.id as usize, k);
            assert_eq!(job.arrival, k as u64 * 100);
            assert!(!job.workload.is_empty());
        }
        // Both classes appear under the 2:1 mix over 10 draws.
        let classes: BTreeSet<u32> = jobs.iter().map(|j| j.class).collect();
        assert_eq!(classes.len(), 2, "weighted draw collapsed to one class");
    }

    #[test]
    fn build_jobs_reports_placement_overflow() {
        // Enough draws that the 4-wide class certainly appears (the
        // 10-draw mix test above pins that both classes occur at seed 7).
        let s = spec(ArrivalProcess::Trace {
            cycles: (0..10).collect(),
        });
        let err = build_jobs(&s, &[0, 1, 2]).unwrap_err();
        assert!(err.contains("exceed the 3 usable endpoints"), "{err}");
    }

    #[test]
    fn empty_specs_are_rejected() {
        let mut s = spec(ArrivalProcess::Trace { cycles: vec![] });
        let eps: Vec<u32> = (0..8).collect();
        assert!(build_jobs(&s, &eps)
            .unwrap_err()
            .contains("no job arrivals"));
        s.arrivals = ArrivalProcess::Trace { cycles: vec![0] };
        s.classes.clear();
        assert!(build_jobs(&s, &eps).unwrap_err().contains("no job classes"));
    }
}
