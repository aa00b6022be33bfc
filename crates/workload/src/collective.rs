//! Collective workloads as message dependency DAGs.
//!
//! A [`Workload`] is a list of [`Message`]s plus, per message, the set of
//! predecessor messages that must *fully arrive* (every flit reassembled at
//! the destination) before it may be injected. The closed-loop driver
//! releases messages as their dependencies complete, so the schedule is
//! data-driven exactly like a real collective implementation: step `s+1`
//! of a ring allreduce cannot leave a node before step `s`'s chunk has
//! been received and reduced.
//!
//! Builders for the standard collectives are provided — ring and
//! recursive-doubling **allreduce**, staggered **all-to-all**, binomial
//! **broadcast**/**reduce**, and a multi-stage **pipeline** — and arbitrary
//! DAGs can be assembled with [`Workload::push`]. Messages carry a *phase*
//! tag (e.g. reduce-scatter vs allgather) so reports can attribute time
//! and bandwidth per phase.
//!
//! Storage is compressed rows ([`Rows`]): the predecessor lists of all
//! messages are one offsets array and one ids array, and
//! [`Workload::successors`] inverts them the same way in one counting
//! pass. A built DAG holds 32 bytes per message — the 24-byte [`Message`],
//! its 4-byte row offset and, since no builder gives a message more than
//! one predecessor on average, one 4-byte predecessor id — in a fixed
//! number of allocations: building, validating and admitting a DAG never
//! allocates per message. The builders size those arrays up front from
//! [`Workload::collective_len`]'s closed forms, and no workload may exceed
//! [`MESSAGE_BUDGET`] messages.

use crate::message::{packet_count, MAX_PACKETS_PER_MESSAGE};
use wsdf_sim::json::{read, Json, Value};
use wsdf_sim::json_object;

/// Most messages one run may hold, over all of its jobs: 2^22 =
/// 4,194,304. At 32 bytes per built message (see the module docs) a DAG
/// at the budget takes 128 MiB; validation adds 16 bytes per message while
/// it runs (successor offsets and ids, waiting counts, the frontier) and a
/// closed-loop driver keeps about 36 (successor rows, waiting count,
/// reassembly counters, completion cycle), so a run at the budget stays
/// under 300 MiB of workload state. It admits a ring allreduce over every
/// chip of a full radix-16 fabric (2 · 1311 · 1312 = 3,437,664 messages),
/// and message ids fit `u32` with room to spare.
pub const MESSAGE_BUDGET: u64 = 1 << 22;

/// `Err` when `messages` exceed [`MESSAGE_BUDGET`].
pub(crate) fn check_budget(messages: u64) -> Result<(), String> {
    if messages > MESSAGE_BUDGET {
        return Err(format!(
            "{messages} messages exceed the message budget ({MESSAGE_BUDGET})"
        ));
    }
    Ok(())
}

/// One point-to-point message of a collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Source endpoint.
    pub src: u32,
    /// Destination endpoint.
    pub dst: u32,
    /// Payload size in flits.
    pub flits: u64,
    /// Index into [`Workload::phases`].
    pub phase: u32,
}

/// Lists of ids in compressed rows: row `r` is `ids[start[r]..start[r + 1]]`,
/// so any number of rows lives in two allocations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rows {
    start: Vec<u32>,
    ids: Vec<u32>,
}

impl Rows {
    /// No rows, with room for `rows` rows of `ids` ids in all.
    fn with_capacity(rows: usize, ids: usize) -> Rows {
        let mut start = Vec::with_capacity(rows + 1);
        start.push(0);
        Rows {
            start,
            ids: Vec::with_capacity(ids),
        }
    }

    /// Append a row.
    fn push(&mut self, row: &[u32]) {
        self.ids.extend_from_slice(row);
        let end = u32::try_from(self.ids.len()).expect("rows hold more than u32::MAX ids");
        self.start.push(end);
    }

    /// Row `r`.
    pub fn row(&self, r: u32) -> &[u32] {
        let r = r as usize;
        &self.ids[self.start[r] as usize..self.start[r + 1] as usize]
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The length of every row, in row order.
    fn lens(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.start.windows(2).map(|w| w[1] - w[0])
    }

    /// The transpose over `cols` columns: row `c` lists, ascending, every
    /// row that holds `c`. One pass counts the rows' lengths and a second
    /// fills them, O(rows + cols + ids).
    ///
    /// # Panics
    /// If an id is not below `cols`.
    fn transpose(&self, cols: usize) -> Rows {
        let mut start = vec![0u32; cols + 1];
        for &c in &self.ids {
            start[c as usize + 1] += 1;
        }
        for c in 0..cols {
            start[c + 1] += start[c];
        }
        // `start[c]` walks row `c` as it fills, ending where row `c + 1`
        // starts; one shift by a row puts every start back.
        let mut ids = vec![0u32; self.ids.len()];
        for r in 0..self.len() as u32 {
            for &c in self.row(r) {
                let at = &mut start[c as usize];
                ids[*at as usize] = r;
                *at += 1;
            }
        }
        start.copy_within(0..cols, 1);
        start[0] = 0;
        Rows { start, ids }
    }
}

/// Messages and predecessor edges of collective `kind` over `p`
/// participants, in closed form (`microbatches` counts for `pipeline`
/// only). Products saturate, so an absurd size reads as over the budget.
fn shape(kind: &str, p: u64, microbatches: u64) -> Result<(u64, u64), String> {
    let links = p.saturating_sub(1);
    Ok(match kind {
        // 2(p − 1) steps of p messages; every step after the first
        // depends on the one before.
        "ring_allreduce" => {
            let messages = links.saturating_mul(p).saturating_mul(2);
            (messages, messages.saturating_sub(p))
        }
        "rd_allreduce" => {
            if p < 2 || !p.is_power_of_two() {
                return Err(format!(
                    "recursive doubling needs a power-of-two participant count, got {p}"
                ));
            }
            let messages = u64::from(p.trailing_zeros()) * p;
            (messages, messages - p)
        }
        "all_to_all" => (p.saturating_mul(links), 0),
        // A binomial tree: one message per non-root participant, and each
        // feeds the next round, except the ⌈log2 p⌉ the root sends (or
        // receives) itself.
        "broadcast" | "reduce" => {
            let rounds = u64::from(p.max(1).next_power_of_two().trailing_zeros());
            (links, links.saturating_sub(rounds))
        }
        // Every link but the first waits on the one before, per microbatch.
        "pipeline" => (
            links.saturating_mul(microbatches),
            p.saturating_sub(2).saturating_mul(microbatches),
        ),
        other => return Err(format!("unknown collective \"{other}\"")),
    })
}

/// A dependency-aware collective workload (a message DAG).
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Human-readable workload name ("ring-allreduce", ...).
    pub name: String,
    /// Phase labels, indexed by [`Message::phase`].
    pub phases: Vec<String>,
    msgs: Vec<Message>,
    /// Row `m` holds the predecessors of message `m` (indices into `msgs`).
    preds: Rows,
}

impl Workload {
    /// An empty workload (assemble with [`push`](Self::push)).
    pub fn new(name: impl Into<String>) -> Self {
        Workload::with_capacity(name.into(), 0, 0)
    }

    /// An empty workload with room for `messages` messages and `edges`
    /// predecessor ids.
    fn with_capacity(name: String, messages: usize, edges: usize) -> Self {
        Workload {
            name,
            phases: Vec::new(),
            msgs: Vec::with_capacity(messages),
            preds: Rows::with_capacity(messages, edges),
        }
    }

    /// An empty workload named `name`, sized for collective `kind` over
    /// `p` participants.
    ///
    /// # Panics
    /// If the collective exceeds [`MESSAGE_BUDGET`].
    fn sized(name: &str, kind: &str, p: usize, microbatches: u32) -> Self {
        let (messages, edges) =
            shape(kind, p as u64, microbatches.into()).unwrap_or_else(|e| panic!("{e}"));
        if let Err(e) = check_budget(messages) {
            panic!("{name}: {e}");
        }
        Workload::with_capacity(name.into(), messages as usize, edges as usize)
    }

    /// Add (or find) a phase label, returning its index.
    pub fn phase(&mut self, label: impl Into<String>) -> u32 {
        let label = label.into();
        if let Some(i) = self.phases.iter().position(|p| *p == label) {
            return i as u32;
        }
        self.phases.push(label);
        (self.phases.len() - 1) as u32
    }

    /// Append a message with explicit predecessors; returns its id.
    ///
    /// # Panics
    /// If the workload already holds `u32::MAX + 1` messages.
    pub fn push(&mut self, msg: Message, preds: &[u32]) -> u32 {
        let id = u32::try_from(self.msgs.len()).expect("message ids exceed u32");
        self.msgs.push(msg);
        self.preds.push(preds);
        id
    }

    /// The messages, in id order.
    pub fn messages(&self) -> &[Message] {
        &self.msgs
    }

    /// Predecessor ids of message `m`, in the order they were pushed.
    pub fn preds(&self, m: u32) -> &[u32] {
        self.preds.row(m)
    }

    /// Predecessor count of every message, in id order.
    pub(crate) fn pred_counts(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.preds.lens()
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// True if the workload has no messages.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Total payload over all messages, in flits.
    pub fn total_flits(&self) -> u64 {
        self.msgs.iter().map(|m| m.flits).sum()
    }

    /// Structural validation: at most [`MESSAGE_BUDGET`] messages,
    /// endpoint ids in range, no self-messages, no zero-length messages,
    /// tag space not exceeded, dependencies in range and acyclic (so the
    /// closed-loop run is guaranteed to make progress). Allocates the
    /// same handful of arrays whatever the workload's size.
    pub fn validate(&self, endpoints: u32) -> Result<(), String> {
        let n = self.msgs.len();
        check_budget(n as u64)?;
        for (i, m) in self.msgs.iter().enumerate() {
            if m.src >= endpoints || m.dst >= endpoints {
                return Err(format!(
                    "message {i}: {} -> {} out of range ({endpoints} endpoints)",
                    m.src, m.dst
                ));
            }
            if m.src == m.dst {
                return Err(format!("message {i}: self-message at endpoint {}", m.src));
            }
            if m.flits == 0 {
                return Err(format!("message {i}: zero flits"));
            }
            if packet_count(m.flits, 1) > MAX_PACKETS_PER_MESSAGE {
                return Err(format!("message {i}: {} flits exceed tag space", m.flits));
            }
            if m.phase as usize >= self.phases.len() {
                return Err(format!("message {i}: phase {} unlabeled", m.phase));
            }
            for &p in self.preds(i as u32) {
                if p as usize >= n {
                    return Err(format!("message {i}: predecessor {p} out of range"));
                }
            }
        }
        // Kahn's algorithm: every message must be reachable from the
        // zero-predecessor frontier, otherwise the DAG has a cycle and the
        // run would starve. A message joins the frontier at most once.
        let succs = self.successors();
        let mut waiting: Vec<u32> = self.pred_counts().collect();
        let mut frontier: Vec<u32> = Vec::with_capacity(n);
        frontier.extend((0..n as u32).filter(|&i| waiting[i as usize] == 0));
        let mut released = 0usize;
        while let Some(m) = frontier.pop() {
            released += 1;
            for &s in succs.row(m) {
                waiting[s as usize] -= 1;
                if waiting[s as usize] == 0 {
                    frontier.push(s);
                }
            }
        }
        if released != n {
            return Err(format!(
                "dependency cycle: only {released} of {n} messages can ever run"
            ));
        }
        Ok(())
    }

    /// Successor lists (the inverse of the predecessor lists): row `m`
    /// holds, ascending, every message that waits on message `m`. Built in
    /// O(messages + edges).
    ///
    /// # Panics
    /// If a predecessor id is out of range ([`validate`](Self::validate)
    /// rejects those).
    pub fn successors(&self) -> Rows {
        self.preds.transpose(self.msgs.len())
    }

    // --- Collective builders ------------------------------------------------

    /// Ring allreduce over `participants` (≥ 2 distinct endpoints), each
    /// contributing `data_flits` of payload.
    ///
    /// The textbook bandwidth-optimal schedule: the data is split into
    /// `p` chunks of `⌈data/p⌉` flits; a **reduce-scatter** phase of
    /// `p − 1` steps pipelines partial sums around the ring, then an
    /// **allgather** phase of `p − 1` steps circulates the reduced chunks.
    /// In every step each node sends one chunk to its ring successor, and
    /// a node's step-`s` send depends on having received its predecessor's
    /// step-`s−1` chunk — the dependency structure that makes completion
    /// time `2(p−1) × (chunk latency)` under zero contention.
    pub fn ring_allreduce(participants: &[u32], data_flits: u64) -> Workload {
        let p = participants.len();
        assert!(p >= 2, "ring allreduce needs at least 2 participants");
        let chunk = data_flits.div_ceil(p as u64).max(1);
        let mut wl = Workload::sized("ring-allreduce", "ring_allreduce", p, 1);
        let rs = wl.phase("reduce-scatter");
        let ag = wl.phase("allgather");
        // msg id of (step s, node i) is s*p + i by construction.
        let mid = |s: usize, i: usize| (s * p + i) as u32;
        for s in 0..2 * (p - 1) {
            let phase = if s < p - 1 { rs } else { ag };
            for i in 0..p {
                let msg = Message {
                    src: participants[i],
                    dst: participants[(i + 1) % p],
                    flits: chunk,
                    phase,
                };
                if s == 0 {
                    wl.push(msg, &[]);
                } else {
                    // The chunk node i forwards at step s is the one it
                    // received from its ring predecessor at step s−1.
                    wl.push(msg, &[mid(s - 1, (i + p - 1) % p)]);
                }
            }
        }
        wl
    }

    /// Recursive-doubling allreduce over a power-of-two number of
    /// `participants`, each contributing `data_flits` of payload.
    ///
    /// `log2 p` exchange rounds; in round `k` every node swaps its full
    /// (partially reduced) vector with the partner at XOR distance `2^k`,
    /// and may only do so once its round-`k−1` exchange has arrived. Each
    /// round is its own phase (`xchg0`, `xchg1`, ...), so reports show the
    /// per-round time doubling as partners move further apart.
    pub fn rd_allreduce(participants: &[u32], data_flits: u64) -> Result<Workload, String> {
        let p = participants.len();
        if p < 2 || !p.is_power_of_two() {
            return Err(format!(
                "recursive doubling needs a power-of-two participant count, got {p}"
            ));
        }
        let rounds = p.trailing_zeros() as usize;
        let mut wl = Workload::sized("rd-allreduce", "rd_allreduce", p, 1);
        let flits = data_flits.max(1);
        let mid = |k: usize, i: usize| (k * p + i) as u32;
        wl.phases.reserve_exact(rounds);
        for k in 0..rounds {
            let phase = k as u32;
            wl.phases.push(format!("xchg{k}"));
            for i in 0..p {
                let partner = i ^ (1 << k);
                let msg = Message {
                    src: participants[i],
                    dst: participants[partner],
                    flits,
                    phase,
                };
                if k == 0 {
                    wl.push(msg, &[]);
                } else {
                    // Node i's round-k send needs its round-(k−1) inbound
                    // message — the one its previous partner sent it.
                    wl.push(msg, &[mid(k - 1, i ^ (1 << (k - 1)))]);
                }
            }
        }
        Ok(wl)
    }

    /// All-to-all (personalized exchange): every participant sends
    /// `flits_per_pair` flits to every other participant.
    ///
    /// Dependency-free — the network's backpressure is the only governor —
    /// but the *submission* order is staggered round-robin (step `s`: node
    /// `i` targets node `i+s`), the classic schedule that avoids every
    /// source hammering the same destination at once.
    pub fn all_to_all(participants: &[u32], flits_per_pair: u64) -> Workload {
        let p = participants.len();
        assert!(p >= 2, "all-to-all needs at least 2 participants");
        let mut wl = Workload::sized("all-to-all", "all_to_all", p, 1);
        let phase = wl.phase("exchange");
        let flits = flits_per_pair.max(1);
        for s in 1..p {
            for i in 0..p {
                wl.push(
                    Message {
                        src: participants[i],
                        dst: participants[(i + s) % p],
                        flits,
                        phase,
                    },
                    &[],
                );
            }
        }
        wl
    }

    /// Binomial-tree broadcast of `data_flits` from `participants[0]` to
    /// the rest.
    ///
    /// Round `k` doubles the set of endpoints holding the data: each
    /// holder forwards to the participant at index distance `2^k`. A
    /// relay depends on the message that delivered its own copy.
    pub fn broadcast(participants: &[u32], data_flits: u64) -> Workload {
        let p = participants.len();
        assert!(p >= 2, "broadcast needs at least 2 participants");
        let mut wl = Workload::sized("broadcast", "broadcast", p, 1);
        let phase = wl.phase("broadcast");
        let flits = data_flits.max(1);
        // recv[i] = id of the message that delivers the data to index i.
        let mut recv: Vec<Option<u32>> = vec![None; p];
        let mut stride = 1usize;
        while stride < p {
            for i in 0..stride.min(p) {
                let j = i + stride;
                if j >= p {
                    continue;
                }
                let id = wl.push(
                    Message {
                        src: participants[i],
                        dst: participants[j],
                        flits,
                        phase,
                    },
                    recv[i].as_slice(),
                );
                recv[j] = Some(id);
            }
            stride *= 2;
        }
        wl
    }

    /// Binomial-tree reduce of `data_flits` per participant onto
    /// `participants[0]` — [`broadcast`](Self::broadcast) run backwards:
    /// a node sends its partial sum up the tree only after every child
    /// contribution has arrived.
    pub fn reduce(participants: &[u32], data_flits: u64) -> Workload {
        let p = participants.len();
        assert!(p >= 2, "reduce needs at least 2 participants");
        let mut wl = Workload::sized("reduce", "reduce", p, 1);
        let phase = wl.phase("reduce");
        let flits = data_flits.max(1);
        // Mirror the broadcast rounds in reverse: in the last broadcast
        // round, leaves at distance `stride` send first. Round `r` (the
        // stride `2^r`, largest first) sends from index `i + stride` to
        // `i` for every `i < min(stride, p − stride)`, as messages
        // `first[r] + i`.
        let rounds = p.next_power_of_two().trailing_zeros() as usize;
        let mut first = [0u32; usize::BITS as usize];
        let mut deps: Vec<u32> = Vec::with_capacity(rounds);
        for r in (0..rounds).rev() {
            let stride = 1usize << r;
            first[r] = wl.len() as u32;
            for i in 0..stride.min(p - stride) {
                let j = i + stride;
                // Index j sends once it has absorbed what it received in
                // every earlier (wider) round, in the order they came.
                deps.clear();
                deps.extend(
                    (r + 1..rounds)
                        .rev()
                        .filter(|&q| j < (1 << q) && j + (1 << q) < p)
                        .map(|q| first[q] + j as u32),
                );
                wl.push(
                    Message {
                        src: participants[j],
                        dst: participants[i],
                        flits,
                        phase,
                    },
                    &deps,
                );
            }
        }
        wl
    }

    /// A pipeline-parallel schedule: `microbatches` activations of
    /// `flits_per_activation` flits flow through the `stages` endpoints in
    /// order; stage `j` forwards microbatch `m` once it has received it
    /// from stage `j − 1`. Each stage boundary is a phase (`s0→s1`, ...),
    /// so the report shows the pipeline fill/drain ramp per link.
    pub fn pipeline(stages: &[u32], microbatches: u32, flits_per_activation: u64) -> Workload {
        let n = stages.len();
        assert!(n >= 2, "pipeline needs at least 2 stages");
        assert!(microbatches >= 1, "pipeline needs at least 1 microbatch");
        let mut wl = Workload::sized("pipeline", "pipeline", n, microbatches);
        let flits = flits_per_activation.max(1);
        let links = n - 1;
        let mb = microbatches as usize;
        let mid = |j: usize, m: usize| (j * mb + m) as u32;
        // Stage labels are unique: push them without `phase`'s search.
        wl.phases.reserve_exact(links);
        for j in 0..links {
            let phase = j as u32;
            wl.phases.push(format!("s{j}\u{2192}s{}", j + 1));
            for m in 0..mb {
                let msg = Message {
                    src: stages[j],
                    dst: stages[j + 1],
                    flits,
                    phase,
                };
                if j == 0 {
                    wl.push(msg, &[]);
                } else {
                    wl.push(msg, &[mid(j - 1, m)]);
                }
            }
        }
        wl
    }

    /// Messages in collective `kind` (one of [`COLLECTIVES`]) over
    /// `participants` participants, in closed form without building it:
    /// ring allreduce `2(p − 1)p`, recursive doubling `p·log2 p`,
    /// all-to-all `p(p − 1)`, broadcast and reduce `p − 1`, and pipeline
    /// `(p − 1)·microbatches`. Errors name an unknown collective or a
    /// recursive doubling over a participant count that is not a power of
    /// two.
    pub fn collective_len(
        kind: &str,
        participants: usize,
        microbatches: u32,
    ) -> Result<u64, String> {
        shape(kind, participants as u64, microbatches.into()).map(|(messages, _)| messages)
    }

    /// Build the collective named `kind` (one of [`COLLECTIVES`]) over
    /// `participants`: `flits` is the builder's payload argument, and
    /// `microbatches` counts only for `pipeline`. Errors name an unknown
    /// collective, a size over [`MESSAGE_BUDGET`] (checked before anything
    /// is built), or carry the builder's own error.
    pub fn collective(
        kind: &str,
        participants: &[u32],
        flits: u64,
        microbatches: u32,
    ) -> Result<Workload, String> {
        let messages = Workload::collective_len(kind, participants.len(), microbatches)?;
        check_budget(messages).map_err(|e| format!("{kind}: {e}"))?;
        match kind {
            "ring_allreduce" => Ok(Workload::ring_allreduce(participants, flits)),
            "rd_allreduce" => Workload::rd_allreduce(participants, flits),
            "all_to_all" => Ok(Workload::all_to_all(participants, flits)),
            "broadcast" => Ok(Workload::broadcast(participants, flits)),
            "reduce" => Ok(Workload::reduce(participants, flits)),
            "pipeline" => Ok(Workload::pipeline(participants, microbatches, flits)),
            other => unreachable!("collective_len accepted \"{other}\""),
        }
    }
}

/// The collective builders [`Workload::collective`] dispatches on, by the
/// names scenario files use.
pub const COLLECTIVES: [&str; 6] = [
    "ring_allreduce",
    "rd_allreduce",
    "all_to_all",
    "broadcast",
    "reduce",
    "pipeline",
];

/// Read the `collective`, `flits` and `microbatches` members a
/// closed-loop workload and a serving class share, at `path`: a name from
/// [`COLLECTIVES`], at least one flit (64 by default), and a microbatch
/// count (1 by default) that only `pipeline` may set.
pub fn read_collective(v: &Value, path: &str) -> Result<(String, u64, u32), String> {
    let kind: String = read::field(v, path, "collective")?;
    if !COLLECTIVES.contains(&kind.as_str()) {
        return Err(format!("{path}.collective: unknown collective \"{kind}\""));
    }
    let flits = read::or(v, path, "flits", 64)?;
    if flits == 0 {
        return Err(format!("{path}.flits: must be at least 1"));
    }
    if kind != "pipeline" {
        read::only(v, path, &["microbatches"], "the pipeline collective takes")?;
    }
    let microbatches = read::or(v, path, "microbatches", 1u64)?;
    let microbatches = u32::try_from(microbatches)
        .ok()
        .filter(|&mb| mb > 0)
        .ok_or_else(|| format!("{path}.microbatches: must be at least 1"))?;
    Ok((kind, flits, microbatches))
}

/// One message of the JSON form: a [`Message`] plus its predecessor ids.
#[derive(Default)]
struct DagMessage {
    src: u32,
    dst: u32,
    flits: u64,
    phase: u32,
    preds: Vec<u32>,
}

json_object!(DagMessage, DagMessage::default(); src, dst, flits, phase, preds?);

/// The JSON form of a [`Workload`].
#[derive(Default)]
struct Dag {
    name: String,
    phases: Vec<String>,
    messages: Vec<DagMessage>,
}

json_object!(Dag, Dag::default(); name, phases, messages);

/// The full DAG, `{"name", "phases": [..], "messages": [{"src", "dst",
/// "flits", "phase", "preds"?}]}`, with `preds` defaulting to the empty
/// list. Reading checks structure only — call
/// [`validate`](Workload::validate) with the endpoint count to check
/// ranges and acyclicity.
impl Json for Workload {
    fn write(&self, out: &mut String) {
        Dag {
            name: self.name.clone(),
            phases: self.phases.clone(),
            messages: (0..self.len() as u32)
                .map(|m| {
                    let msg = self.msgs[m as usize];
                    DagMessage {
                        src: msg.src,
                        dst: msg.dst,
                        flits: msg.flits,
                        phase: msg.phase,
                        preds: self.preds(m).to_vec(),
                    }
                })
                .collect(),
        }
        .write(out);
    }

    fn read(v: &Value, path: &str) -> Result<Self, String> {
        let dag = Dag::read(v, path)?;
        let edges = dag.messages.iter().map(|m| m.preds.len()).sum();
        let mut wl = Workload::with_capacity(dag.name, dag.messages.len(), edges);
        wl.phases = dag.phases;
        for m in dag.messages {
            let msg = Message {
                src: m.src,
                dst: m.dst,
                flits: m.flits,
                phase: m.phase,
            };
            wl.push(msg, &m.preds);
        }
        Ok(wl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u32) -> Vec<u32> {
        (0..n).collect()
    }

    #[test]
    fn ring_allreduce_shape() {
        let wl = Workload::ring_allreduce(&ids(4), 16);
        assert_eq!(wl.len(), 2 * 3 * 4); // 2(p-1) steps × p messages
        assert_eq!(wl.total_flits(), 24 * 4); // chunk = 16/4 = 4
        assert_eq!(wl.phases, vec!["reduce-scatter", "allgather"]);
        wl.validate(4).unwrap();
        // Step 0 has no deps; later steps depend on the ring predecessor.
        for i in 0..4 {
            assert!(wl.preds(i).is_empty());
        }
        assert_eq!(wl.preds(4), &[3]); // step1 node0 ← step0 node3
        assert_eq!(wl.preds(5), &[0]); // step1 node1 ← step0 node0
    }

    #[test]
    fn rd_allreduce_requires_power_of_two() {
        assert!(Workload::rd_allreduce(&ids(6), 8).is_err());
        let wl = Workload::rd_allreduce(&ids(8), 8).unwrap();
        assert_eq!(wl.len(), 3 * 8);
        assert_eq!(wl.phases.len(), 3);
        wl.validate(8).unwrap();
        // Round-1 send of node 0 depends on round-0 message 0^1 = node 1's.
        assert_eq!(wl.preds(8), &[1]);
    }

    #[test]
    fn all_to_all_is_complete_and_staggered() {
        let wl = Workload::all_to_all(&ids(5), 3);
        assert_eq!(wl.len(), 5 * 4);
        wl.validate(5).unwrap();
        let mut pairs: Vec<(u32, u32)> = wl.messages().iter().map(|m| (m.src, m.dst)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), 20, "every ordered pair exactly once");
        // First p messages target distance 1, not a common hotspot.
        let first: Vec<u32> = wl.messages()[..5].iter().map(|m| m.dst).collect();
        assert_eq!(first, vec![1, 2, 3, 4, 0]);
    }

    #[test]
    fn broadcast_and_reduce_are_trees() {
        for p in [2u32, 3, 5, 8] {
            let b = Workload::broadcast(&ids(p), 7);
            assert_eq!(b.len() as u32, p - 1, "p={p}");
            b.validate(p).unwrap();
            let r = Workload::reduce(&ids(p), 7);
            assert_eq!(r.len() as u32, p - 1, "p={p}");
            r.validate(p).unwrap();
            // Reduce root receives ceil(log2 p) partial sums.
            let to_root = r.messages().iter().filter(|m| m.dst == 0).count();
            assert_eq!(to_root as u32, (p as f64).log2().ceil() as u32);
        }
    }

    #[test]
    fn pipeline_chains_microbatches() {
        let wl = Workload::pipeline(&[3, 1, 4], 2, 8);
        assert_eq!(wl.len(), 4); // 2 links × 2 microbatches
        assert_eq!(wl.phases.len(), 2);
        wl.validate(5).unwrap();
        // Second link's microbatch m depends on the first link's m.
        assert_eq!(wl.preds(2), &[0]);
        assert_eq!(wl.preds(3), &[1]);
    }

    #[test]
    fn closed_form_sizes_match_the_builders() {
        let sizes = (2..=66).chain([127, 128, 129, 255, 256, 1000]);
        for p in sizes {
            let ids: Vec<u32> = (0..p as u32).collect();
            for kind in COLLECTIVES {
                for mb in [1u32, 3, 8] {
                    if mb > 1 && kind != "pipeline" {
                        continue;
                    }
                    let len = Workload::collective_len(kind, p, mb);
                    let built = Workload::collective(kind, &ids, 5, mb);
                    let wl = match (len, built) {
                        (Ok(len), Ok(wl)) => {
                            assert_eq!(len, wl.len() as u64, "{kind} p={p} mb={mb}");
                            wl
                        }
                        (Err(a), Err(b)) => {
                            assert_eq!(a, b, "{kind} p={p}");
                            assert_eq!(kind, "rd_allreduce");
                            continue;
                        }
                        (len, built) => panic!("{kind} p={p}: {len:?} vs {:?}", built.err()),
                    };
                    // The builders are sized exactly: the closed-form edge
                    // count is what they push.
                    let (_, edges) = shape(kind, p as u64, mb.into()).unwrap();
                    assert_eq!(edges, wl.preds.ids.len() as u64, "{kind} p={p} mb={mb}");
                }
            }
        }
    }

    #[test]
    fn sizes_over_the_budget_fail_before_building() {
        let err = Workload::collective("pipeline", &[3, 1], 8, u32::MAX).unwrap_err();
        assert_eq!(
            err,
            "pipeline: 4294967295 messages exceed the message budget (4194304)"
        );
        // All-to-all sits just under the budget at 2048 participants.
        assert_eq!(
            Workload::collective_len("all_to_all", 2048, 1),
            Ok(2048 * 2047)
        );
        assert!(check_budget(2048 * 2047).is_ok());
        assert!(check_budget(2049 * 2048).is_err());
        assert_eq!(
            Workload::collective_len("magic", 4, 1).unwrap_err(),
            "unknown collective \"magic\""
        );
    }

    #[test]
    fn workload_json_round_trips() {
        for wl in [
            Workload::ring_allreduce(&ids(4), 16),
            Workload::rd_allreduce(&ids(8), 8).unwrap(),
            Workload::pipeline(&[3, 1, 4], 2, 8),
        ] {
            let text = wsdf_sim::json::to_string(&wl);
            let back = Workload::read(&Value::parse(&text).unwrap(), "w").unwrap();
            assert_eq!(back, wl);
            assert_eq!(wsdf_sim::json::to_string(&back), text);
        }
    }

    #[test]
    fn workload_json_errors_are_precise() {
        let cases: &[(&str, &str)] = &[
            (
                r#"{"phases": [], "messages": []}"#,
                "w.name: missing required key",
            ),
            (
                r#"{"name": "x", "phases": [1], "messages": []}"#,
                "w.phases[0]: expected string",
            ),
            (
                r#"{"name": "x", "phases": ["p"], "messages": [{"src": 0, "dst": 1, "phase": 0}]}"#,
                "w.messages[0].flits: missing required key",
            ),
            (
                r#"{"name": "x", "phases": ["p"], "messages": [{"src": 0, "dst": 1, "flits": -3, "phase": 0}]}"#,
                "w.messages[0].flits: expected non-negative integer",
            ),
            (
                r#"{"name": "x", "phases": ["p"], "messages": [{"src": 4294967297, "dst": 1, "flits": 4, "phase": 0}]}"#,
                "w.messages[0].src: expected non-negative integer",
            ),
            (
                r#"{"name": "x", "phases": ["p"], "messages": [{"src": 0, "dst": 1, "flits": 4, "phase": 4294967296}]}"#,
                "w.messages[0].phase: expected non-negative integer",
            ),
            (
                r#"{"name": "x", "phases": ["p"], "messages": [{"src": 0, "dst": 1, "flits": 4, "phase": 0, "preds": [0.5]}]}"#,
                "w.messages[0].preds[0]: expected non-negative integer",
            ),
            (
                r#"{"name": "x", "phases": [], "messages": [], "extra": 0}"#,
                "w.extra: unknown key",
            ),
        ];
        for (doc, want) in cases {
            let v = Value::parse(doc).unwrap();
            assert_eq!(&Workload::read(&v, "w").unwrap_err(), want, "{doc}");
        }
    }

    #[test]
    fn validate_rejects_bad_graphs() {
        let mut wl = Workload::new("bad");
        let ph = wl.phase("p");
        let msg = |src, dst| Message {
            src,
            dst,
            flits: 1,
            phase: ph,
        };
        wl.push(msg(0, 0), &[]);
        assert!(wl.validate(4).unwrap_err().contains("self-message"));

        let mut wl = Workload::new("cycle");
        let ph = wl.phase("p");
        let m = |src, dst| Message {
            src,
            dst,
            flits: 1,
            phase: ph,
        };
        wl.push(m(0, 1), &[1]);
        wl.push(m(1, 2), &[0]);
        assert!(wl.validate(4).unwrap_err().contains("cycle"));

        let mut wl = Workload::new("range");
        let ph = wl.phase("p");
        wl.push(
            Message {
                src: 0,
                dst: 9,
                flits: 1,
                phase: ph,
            },
            &[],
        );
        assert!(wl.validate(4).unwrap_err().contains("out of range"));
    }
}
