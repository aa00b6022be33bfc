//! # wsdf-exec — persistent partition-pinned BSP executor
//!
//! The simulation engine advances all BSP partitions once per cycle. Doing
//! that by spawning scoped threads every cycle costs a thread create +
//! join per worker per cycle — enough to eat all parallelism at engine
//! granularity. [`BspPool`] replaces it with workers that live as long as
//! the pool:
//!
//! * **Spawn once** — `BspPool::new(n)` starts `n - 1` background workers;
//!   the *calling* thread always executes slot 0, so a 1-worker pool is a
//!   plain inline loop with zero synchronization.
//! * **Reusable two-phase barrier** — each [`BspPool::broadcast`] is one
//!   release/collect round trip on a generation counter protected by a
//!   mutex + two condvars: phase one publishes the job and wakes the
//!   workers, phase two waits until every participating worker has checked
//!   in. No thread is created or destroyed.
//! * **Stable slots** — a broadcast over `k` slots always hands slot `i + 1`
//!   to background worker `i`. Callers that map work units (engine
//!   partitions) to slots with a fixed function therefore get *pinning for
//!   free*: the same OS thread touches the same partition state every
//!   cycle, keeping router/ring state hot in that core's cache.
//!
//! Worker-count policy lives here too: [`configured_threads`] honors
//! `WSDF_THREADS`, then `RAYON_NUM_THREADS`, then the machine's available
//! parallelism, and [`global_pool`] lazily builds the one process-wide pool
//! that sweeps, benches, and the engine all share — thread state is created
//! once per process, not once per run.
//!
//! ## Determinism contract
//!
//! `broadcast` never re-splits or re-orders work: it only hands out slot
//! indices. As long as the job function writes data that depends on the
//! slot-to-work mapping alone (the engine's partitions are disjoint and
//! exchange messages only between cycles), results are bit-identical for
//! *any* worker count, including 1.

#![deny(missing_docs)]

use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Resolve a thread-count override from an environment lookup function:
/// `WSDF_THREADS`, then `RAYON_NUM_THREADS`; values are trimmed, and a
/// non-numeric or zero value falls through to the next source. Split out
/// from [`configured_threads`] so the precedence logic is testable
/// without mutating the process environment.
fn resolve_threads(get: impl Fn(&str) -> Option<String>) -> Option<usize> {
    for key in ["WSDF_THREADS", "RAYON_NUM_THREADS"] {
        if let Some(v) = get(key) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return Some(n);
                }
            }
        }
    }
    None
}

/// Worker count the process-wide pool is sized with: `WSDF_THREADS` if set,
/// else `RAYON_NUM_THREADS`, else the machine's available parallelism.
/// Cached on first use (environment changes after that are ignored).
#[allow(clippy::disallowed_methods)] // the one WSDF_THREADS reader
pub fn configured_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        resolve_threads(|k| std::env::var(k).ok()).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    })
}

/// The process-wide executor, sized by [`configured_threads`] and built on
/// first use. The engine, `wsdf::sweep`, and the criterion benches all run
/// on this one pool, so worker threads are created once per process and
/// reused across every simulation.
pub fn global_pool() -> &'static BspPool {
    static POOL: OnceLock<BspPool> = OnceLock::new();
    POOL.get_or_init(|| BspPool::new(configured_threads()))
}

/// Lifetime-erased pointer to the broadcast job. Only ever dereferenced
/// while the submitting `broadcast` call is blocked waiting for workers,
/// which keeps the pointee alive.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is Sync and outlives every dereference (see `Job`).
unsafe impl Send for Job {}

/// Barrier state shared between the submitter and the background workers.
struct State {
    /// Bumped once per broadcast; workers run when it moves past what they
    /// have already seen.
    epoch: u64,
    /// The job of the current epoch (`None` between broadcasts).
    job: Option<Job>,
    /// Number of background workers participating in the current epoch
    /// (workers with index ≥ `active` sit the round out).
    active: usize,
    /// Participating workers that have not finished the current epoch yet.
    remaining: usize,
    /// A worker's job panicked during the current epoch.
    panicked: bool,
    /// Pool is being dropped; workers exit.
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for a new epoch.
    work: Condvar,
    /// The submitter waits here for `remaining == 0`.
    done: Condvar,
}

/// A persistent BSP worker pool; see the [module docs](self) for the
/// design. Dropping the pool shuts the workers down and joins them — no
/// threads outlive the pool (asserted by the torture test in
/// `tests/exec_pool.rs`).
pub struct BspPool {
    shared: Arc<Shared>,
    /// Serializes submitters: the barrier state supports one broadcast at
    /// a time, and the pool (notably [`global_pool`]) is shared across
    /// threads — e.g. the test harness runs `#[test]`s concurrently.
    submit: Mutex<()>,
    slots: usize,
    handles: Vec<JoinHandle<()>>,
}

std::thread_local! {
    /// True while this thread is executing a broadcast job (as submitter
    /// or worker). A nested broadcast from inside a job cannot use the
    /// barrier (the outer round holds it), so it degrades to an inline
    /// sequential loop — every slot still runs exactly once.
    static IN_BROADCAST: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// RAII flag setter for [`IN_BROADCAST`] (reset survives unwinding).
struct BroadcastFlag;

impl BroadcastFlag {
    fn set() -> Self {
        IN_BROADCAST.with(|f| f.set(true));
        BroadcastFlag
    }
}

impl Drop for BroadcastFlag {
    fn drop(&mut self) {
        IN_BROADCAST.with(|f| f.set(false));
    }
}

impl BspPool {
    /// Create a pool with `workers` total execution slots. Slot 0 is the
    /// calling thread of each [`broadcast`](Self::broadcast); `workers - 1`
    /// background threads are spawned for the rest. `workers == 0` is
    /// treated as 1.
    pub fn new(workers: usize) -> Self {
        let slots = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                active: 0,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..slots - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("wsdf-bsp-{}", i + 1))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("failed to spawn BSP worker")
            })
            .collect();
        BspPool {
            shared,
            submit: Mutex::new(()),
            slots,
            handles,
        }
    }

    /// Total execution slots (including the caller's slot 0).
    pub fn workers(&self) -> usize {
        self.slots
    }

    /// Run `f(slot)` once for each slot in `0..slots.min(self.workers())`,
    /// in parallel, and return only after every invocation has finished.
    ///
    /// Slot 0 runs on the calling thread; slot `i + 1` always runs on
    /// background worker `i`, so a fixed slot→work mapping yields stable
    /// thread pinning across broadcasts. With one effective slot this is an
    /// inline call with no synchronization at all.
    ///
    /// Panics in any slot's `f` are collected and re-raised here after all
    /// slots have completed (the pool itself stays usable).
    ///
    /// Concurrent broadcasts from different threads serialize on an
    /// internal submit lock; a *nested* broadcast from inside a job runs
    /// its slots inline on the calling thread (same results, no
    /// parallelism, no deadlock).
    pub fn broadcast<F: Fn(usize) + Sync>(&self, slots: usize, f: F) {
        let slots = slots.clamp(1, self.slots);
        if slots == 1 {
            f(0);
            return;
        }
        if IN_BROADCAST.with(|flag| flag.get()) {
            for s in 0..slots {
                f(s);
            }
            return;
        }
        // One broadcast at a time; ignore poisoning (a panicking broadcast
        // leaves the barrier state consistent — the guard below sees to
        // that — so the next submitter can proceed).
        let _submit = self.submit.lock().unwrap_or_else(|e| e.into_inner());
        let nbg = slots - 1;
        // SAFETY: lifetime erasure only — the pointer is dereferenced
        // exclusively between here and the completion wait below, while
        // `f` is alive on this stack frame.
        let obj: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute(&f as &(dyn Fn(usize) + Sync + '_)) };
        {
            let mut st = self.shared.state.lock().unwrap();
            debug_assert_eq!(st.remaining, 0, "overlapping broadcast");
            st.job = Some(Job(obj));
            st.active = nbg;
            st.remaining = nbg;
            st.panicked = false;
            st.epoch += 1;
            self.shared.work.notify_all();
        }
        // The guard waits for the workers even if f(0) panics below —
        // workers hold a pointer into this stack frame until they check in.
        let guard = CompletionGuard {
            shared: &self.shared,
        };
        {
            let _flag = BroadcastFlag::set();
            f(0);
        }
        drop(guard);
    }
}

impl Drop for BspPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Phase-two wait: blocks until every participating worker of the current
/// epoch has checked in, then re-raises any worker panic.
struct CompletionGuard<'a> {
    shared: &'a Shared,
}

impl Drop for CompletionGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().unwrap();
        while st.remaining > 0 {
            st = self.shared.done.wait(st).unwrap();
        }
        st.job = None;
        let panicked = std::mem::take(&mut st.panicked);
        drop(st);
        if panicked && !std::thread::panicking() {
            panic!("BspPool worker panicked during broadcast");
        }
    }
}

/// Split `weights.len()` items into at most `slots` contiguous, non-empty
/// ranges of approximately equal total weight (deterministic greedy cut at
/// proportional prefix targets). Used by the simulation engine to pin
/// partitions to pool slots: locality-aware partition maps can have uneven
/// per-partition agent counts, so ranges balance *weight*, not item count.
///
/// The returned ranges tile `0..weights.len()` exactly, in order. `slots`
/// is clamped to `1..=weights.len()`; an empty `weights` yields one empty
/// range. Zero weights are allowed (treated as weight 0 but still
/// occupying an item slot).
pub fn balanced_ranges(weights: &[u64], slots: usize) -> Vec<std::ops::Range<usize>> {
    let n = weights.len();
    if n == 0 {
        return std::iter::once(0..0).collect();
    }
    let slots = slots.clamp(1, n);
    let total: u64 = weights.iter().sum();
    let mut out = Vec::with_capacity(slots);
    let mut start = 0usize;
    let mut acc = 0u64;
    for s in 0..slots {
        // Cut once the cumulative weight reaches the proportional target,
        // always taking at least one item and leaving one per later slot;
        // the last slot takes everything left.
        let end = if s == slots - 1 {
            n
        } else {
            let target = ((total as u128 * (s as u128 + 1)) / slots as u128) as u64;
            let max_end = n - (slots - 1 - s);
            let mut e = start + 1;
            acc += weights[start];
            while e < max_end && acc < target {
                acc += weights[e];
                e += 1;
            }
            e
        };
        out.push(start..end);
        start = end;
    }
    out
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    break;
                }
                st = shared.work.wait(st).unwrap();
            }
            seen = st.epoch;
            if index >= st.active {
                continue; // sitting this round out
            }
            st.job.expect("active epoch without a job")
        };
        let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _flag = BroadcastFlag::set();
            // SAFETY: the submitter blocks until we check in below, so the
            // closure behind the pointer is alive for the whole call.
            unsafe { (*job.0)(index + 1) }
        }))
        .is_ok();
        let mut st = shared.state.lock().unwrap();
        if !ok {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn balanced_ranges_tile_exactly() {
        for (n, slots) in [(1usize, 1usize), (5, 2), (8, 3), (7, 7), (4, 9)] {
            let w: Vec<u64> = (0..n as u64).map(|i| i + 1).collect();
            let r = balanced_ranges(&w, slots);
            assert_eq!(r.len(), slots.min(n));
            assert_eq!(r[0].start, 0);
            assert_eq!(r.last().unwrap().end, n);
            for pair in r.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
                assert!(!pair[1].is_empty());
            }
            assert!(!r[0].is_empty());
        }
    }

    #[test]
    fn balanced_ranges_balance_weight_not_count() {
        // One heavy item and many light ones: the heavy item gets its own
        // range instead of dragging half the light ones with it.
        let w = [100u64, 1, 1, 1, 1, 1, 1, 1];
        let r = balanced_ranges(&w, 2);
        assert_eq!(r[0], 0..1);
        assert_eq!(r[1], 1..8);
        // Uniform weights reduce to near-equal item counts.
        let r = balanced_ranges(&[1u64; 8], 4);
        assert_eq!(r, vec![0..2, 2..4, 4..6, 6..8]);
    }

    #[test]
    fn balanced_ranges_degenerate_inputs() {
        assert_eq!(balanced_ranges(&[], 3), vec![0..0]);
        assert_eq!(balanced_ranges(&[5], 1), vec![0..1]);
        // All-zero weights still tile.
        let r = balanced_ranges(&[0u64; 4], 2);
        assert_eq!(r.last().unwrap().end, 4);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn broadcast_runs_every_slot_exactly_once() {
        let pool = BspPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.broadcast(4, |s| {
            hits[s].fetch_add(1, Ordering::Relaxed);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn broadcast_is_reusable_many_times() {
        let pool = BspPool::new(3);
        let sum = AtomicU64::new(0);
        for _ in 0..500 {
            pool.broadcast(3, |s| {
                sum.fetch_add(s as u64 + 1, Ordering::Relaxed);
            });
        }
        assert_eq!(sum.load(Ordering::Relaxed), 500 * (1 + 2 + 3));
    }

    #[test]
    fn slots_are_pinned_to_the_same_threads() {
        let pool = BspPool::new(3);
        let owners: Vec<Mutex<HashSet<std::thread::ThreadId>>> =
            (0..3).map(|_| Mutex::new(HashSet::new())).collect();
        for _ in 0..100 {
            pool.broadcast(3, |s| {
                owners[s]
                    .lock()
                    .unwrap()
                    .insert(std::thread::current().id());
            });
        }
        for (s, owner) in owners.iter().enumerate() {
            assert_eq!(
                owner.lock().unwrap().len(),
                1,
                "slot {s} migrated between threads"
            );
        }
        assert!(owners[0]
            .lock()
            .unwrap()
            .contains(&std::thread::current().id()));
    }

    #[test]
    fn fewer_slots_than_workers_leaves_the_rest_idle() {
        let pool = BspPool::new(4);
        let max_slot = AtomicUsize::new(0);
        let calls = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.broadcast(2, |s| {
                max_slot.fetch_max(s, Ordering::Relaxed);
                calls.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(max_slot.load(Ordering::Relaxed), 1);
        assert_eq!(calls.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn single_worker_pool_runs_inline() {
        let pool = BspPool::new(1);
        let here = std::thread::current().id();
        let ran = AtomicUsize::new(0);
        pool.broadcast(8, |s| {
            assert_eq!(s, 0);
            assert_eq!(std::thread::current().id(), here);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = BspPool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.broadcast(2, |s| {
                if s == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err(), "worker panic must propagate");
        // The pool must still work after a failed broadcast.
        let ok = AtomicUsize::new(0);
        pool.broadcast(2, |_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn concurrent_submitters_serialize_safely() {
        // Many threads share one pool (the global_pool situation when the
        // test harness runs #[test]s in parallel): every broadcast must
        // still run each of its slots exactly once.
        let pool = BspPool::new(3);
        let sum = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..200 {
                        pool.broadcast(3, |slot| {
                            sum.fetch_add(slot as u64 + 1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4 * 200 * (1 + 2 + 3));
    }

    #[test]
    fn nested_broadcast_runs_inline_without_deadlock() {
        let pool = BspPool::new(3);
        let inner_calls = AtomicUsize::new(0);
        let outer_calls = AtomicUsize::new(0);
        pool.broadcast(3, |_| {
            outer_calls.fetch_add(1, Ordering::Relaxed);
            // A job that itself broadcasts (a nested parallel section)
            // must not dead-lock or corrupt the barrier: it degrades to
            // an inline loop over its slots.
            pool.broadcast(2, |_| {
                inner_calls.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(outer_calls.load(Ordering::Relaxed), 3);
        assert_eq!(inner_calls.load(Ordering::Relaxed), 3 * 2);
    }

    #[test]
    fn env_override_precedence() {
        let env = |pairs: &'static [(&'static str, &'static str)]| {
            move |k: &str| {
                pairs
                    .iter()
                    .find(|(key, _)| *key == k)
                    .map(|(_, v)| v.to_string())
            }
        };
        assert_eq!(resolve_threads(env(&[("WSDF_THREADS", "3")])), Some(3));
        assert_eq!(resolve_threads(env(&[("RAYON_NUM_THREADS", "7")])), Some(7));
        assert_eq!(
            resolve_threads(env(&[("WSDF_THREADS", "2"), ("RAYON_NUM_THREADS", "9")])),
            Some(2),
            "WSDF_THREADS wins"
        );
        assert_eq!(resolve_threads(env(&[("WSDF_THREADS", "0")])), None);
        assert_eq!(resolve_threads(env(&[("WSDF_THREADS", "lots")])), None);
        assert_eq!(
            resolve_threads(env(&[("WSDF_THREADS", "lots"), ("RAYON_NUM_THREADS", "5")])),
            Some(5),
            "an invalid WSDF_THREADS falls through to RAYON_NUM_THREADS"
        );
        assert_eq!(resolve_threads(env(&[])), None);
        assert_eq!(resolve_threads(env(&[("WSDF_THREADS", " 4 ")])), Some(4));
    }

    #[test]
    fn global_pool_is_shared_and_sized_by_config() {
        let a = global_pool() as *const BspPool;
        let b = global_pool() as *const BspPool;
        assert_eq!(a, b);
        assert_eq!(global_pool().workers(), configured_threads());
        assert!(configured_threads() >= 1);
    }
}
