//! Zero-cost-when-disabled: a run without telemetry must not allocate
//! for it.
//!
//! A counting `#[global_allocator]` wraps the system allocator (this
//! test binary holds exactly one test, so the counter sees only this
//! test's allocations — including those made on BSP worker threads).
//! Telemetry state is allocated solely by `Simulation::attach_trace`,
//! so an untraced run's allocation count must be *exactly* reproducible
//! run over run — any telemetry residue (lazily grown buffers, state
//! kept from an earlier traced run) would break the equality — while the
//! identical traced run must allocate strictly more (proving the counter
//! actually sees telemetry's per-partition `PartTrace` buffers, the
//! barrier batch and the shared JSONL string).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use wsdf::routing::{RouteMode, VcScheme};
use wsdf::sim::SimConfig;
use wsdf::topo::SlParams;
use wsdf::{Bench, PatternSpec, Session, TraceConfig};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: delegates directly to `System`; the counter has no effect on
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    f();
    ALLOCS.load(Ordering::SeqCst) - before
}

#[test]
fn disabled_telemetry_allocates_nothing() {
    let bench = Bench::switchless(
        &SlParams::radix16().with_wgroups(1),
        RouteMode::Minimal,
        VcScheme::Baseline,
    );
    let cfg = SimConfig {
        warmup_cycles: 100,
        measure_cycles: 200,
        drain_cycles: 100,
        ..Default::default()
    };
    let pattern = bench.pattern(PatternSpec::Uniform, 0.2);
    let untraced = || {
        Session::bench(&bench)
            .sim(cfg.clone())
            .metrics(pattern.as_ref())
            .unwrap();
    };

    // Warm up one-time state (global pool threads, allocator pools),
    // then measure twice: with telemetry off the engine's allocation
    // pattern is fully deterministic, so any drift would be telemetry
    // (or other hidden) state smuggled into the disabled path.
    untraced();
    let first = allocs_during(untraced);
    let second = allocs_during(untraced);
    assert_eq!(
        first, second,
        "telemetry-disabled runs must have identical allocation counts"
    );

    // Sanity: the counter is live — the same run with telemetry enabled
    // allocates strictly more (per-partition `PartTrace` buffers, the
    // barrier batch, the shared JSONL string).
    let traced = allocs_during(|| {
        Session::bench(&bench)
            .sim(cfg.clone())
            .trace(TraceConfig {
                stride: 64,
                ..TraceConfig::default()
            })
            .metrics(pattern.as_ref())
            .unwrap();
    });
    assert!(
        traced > first,
        "traced run should allocate more than untraced ({traced} vs {first})"
    );
}
