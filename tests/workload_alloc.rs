//! A collective DAG is built, validated and admitted in a fixed number of
//! allocations, whatever its size.
//!
//! A counting `#[global_allocator]` wraps the system allocator, as in
//! `tests/telemetry_alloc.rs` (this test binary holds exactly one test, so
//! the counter sees only this test's allocations). Every builder sizes its
//! message and predecessor arrays from the collective's closed-form size,
//! `Workload::validate` runs Kahn's check over compressed successor rows,
//! and the closed-loop driver queues a DAG's roots as one entry, so a
//! 256-participant ring allreduce (130,560 messages) must take exactly as
//! many allocations as a 16-participant one (480). The only allocations
//! that grow with the shape are the phase labels, one `String` per phase,
//! which a 64-stage pipeline has 63 of. A per-message `Vec` anywhere on
//! the path, a growing array, or one queue entry per root breaks the
//! equality.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use wsdf::workload::{ClosedLoop, Workload};

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

/// Allocations made while building collective `kind` over `p`
/// participants (4 microbatches for a pipeline), validating it and
/// admitting it to a closed-loop driver, less one per phase label.
fn allocs_beyond_labels(kind: &str, p: u32) -> u64 {
    let participants: Vec<u32> = (0..p).collect();
    let before = ALLOCS.load(Ordering::SeqCst);
    let wl = Workload::collective(kind, &participants, 64, 4).unwrap();
    wl.validate(p).unwrap();
    drop(ClosedLoop::new(&wl, 4));
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    allocs - wl.phases.len() as u64
}

#[test]
fn dag_build_validate_and_admit_allocate_a_fixed_number_of_times() {
    for (kind, small, large) in [
        ("ring_allreduce", 16, 256),
        ("pipeline", 4, 64),
        ("rd_allreduce", 16, 256),
        ("all_to_all", 16, 256),
        ("broadcast", 16, 256),
        ("reduce", 16, 256),
    ] {
        assert_eq!(
            allocs_beyond_labels(kind, small),
            allocs_beyond_labels(kind, large),
            "{kind}: {small} and {large} participants allocate differently"
        );
    }
}
