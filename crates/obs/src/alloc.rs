//! A counting global allocator (zero-dependency).
//!
//! Wraps [`std::alloc::System`] and counts allocation events and bytes,
//! both process-wide and per thread. The per-thread counters are what the
//! per-query resource ledger reads: a search runs on one request thread,
//! so it can attribute allocator traffic to itself even while other
//! requests run concurrently.
//!
//! The type lives here — below every other crate — so there is a single
//! source of truth, but *installing* it is the binary's choice: each
//! binary that reads the counters (`schemr-cli`, the e1 bench, the
//! benchmark) declares `#[global_allocator] static A: CountingAlloc =
//! CountingAlloc;` itself.
//!
//! When no counting allocator is installed the counters simply stay at
//! zero and ledger allocation fields read 0 — observability never
//! becomes a hard dependency.
//!
//! Counting semantics (kept identical to the original bench allocator):
//! `alloc`, `alloc_zeroed`, and `realloc` each count as one event;
//! `dealloc` is not counted. Bytes are the requested sizes (`realloc`
//! counts the new size).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static PROCESS_COUNT: AtomicU64 = AtomicU64::new(0);
static PROCESS_BYTES: AtomicU64 = AtomicU64::new(0);

// Const-initialized thread-locals: no lazy allocation on first access,
// so reading them from inside the allocator cannot recurse. `try_with`
// tolerates accesses during thread teardown.
thread_local! {
    static THREAD_COUNT: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The counting allocator. Zero-sized; all state is in statics so the
/// readout functions work no matter which binary installed it.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn record(size: usize) {
        PROCESS_COUNT.fetch_add(1, Ordering::Relaxed);
        PROCESS_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        let _ = THREAD_COUNT.try_with(|c| c.set(c.get() + 1));
        let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + size as u64));
    }
}

// SAFETY: pure pass-through to `System`; the bookkeeping touches only
// atomics and const-init thread-locals, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

/// Allocation events since process start (0 when no counting allocator
/// is installed).
pub fn process_alloc_count() -> u64 {
    PROCESS_COUNT.load(Ordering::Relaxed)
}

/// Bytes requested from the allocator since process start.
pub fn process_alloc_bytes() -> u64 {
    PROCESS_BYTES.load(Ordering::Relaxed)
}

/// Allocation events on the calling thread.
pub fn thread_alloc_count() -> u64 {
    THREAD_COUNT.try_with(Cell::get).unwrap_or(0)
}

/// Bytes requested from the allocator on the calling thread.
pub fn thread_alloc_bytes() -> u64 {
    THREAD_BYTES.try_with(Cell::get).unwrap_or(0)
}
