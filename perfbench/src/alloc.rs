//! A counting global allocator for the traced run.
//!
//! Counting is off unless [`enable`] was called, so untraced runs pay one
//! relaxed atomic load per allocation. Counts are kept per thread: the
//! traced replay runs each layer on the calling thread, and a per-thread
//! count keeps the server's own threads (and, in `mixed`, the concurrent
//! bulk connection) out of the layer's numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// The allocator installed by `main`.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn on_alloc(size: usize) {
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
    let _ = LIVE.try_with(|l| {
        let live = l.get() + size as i64;
        l.set(live);
        let _ = PEAK.try_with(|p| p.set(p.get().max(live)));
    });
}

fn on_free(size: usize) {
    let _ = LIVE.try_with(|l| l.set(l.get() - size as i64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates thread-local counters besides; the counters
// are const-initialised `Cell`s without destructors, so touching them never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && ON.load(Ordering::Relaxed) {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && ON.load(Ordering::Relaxed) {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if ON.load(Ordering::Relaxed) {
            on_free(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && ON.load(Ordering::Relaxed) {
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Start counting (traced runs only).
pub fn enable() {
    ON.store(true, Ordering::Relaxed);
}

/// A point on this thread's allocation counters.
#[derive(Clone, Copy)]
pub struct Mark {
    allocs: u64,
    live: i64,
}

/// Read this thread's counters and restart its peak from the current live
/// byte count, so [`Mark::peak_live_bytes`] measures growth after the mark.
pub fn mark() -> Mark {
    let live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live));
    Mark {
        allocs: ALLOCS.with(Cell::get),
        live,
    }
}

impl Mark {
    /// Allocations (including reallocations) on this thread since the mark.
    pub fn allocs(&self) -> u64 {
        ALLOCS.with(Cell::get) - self.allocs
    }

    /// Highest live-byte growth on this thread since the mark.
    pub fn peak_live_bytes(&self) -> u64 {
        (PEAK.with(Cell::get) - self.live).max(0) as u64
    }
}
