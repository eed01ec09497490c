//! A counting global allocator for the benchmark binary.
//!
//! Each allocation, reallocation and free does the system allocator's work plus relaxed
//! atomic updates of three statistics: live bytes, the high-water mark of live bytes, and
//! the number of allocations. Nothing else runs per allocation, so the cost is the same
//! for every commit the benchmark compares. The binary installs it with
//! `#[global_allocator]`; library users and tests that do not install it read zeros.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus relaxed-atomic live/peak/count statistics.
pub struct CountingAlloc;

impl CountingAlloc {
    fn grow(bytes: usize) {
        ALLOCS.fetch_add(1, Relaxed);
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout unchanged and only
// adds statistics; the statistics are plain atomics that never affect the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, forwarded unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            Self::grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            Self::grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence by `System`) for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` come from this allocator and the caller upholds
        // `GlobalAlloc::realloc`'s contract for `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            Self::grow(new_size);
        }
        new
    }
}

/// A reading of the allocation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Bytes currently allocated.
    pub live_bytes: usize,
    /// Highest `live_bytes` since the last [`reset_peak`].
    pub peak_bytes: usize,
    /// Allocations (including reallocations) since the process started.
    pub allocs: u64,
}

/// Reads the statistics.
pub fn stats() -> HeapStats {
    HeapStats {
        live_bytes: LIVE.load(Relaxed),
        peak_bytes: PEAK.load(Relaxed),
        allocs: ALLOCS.load(Relaxed),
    }
}

/// Restarts the high-water mark from the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}
