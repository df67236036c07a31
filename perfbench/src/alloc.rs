//! A counting global allocator: live bytes, their peak, and bytes allocated
//! in total. Unlike RSS these are exact, and they repeat from run to run on
//! the same inputs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, plus three counters. Every counter is a statistic
/// that publishes no other data, so `Relaxed` suffices.
///
/// Allocations that would take the live heap past [`LIMIT`] fail (the
/// process then aborts), so a runaway request cannot exhaust a host whose
/// memory other processes share.
pub struct Counting;

/// The live-heap ceiling: far above any workload's peak.
pub const LIMIT: usize = 3 << 30;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static TOTAL: AtomicUsize = AtomicUsize::new(0);

fn fits(bytes: usize) -> bool {
    LIVE.load(Ordering::Relaxed).saturating_add(bytes) <= LIMIT
}

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
    TOTAL.fetch_add(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !fits(layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller's `layout` obligations pass straight through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !fits(layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation of this allocator is), as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() && !fits(new_size - layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: as for `dealloc`, and `new_size` is the caller's
        // obligation under `GlobalAlloc::realloc`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        new
    }
}

/// Bytes currently allocated.
pub fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Bytes allocated since the process started, frees not subtracted.
pub fn total() -> usize {
    TOTAL.load(Ordering::Relaxed)
}

/// Restarts peak tracking from the current live size and returns it.
pub fn reset_peak() -> usize {
    let live = live();
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// The highest live size since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}
