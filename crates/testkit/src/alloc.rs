//! The counting allocator.
//!
//! A test binary that gates on allocator behaviour installs it —
//! `#[global_allocator] static ALLOCATOR: Counting = Counting;` — and
//! reads two instruments: a **per-thread call counter**
//! ([`calls_during`]; the harness's other threads cannot disturb it)
//! and a **process-wide live/peak byte gauge** ([`peak_during`]; tests
//! that read it take [`turn`]s).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

thread_local! {
    /// Allocator calls (alloc, realloc, dealloc) made by this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Heap bytes currently allocated by the whole process, and their
/// high-water mark since [`peak_during`] last reset it.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

static TURN: Mutex<()> = Mutex::new(());

/// `System`, counted.
pub struct Counting;

fn count() {
    // A thread that is tearing down has no counter left; nobody reads it.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches
// only atomics and a const-initialised `Cell` without a destructor, so
// it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        grew(layout.size());
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count();
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        grew(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls this thread makes while `f` runs. Panics when
/// [`Counting`] is not the binary's global allocator: a zero would
/// pass every gate.
pub fn calls_during(f: impl FnOnce()) -> u64 {
    let calls = || CALLS.with(Cell::get);
    let probe = calls();
    drop(std::hint::black_box(Box::new(0u8)));
    assert_eq!(calls() - probe, 2, "install `Counting` as the #[global_allocator]");
    let before = calls();
    f();
    calls() - before
}

/// Heap bytes the process holds right now.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// `f`'s result and how far the process's live heap rose above its
/// level at entry while `f` ran.
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = live_bytes();
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - before)
}

/// Serialises the tests of a binary that read the byte gauge: it must
/// not see another test's heap.
pub fn turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}
