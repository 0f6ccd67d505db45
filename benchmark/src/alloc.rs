//! Counting global allocator: live bytes, high-water mark, call count and
//! bytes requested, as relaxed atomics around the system allocator.
//!
//! The counters are statistics — they publish no other data — so `Relaxed`
//! is the right ordering. With two rank threads allocating at once the
//! high-water mark is the true peak of the *sum*, which is what a process
//! has to keep resident.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The benchmark binary's `#[global_allocator]`.
pub struct Counting;

fn grew(size: usize) {
    let size = size as u64;
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards the caller's layout/pointer unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the bookkeeping around
// the calls touches only the atomics above and never the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    // Forwarded (not defaulted to alloc + memset) so `vec![0.0; n]` keeps
    // the system allocator's lazily-zeroed pages, as it has without us.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator — i.e. by `System` —
        // for `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, all passed through as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grew(new_size);
        }
        p
    }
}

/// One reading of the counters.
#[derive(Debug, Clone, Copy)]
pub struct HeapReading {
    /// Bytes currently allocated.
    pub live: u64,
    /// Highest `live` since the last [`mark`].
    pub peak: u64,
    /// Allocation calls since process start.
    pub calls: u64,
    /// Bytes requested since process start.
    pub bytes: u64,
}

/// Reads the counters.
pub fn read() -> HeapReading {
    HeapReading {
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Restarts the high-water mark from the current live size and returns the
/// reading at that moment — the "step entry" reference.
pub fn mark() -> HeapReading {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    HeapReading { live, peak: live, calls: CALLS.load(Relaxed), bytes: BYTES.load(Relaxed) }
}

/// What one bracketed region did to the heap.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapDelta {
    /// Peak live bytes inside the region above the live bytes at its entry.
    pub peak_above_entry: u64,
    /// Allocation calls inside the region.
    pub calls: u64,
    /// Bytes requested inside the region.
    pub bytes: u64,
}

/// The heap activity since `entry` (a reading taken by [`mark`]).
pub fn since(entry: HeapReading) -> HeapDelta {
    let now = read();
    HeapDelta {
        peak_above_entry: now.peak.saturating_sub(entry.live),
        calls: now.calls - entry.calls,
        bytes: now.bytes - entry.bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bracket_sees_a_transient_allocation() {
        // Other test threads allocate concurrently, so only lower bounds
        // are exact here.
        let entry = mark();
        let v = std::hint::black_box(vec![1u8; 1 << 20]);
        drop(v);
        let d = since(entry);
        assert!(d.calls >= 1);
        assert!(d.bytes >= 1 << 20);
        assert!(d.peak_above_entry >= 1 << 20);
    }
}
