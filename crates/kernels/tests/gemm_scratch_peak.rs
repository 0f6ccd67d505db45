//! Scratch bytes of one GEMM call. The flat kernel streams both operands
//! through fixed per-worker blocks — at most 512 KiB of packed `B` and
//! `MC·KC` = 64 KiB of packed `A` — so with the output preallocated a
//! call's peak live heap above entry stays within 576 KiB per worker (plus
//! the fan-out's own few hundred bytes per spawned worker), however large
//! the weight it multiplies. A kernel that packed the whole
//! `B` first would hold a weight-sized copy: 16 MiB at the shapes below,
//! which are `wide_mlp`'s MLP GEMMs (128 tokens, h 1024, 4h 4096).
//!
//! `gemm_add` adds the product into an output that holds a running sum.
//! Beyond `gemm`'s blocks each of its workers holds one `[MC, ≤ n]` block
//! of the product, never a scratch the size of the output.
//!
//! The counting allocator is this test binary's own, and the one test
//! measures every case in sequence, so no other test's allocations land in
//! its window.

use mt_kernels::gemm::{gemm_add, gemm_stats, kind_label};
use mt_kernels::Backend;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// `System`, counting live bytes and their high-water mark.
struct Counting;

fn grew(size: usize) {
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards the caller's layout/pointer unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the bookkeeping
// touches only the atomics above and never the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for `layout`, as the caller
        // guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, all passed through as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Peak live bytes above the live bytes at entry while `f` runs.
fn peak_above_entry<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let entry = LIVE.load(Relaxed);
    PEAK.store(entry, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - entry)
}

/// Scratch one worker may hold: a 512 KiB `B` block and a 64 KiB `A`
/// block.
const PER_WORKER: usize = 576 * 1024;

/// Rows of one `gemm_add` product block (the kernel's `MC`).
const MC: usize = 64;

/// What a fan-out itself allocates per spawned worker: its entry in the
/// worker list and the scoped spawn's handles — a few hundred bytes, far
/// below any buffer a worker could hold. A serial call allocates none.
const PER_SPAWN: usize = 1024;

#[test]
fn a_gemm_call_holds_fixed_blocks_per_worker_not_a_packed_weight() {
    // (m, n, k, transpose_a, transpose_b): the w1 forward, the dgrad
    // against w1, the w1 weight gradient.
    let cases = [
        (128, 4096, 1024, false, false),
        (128, 1024, 4096, false, true),
        (1024, 4096, 128, true, false),
    ];
    for (m, n, k, ta, tb) in cases {
        let a = vec![0.5f32; m * k];
        let b = vec![0.25f32; k * n];
        let mut out = vec![0.0f32; m * n];
        for backend in [Backend::Serial, Backend::Threaded { threads: 2 }] {
            let (stats, peak) =
                peak_above_entry(|| gemm_stats(backend, ta, tb, m, n, k, &a, &b, &mut out));
            assert_eq!(stats.threads_used, backend.threads(), "every case fans out fully");
            let bound = stats.threads_used * PER_WORKER + (stats.threads_used - 1) * PER_SPAWN;
            assert!(
                peak <= bound,
                "{} {m}x{n}x{k} on {} workers peaked {peak} B above entry; the bound is \
                 {bound} B ({PER_WORKER} B per worker, {PER_SPAWN} B per spawn)",
                kind_label(ta, tb),
                stats.threads_used,
            );
            assert_eq!(out[0], 0.125 * k as f32, "the call computed the product");
            // The same product added into that output: the workers' count
            // is the policy's, as above, and each may hold one product
            // block of at most `MC` rows of `n` values more.
            let (_, peak) =
                peak_above_entry(|| gemm_add(backend, ta, tb, m, n, k, &a, &b, &mut out));
            let workers = stats.threads_used;
            let bound = workers * (PER_WORKER + MC * n * 4) + (workers - 1) * PER_SPAWN;
            assert!(
                peak <= bound,
                "gemm_add {} {m}x{n}x{k} on {workers} workers peaked {peak} B above entry; the \
                 bound is {bound} B ({PER_WORKER} B and one {MC}x{n} block per worker, \
                 {PER_SPAWN} B per spawn)",
                kind_label(ta, tb),
            );
            assert_eq!(out[0], 0.25 * k as f32, "the call added the product");
        }
    }
}
