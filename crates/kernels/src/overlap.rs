//! Dependency-aware GEMM driver: overlap a chunked gather with the GEMM
//! that consumes it.
//!
//! The TP+SP layer's `g` region all-gathers the sequence shard and feeds it
//! to a row-parallel GEMM (`C = A·B` or `C = A·Bᵀ` with the gathered rows as
//! *output* rows). Because every output row depends on exactly one gathered
//! row, a row band of `C` can start as soon as the chunk carrying its `A`
//! rows has arrived — the remaining chunks are still in flight while compute
//! proceeds. [`gemm_gathered`] runs that pipeline: the calling thread (the
//! rank thread) fetches chunks in ascending order via a caller-supplied
//! closure, and `threads − 1` workers consume row bands as their chunks
//! land.
//!
//! ## Determinism
//!
//! The work units are [`TILE_M`]-row bands running the flat kernel's
//! packed microkernel (`band_gemm`) with the same ascending-`k`
//! single-accumulator chain per output element; `B` is packed into panels
//! once, before any chunk is fetched, and shared read-only by every band.
//! Every `C[i][j]` is therefore the identical float expression no matter
//! how many threads run or in which order chunks arrive, which keeps the
//! overlapped path **bit-identical** to the exposed
//! (gather-everything-then-GEMM) path.
//!
//! That whole-`B` pack is a weight-sized transient the flat [`gemm`]
//! no longer holds — it streams `B` through fixed per-worker blocks. It
//! stays here on purpose: whether this driver is kept at all is the open
//! overlap verdict (overlap must shorten the step or be deleted), and
//! that verdict decides whether its bands learn to stream too.
//!
//! [`gemm`]: crate::gemm::gemm
//! Contraction-side consumers (`Aᵀ·B`) have no such row decomposition and
//! must use the assembled tensor; [`gemm_gathered`] can fill one
//! (`assembled`) as chunks land so a downstream weight-gradient GEMM pays
//! no extra gather.

use crate::backend::Backend;
use crate::gemm::{band_gemm, PackedB, TILE_M};
use crate::simd::simd_level;
use mt_sync::{Condvar, Mutex, OnceCell};
use mt_trace::ArgValue;
use std::collections::VecDeque;
use std::sync::Arc;

/// One contiguous run of output rows delivered by a chunk. The chunk's
/// payload is the concatenation of its slabs' `A` rows in declaration
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSlab {
    /// First output row this slab covers.
    pub out_row0: usize,
    /// Number of rows.
    pub rows: usize,
}

/// Which output rows each fetched chunk delivers, in fetch order.
///
/// The slabs of all chunks together must cover every output row exactly
/// once (chunks may be empty). For an all-gather of an `r`-row shard over
/// `n` ranks split with `chunk_rows(r, C, j) = (a, b)`, chunk `j` has one
/// slab per rank: `ChunkSlab { out_row0: i·r + a, rows: b − a }`.
#[derive(Debug, Clone, Default)]
pub struct OverlapPlan {
    /// Per-chunk slab lists.
    pub chunks: Vec<Vec<ChunkSlab>>,
}

impl OverlapPlan {
    /// Total output rows covered by the plan.
    pub fn total_rows(&self) -> usize {
        self.chunks.iter().flatten().map(|s| s.rows).sum()
    }
}

/// What [`gemm_gathered`] measured, in microseconds of the shared process
/// clock ([`mt_trace::monotonic_us`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverlapReport {
    /// Total time the rank thread spent inside the fetch closure.
    pub comm_us: u64,
    /// Portion of `comm_us` during which no band was computing and none
    /// was ready — communication the pipeline failed to hide. The exposed
    /// path has `exposed_us == comm_us` by construction.
    pub exposed_us: u64,
    /// Number of row-band work units executed.
    pub bands: usize,
}

struct Ctl {
    ready: VecDeque<usize>,
    fetched: usize,
    busy: usize,
    in_comm: bool,
    exposed_since: Option<u64>,
    exposed_us: u64,
}

impl Ctl {
    /// Called with the lock held whenever compute or comm state changed:
    /// opens the exposed-time window iff comm is in flight and the compute
    /// side has gone idle with nothing queued.
    fn update_exposure(&mut self) {
        if self.in_comm && self.busy == 0 && self.ready.is_empty() {
            if self.exposed_since.is_none() {
                self.exposed_since = Some(mt_trace::monotonic_us());
            }
        } else if let Some(t0) = self.exposed_since.take() {
            self.exposed_us += mt_trace::monotonic_us().saturating_sub(t0);
        }
    }
}

/// A row band: `rows` output rows starting at `out_row0`, whose `A` rows
/// live at element offset `a_off + a_row0·k` of chunk `chunk`'s payload.
struct BandSpec {
    chunk: usize,
    a_off: usize,
    a_row0: usize,
    rows: usize,
    out_row0: usize,
}

/// `C = A·B` (or `A·Bᵀ` when `transpose_b`) where `A` arrives in chunks.
///
/// `fetch(j)` must return chunk `j`'s payload — the `A` rows of the chunk's
/// slabs, concatenated in slab order, `rows·k` elements. It is called on
/// the calling thread in ascending `j` order (collective chunks are SPMD
/// sub-rendezvous, so order is part of the protocol). `out` is `[m, n]`
/// row-major with `m = plan.total_rows()`; `assembled`, when given, is an
/// `[m, k]` buffer filled with the gathered `A` for contraction-side
/// consumers that need the whole tensor.
///
/// With `backend` threads `t`, the driver uses the calling thread for
/// fetching (it joins compute after the last fetch) and `t − 1` workers
/// for bands; `t = 1` degenerates to fetch-then-compute per chunk on one
/// thread. Results are bit-identical across all backends and chunk
/// counts — see the module docs. Unlike the flat kernel, it packs the
/// whole `B` once up front (a `k·n` transient), pending the overlap
/// verdict the module docs describe.
///
/// # Panics
///
/// Panics if the plan does not cover `out` exactly, or a fetched payload
/// has the wrong length.
#[allow(clippy::too_many_arguments)] // mirrors the flat gemm() ABI
pub fn gemm_gathered(
    backend: Backend,
    transpose_b: bool,
    n: usize,
    k: usize,
    plan: &OverlapPlan,
    b: &[f32],
    out: &mut [f32],
    mut assembled: Option<&mut [f32]>,
    mut fetch: impl FnMut(usize) -> Vec<f32>,
) -> OverlapReport {
    let m = plan.total_rows();
    assert_eq!(out.len(), m * n, "gemm_gathered: C length vs m*n");
    assert_eq!(b.len(), k * n, "gemm_gathered: B length vs k*n");
    if let Some(a) = assembled.as_deref() {
        assert_eq!(a.len(), m * k, "gemm_gathered: assembled length vs m*k");
    }
    let total_chunks = plan.chunks.len();

    // Split every slab into TILE_M-row bands (the kernel's work unit) and
    // index them by ascending output row so `out` can be pre-split.
    let mut bands: Vec<BandSpec> = Vec::new();
    for (j, slabs) in plan.chunks.iter().enumerate() {
        let mut a_off = 0;
        for slab in slabs {
            let mut r0 = 0;
            while r0 < slab.rows {
                let rows = TILE_M.min(slab.rows - r0);
                bands.push(BandSpec {
                    chunk: j,
                    a_off,
                    a_row0: r0,
                    rows,
                    out_row0: slab.out_row0 + r0,
                });
                r0 += rows;
            }
            a_off += slab.rows * k;
        }
    }
    bands.sort_by_key(|s| s.out_row0);
    let mut covered = 0;
    for s in &bands {
        assert_eq!(s.out_row0, covered, "gemm_gathered: plan must cover rows exactly once");
        covered += s.rows;
    }
    assert_eq!(covered, m, "gemm_gathered: plan covers {covered} of {m} rows");

    let threads = backend.threads();
    // Pack B into panels once, before any chunk is in flight; every band on
    // every worker reads the same packed panels, so the packing cost is
    // paid once per GEMM instead of once per band.
    let pack_t0 = mt_trace::monotonic_us();
    let pb = PackedB::pack(transpose_b, n, k, b);
    let packing_us = mt_trace::monotonic_us().saturating_sub(pack_t0);
    let simd = simd_level();
    let tracer = mt_trace::current();
    let mut span = tracer.span_args("gemm_overlapped", || {
        vec![
            ("kind", ArgValue::from(if transpose_b { "nt" } else { "nn" })),
            ("m", ArgValue::from(m)),
            ("n", ArgValue::from(n)),
            ("k", ArgValue::from(k)),
            ("chunks", ArgValue::from(total_chunks)),
            ("tiles", ArgValue::from(bands.len())),
            ("threads", ArgValue::from(threads)),
        ]
    });

    // Band -> disjoint &mut window of `out`; each is taken exactly once.
    let mut slots: Vec<Mutex<Option<&mut [f32]>>> = Vec::with_capacity(bands.len());
    let mut rest = out;
    for s in &bands {
        let (band, tail) = rest.split_at_mut(s.rows * n);
        slots.push(Mutex::new(Some(band)));
        rest = tail;
    }
    let chunk_bands: Vec<Vec<usize>> = (0..total_chunks)
        .map(|j| (0..bands.len()).filter(|&i| bands[i].chunk == j).collect())
        .collect();

    let payloads: Vec<OnceCell<Arc<Vec<f32>>>> =
        (0..total_chunks).map(|_| OnceCell::new()).collect();
    let ctl = Mutex::new(Ctl {
        ready: VecDeque::new(),
        fetched: 0,
        busy: 0,
        in_comm: false,
        exposed_since: None,
        exposed_us: 0,
    });
    let cond = Condvar::new();

    // One band's compute, shared by workers and the rank thread.
    let run_band = |i: usize| {
        let spec = &bands[i];
        let payload = payloads[spec.chunk].get().expect("payload set before band queued").clone();
        let slot = slots[i].lock().take().expect("band taken once");
        let a_slab = &payload[spec.a_off..];
        band_gemm(simd, false, a_slab, k, spec.a_row0, spec.rows, n, k, &pb, slot);
    };
    // Pull bands until the queue is dry; `wait_for_more` decides whether a
    // dry queue before the last fetch means "park on the condvar" (workers)
    // or "go do something else" (the rank thread between fetches).
    let work_loop = |wait_for_more: bool| loop {
        let band = {
            let mut st = ctl.lock();
            loop {
                if let Some(i) = st.ready.pop_front() {
                    st.busy += 1;
                    st.update_exposure();
                    break Some(i);
                }
                if st.fetched == total_chunks || !wait_for_more {
                    break None;
                }
                cond.wait(&mut st);
            }
        };
        let Some(i) = band else { return };
        run_band(i);
        let mut st = ctl.lock();
        st.busy -= 1;
        st.update_exposure();
    };

    let workers = threads.saturating_sub(1).min(bands.len());
    let mut comm_us = 0u64;
    mt_sync::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| work_loop(true));
        }
        for j in 0..total_chunks {
            {
                let mut st = ctl.lock();
                st.in_comm = true;
                st.update_exposure();
            }
            let t0 = mt_trace::monotonic_us();
            let payload = fetch(j);
            comm_us += mt_trace::monotonic_us().saturating_sub(t0);
            let expect: usize = plan.chunks[j].iter().map(|s| s.rows * k).sum();
            assert_eq!(payload.len(), expect, "gemm_gathered: chunk {j} payload length");
            if let Some(dst) = assembled.as_deref_mut() {
                let mut off = 0;
                for slab in &plan.chunks[j] {
                    dst[slab.out_row0 * k..(slab.out_row0 + slab.rows) * k]
                        .copy_from_slice(&payload[off..off + slab.rows * k]);
                    off += slab.rows * k;
                }
            }
            payloads[j].set(Arc::new(payload)).expect("chunk fetched once");
            {
                let mut st = ctl.lock();
                st.in_comm = false;
                st.fetched += 1;
                st.ready.extend(chunk_bands[j].iter().copied());
                st.update_exposure();
            }
            cond.notify_all();
            if workers == 0 {
                // Single-threaded: drain what this chunk unlocked before
                // blocking on the next rendezvous.
                work_loop(false);
            }
        }
        // All chunks fetched; the rank thread becomes a worker.
        work_loop(true);
    });

    let st = ctl.into_inner();
    let report =
        OverlapReport { comm_us, exposed_us: st.exposed_us.min(comm_us), bands: bands.len() };
    // Close-time args mirror the exact integers the caller books into its
    // comm ledger, so profile attribution can cross-check them exactly.
    span.arg("comm_us", report.comm_us);
    span.arg("exposed_us", report.exposed_us);
    span.arg("packing_us", packing_us);
    drop(span);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm;

    fn filled(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    /// The all-gather slab layout: `ranks` interleaved shards of
    /// `shard_rows` rows each, split into `chunks` pieces.
    fn gather_plan(ranks: usize, shard_rows: usize, chunks: usize) -> OverlapPlan {
        let mut plan = OverlapPlan::default();
        for j in 0..chunks {
            let (a, b) = (j * shard_rows / chunks, (j + 1) * shard_rows / chunks);
            plan.chunks.push(
                (0..ranks)
                    .map(|i| ChunkSlab { out_row0: i * shard_rows + a, rows: b - a })
                    .collect(),
            );
        }
        plan
    }

    /// Cuts the gathered `A` into the per-chunk payloads `fetch` returns.
    fn payload(a: &[f32], k: usize, plan: &OverlapPlan, j: usize) -> Vec<f32> {
        let mut p = Vec::new();
        for slab in &plan.chunks[j] {
            p.extend_from_slice(&a[slab.out_row0 * k..(slab.out_row0 + slab.rows) * k]);
        }
        p
    }

    #[test]
    fn overlapped_gemm_is_bit_identical_to_serial() {
        // Ragged everything: shard_rows 37 over chunks {1,2,4,7}, ragged
        // bands (TILE_M = 32), both NN and NT consumers.
        let (ranks, shard_rows, n, k) = (2, 37, 9, 33);
        let m = ranks * shard_rows;
        let a = filled(m * k, 7);
        for transpose_b in [false, true] {
            let b = filled(k * n, 8);
            let mut want = vec![0.0f32; m * n];
            gemm(Backend::Serial, false, transpose_b, m, n, k, &a, &b, &mut want);
            for chunks in [1usize, 2, 4, 7] {
                let plan = gather_plan(ranks, shard_rows, chunks);
                for threads in 1..=6 {
                    let mut got = vec![0.0f32; m * n];
                    let mut asm = vec![0.0f32; m * k];
                    let report = gemm_gathered(
                        Backend::Threaded { threads },
                        transpose_b,
                        n,
                        k,
                        &plan,
                        &b,
                        &mut got,
                        Some(&mut asm),
                        |j| payload(&a, k, &plan, j),
                    );
                    assert!(
                        want.iter().zip(&got).all(|(w, g)| w.to_bits() == g.to_bits()),
                        "tb={transpose_b} chunks={chunks} threads={threads}"
                    );
                    assert_eq!(asm, a, "assembled tensor mismatch");
                    let expect_bands: usize =
                        plan.chunks.iter().flatten().map(|s| s.rows.div_ceil(TILE_M)).sum();
                    assert_eq!(report.bands, expect_bands);
                }
            }
        }
    }

    #[test]
    fn empty_chunks_and_zero_rows_are_tolerated() {
        // chunks > shard_rows leaves some chunks empty; they must still be
        // fetched (they are rendezvous) but produce no bands.
        let (ranks, shard_rows, n, k) = (3, 2, 4, 5);
        let m = ranks * shard_rows;
        let a = filled(m * k, 1);
        let b = filled(k * n, 2);
        let plan = gather_plan(ranks, shard_rows, 5);
        let mut fetched = Vec::new();
        let mut got = vec![0.0f32; m * n];
        let report = gemm_gathered(Backend::Serial, false, n, k, &plan, &b, &mut got, None, |j| {
            fetched.push(j);
            payload(&a, k, &plan, j)
        });
        assert_eq!(fetched, vec![0, 1, 2, 3, 4], "every chunk rendezvous happens, in order");
        let mut want = vec![0.0f32; m * n];
        gemm(Backend::Serial, false, false, m, n, k, &a, &b, &mut want);
        assert_eq!(got, want);
        assert!(report.comm_us >= report.exposed_us);
    }

    #[test]
    #[should_panic(expected = "payload length")]
    fn wrong_payload_length_is_rejected() {
        let plan = gather_plan(1, 4, 2);
        let b = vec![0.0f32; 6];
        let mut out = vec![0.0f32; 4 * 2];
        gemm_gathered(Backend::Serial, false, 2, 3, &plan, &b, &mut out, None, |_| vec![0.0; 1]);
    }
}
