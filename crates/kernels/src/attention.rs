//! The streaming attention core: `QKᵀ → softmax → dropout → ·V` and its
//! backward, in query-row blocks, one work unit per `(batch, head)`.
//!
//! This is the region the paper's Figure 3 marks in red — cheap to
//! recompute, expensive to keep (`5as²b` of a layer's `34sbh`). The core
//! never builds an `[s, s]` matrix it was not asked to keep: a unit walks
//! its `s` query rows in blocks of [`BLOCK`], and for rows `r0..r1` does
//!
//! ```text
//! scores = Q[r0..r1] · Kᵀ × scale      one band of the packed microkernel
//! probs  = softmax(scores) per row     the row arithmetic of `softmax_rows`
//! pd     = dropout(probs)              counter-RNG draws, inline
//! ctx[r0..r1] = pd · V                 one band
//! ```
//!
//! through a `[BLOCK, s]` scratch — or, when the caller keeps the
//! probabilities, directly in the block's panels of the two [`Saved`]
//! buffers it gets back. The backward walks the same blocks; given no kept
//! probabilities it replays each block's `probs` / `pd` panels into two
//! `[BLOCK, s]` scratches just before that block's `dV`, `dP → dS`, `dQ`
//! and `dK`, with `dS` written over `pd` once `dV` has read it, so a
//! recomputing policy never holds an `[s, s]` matrix either.
//!
//! A block's *panel* is its rows at the width the block computes,
//! `limit(r1 − 1)`, which is also the panel's row stride
//! ([`AttnShape::panel`]). The kept buffers are the concatenation of the
//! panels, so under the causal mask a unit keeps its block-triangular
//! `Σ rows · width` elements ([`AttnShape::kept_len`]), not `s²`; the
//! scratch, the kept panels and the backward's `dS` all share that layout.
//!
//! `K` and `V` (and `Q`, `dctx` in the backward) are packed once
//! per unit, straight out of the packed `[s·b, heads·head_dim]` activation
//! layout ([`PackedB::pack_strided`]); a block multiplies against a
//! *window* of that pack, so nothing is repacked and no head is ever
//! extracted into a matrix of its own.
//!
//! ## Causal: compute only what is read
//!
//! Under the causal mask query `q` sees keys `0..=q`. Block `r0..r1`
//! therefore multiplies against `K[..r1]` and `V[..r1]` only, draws dropout
//! bits for `k ≤ q` only, and the backward's four products skip the same
//! triangle: `dP = dctx·Vᵀ` and `dQ = dS·K` are cut to `r1` columns /
//! contraction terms per block, and `dK = dSᵀ·Q`, `dV = Pdᵀ·dctx` — whose
//! contraction runs over *query* rows — are accumulated block by block into
//! rows `..r1` only. What is never computed is never kept either: the
//! columns `r1..s` of a block are masked for each of its rows, so the
//! [`Saved`] panels end at column `r1`, and a kept core holds
//! `Σ rows · r1` elements per unit instead of `s²`.
//!
//! ## Why this is bit-exact and not approximately so
//!
//! The reference is the whole-matrix composition (`[s, s]` GEMM → scale →
//! `softmax_rows` → mask → dropout → GEMM, and the mirror-image backward).
//! Every kept element is produced by the identical float expression:
//!
//! * **Row arithmetic is shared.** The softmax row and the backward's
//!   `⟨dy, y⟩` are the functions `softmax_rows` / `softmax_rows_backward`
//!   run; scale and dropout are the same one multiply.
//! * **Every product element is one ascending chain.** The microkernel
//!   computes each output as `acc = +0.0; acc = a.mul_add(b, acc)` over
//!   ascending `k` (one rounding of `a·b + acc` per step), whatever the
//!   band height, the window or the thread count. Blocks change which
//!   worker runs a chain, not the chain.
//! * **A skipped term is `(±0)·finite`, and it can change a chain only at
//!   `−0.0`.** A masked probability is exactly `+0.0` and a masked `dS` is
//!   `(+0.0)·x = ±0.0`, so each skipped term's product is exactly `±0.0`
//!   for finite inputs, and `fma(±0, x, acc)` is `acc` bit for bit for
//!   every `acc` other than `−0.0`, which a `+0.0` product turns into
//!   `+0.0`. Dropping leading terms (`dSᵀ·Q`, `Pdᵀ·dctx`) therefore leaves
//!   the accumulator at the `+0.0` it started from. Dropping trailing ones
//!   (`pd·V`, `dS·K`) keeps every chain's bits except one that ends at
//!   `−0.0`, which the whole-matrix composition's first `+0.0` term turns
//!   into `+0.0`. A fused chain reaches `−0.0` only when a step rounds a
//!   negative `a·b + acc` of magnitude at most 2⁻¹⁵⁰ (half the least
//!   subnormal) to zero, and keeps it only through zero products. That
//!   value has a bit below 2⁻¹⁴⁹, so the step's exact product is below
//!   2⁻¹⁰²: the element's surviving products all underflow (or cancel to
//!   within that). A mul-then-add chain never held `−0.0`: a sum of two
//!   floats rounds to zero only when it is exactly zero, and is then
//!   `+0.0` unless both were `−0.0`.
//! * **Adding into zeros settles the sign.** Those two chains feed only
//!   `ctx` and `dQ`, and every unit's slab is added into a zeroed packed
//!   buffer (as the composition scattered each head with `+=`), which reads
//!   `−0.0` as `+0.0`. So the core's outputs keep the composition's bits
//!   even where its chains end at `−0.0`; `mt-model`'s
//!   `attention_equivalence` checks this at a scale where they do.
//! * **A contraction delivered in slices continues its chain.** `dK` and
//!   `dV` rows receive one slice of query rows per block; the microkernel
//!   loads the accumulator from the output instead of zeroing it, so the
//!   result is the single ascending chain, not a sum of partial sums.
//! * **A replayed block is the forward's block.** The forward, the replay
//!   and the replaying backward all produce rows `r0..r1` of `probs` and
//!   `pd` by one function, `probs_block`, over the same `Q` rows, the same
//!   `Kᵀ` panels and the same counter-RNG offsets, into a panel of the same
//!   width and stride, and write the masked tail of every row as `+0.0`,
//!   so the backward reads the same bits from a scratch panel as from a
//!   kept one.
//! * **An unstored entry is one no product reads.** A kept panel stops at
//!   its block's width `r1`; the entries past it are masked for every row
//!   of the block, so the whole-matrix form holds `+0.0` there, and the
//!   products above skip them as `±0` terms. Nothing the core computes
//!   reads them, so not storing them changes no bit.
//! * **The one value that can differ is never an output.** The softmax
//!   backward's `⟨dy, y⟩` is cut to the unmasked prefix, and `f32`'s
//!   iterator sum starts from `−0.0`, so where the whole-matrix form may
//!   end on `+0.0` (a masked `(+0.0)·dy` term flipped it) the prefix can
//!   end on `−0.0`. It is consumed only as `dy − dot`, and `dy − (+0.0)`
//!   and `dy − (−0.0)` agree unless `dy` is `−0.0`. An unmasked `dy` is a
//!   `dctx·Vᵀ` chain value, times a dropout scale `≥ 1`, or a literal
//!   `0.0`, so it is `−0.0` only where that chain underflowed as above;
//!   there the two `dS` entries differ in the sign of a zero. As a term of
//!   the `dQ` and `dK` chains such an entry can change only the sign of a
//!   chain that is zero at that step (the next non-zero product rounds the
//!   same from `+0.0` and `−0.0`), and adding into zeros settles that.
//!   Masked `dS` entries may differ in the sign of zero too — they are the
//!   skipped terms above.
//!
//! `tests::skipping_the_masked_triangle_changes_no_bit` checks the block
//! products against the full GEMM on inputs whose masked entries are `+0.0`
//! and on inputs whose masked entries are `−0.0`;
//! `tests::replaying_backward_is_the_kept_backward` checks the replaying
//! backward against the kept one; `mt-model`'s `attention_equivalence`
//! suite checks the whole core against the composition it replaced.
//!
//! ## Work units and fan-out
//!
//! A unit is one `(batch, head)` — fixed by the shape, never by the thread
//! count — and runs start to finish on one worker, its GEMMs serial on the
//! band kernel. Units are dealt by [`pool::run_indexed`] over
//! [`Backend::threads_for_work`] workers: one scoped fan-out per call,
//! which also parallelises the softmax, RNG and packing. Each unit writes
//! its own `[s, head_dim]` slab of a head-major buffer; the calling thread
//! interleaves the slabs into the packed layout afterwards.

use crate::backend::Backend;
use crate::gemm::{band_gemm_window, ARows, BWindow, PackedB};
use crate::pool;
use crate::rowwise::{softmax_row, softmax_row_dot};
use crate::simd::{self, simd_level, Simd};
use mt_trace::ArgValue;

/// Query rows per block: the height of the `[BLOCK, s]` scratch, and of the
/// band each block's products run as.
pub const BLOCK: usize = 64;

/// What one `(query, key)` pair costs outside the GEMMs (`exp`, the RNG
/// draw, the row passes), in the FLOP-equivalents
/// [`Backend::threads_for_work`] is calibrated in, measured like the row
/// kernels' (`rowwise.rs`, `mod work`): ≈ 2.6 ns of softmax row and ≈ 2.3 ns
/// of draw per pair at 29 FLOP/ns, ≈ 140 FLOP-equivalents, cut to a third.
const PAIR_WORK: u64 = 48;

/// Shape of one attention-core call over packed `[s·b, local_heads·head_dim]`
/// operands (row `si·b + batch`, column `local_head·head_dim + d`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttnShape {
    /// Sequence length `s`.
    pub seq: usize,
    /// Microbatch size `b`.
    pub micro_batch: usize,
    /// Global head count `a` (addresses the dropout bits).
    pub heads: usize,
    /// Per-head dimension.
    pub head_dim: usize,
    /// First global head of this call.
    pub head_offset: usize,
    /// Heads in this call.
    pub local_heads: usize,
    /// Apply the causal mask.
    pub causal: bool,
    /// Score scale (`1/√head_dim`).
    pub scale: f32,
    /// Softmax-dropout probability, in `[0, 1)`.
    pub dropout_p: f32,
}

/// The probabilities the attention core must keep for its backward pass
/// when it is *not* being recomputed — the softmax outputs (`2as²b` bytes in
/// the paper's accounting) and the dropout outputs (`2as²b`), in one flat
/// buffer each, unit-major (`batch · local_heads + local_head`), each unit
/// [`AttnShape::kept_len`] long.
///
/// A unit's share is block-triangular: the concatenation of its query-row
/// blocks, block `r0..r1` stored as a dense `rows × width` panel at row
/// stride `width = limit(r1 − 1)` ([`AttnShape::panel`]) — exactly the
/// columns the core computes for that block. Under the causal mask the
/// columns past a block's `width` are masked for every row of the block, so
/// they are `+0.0` and never read (see the module docs), and are not
/// stored; masked entries inside a panel are stored as `+0.0`. Non-causal,
/// or with `s ≤ BLOCK`, every panel is `s` wide and a unit is its dense
/// `[s, s]` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Saved {
    /// Softmax outputs.
    pub probs: Vec<f32>,
    /// Post-dropout probabilities.
    pub dropped: Vec<f32>,
}

impl AttnShape {
    fn units(&self) -> usize {
        self.micro_batch * self.local_heads
    }

    fn width(&self) -> usize {
        self.local_heads * self.head_dim
    }

    /// Elements between consecutive sequence positions of one unit.
    fn ld(&self) -> usize {
        self.micro_batch * self.width()
    }

    /// Offset of a unit's position-0 row in a packed operand.
    fn base(&self, unit: usize) -> usize {
        let (batch, lh) = (unit / self.local_heads, unit % self.local_heads);
        batch * self.width() + lh * self.head_dim
    }

    /// Counter-RNG offset of a unit's `(q, k) = (0, 0)`; `(q, k)` adds
    /// `q·s + k`. Addressed by *global* head so every sharding draws the
    /// same bits.
    fn rng_base(&self, unit: usize) -> u64 {
        let (batch, lh) = (unit / self.local_heads, unit % self.local_heads);
        ((batch * self.heads + self.head_offset + lh) * self.seq * self.seq) as u64
    }

    /// Keys query row `q` sees.
    fn limit(&self, q: usize) -> usize {
        if self.causal {
            q + 1
        } else {
            self.seq
        }
    }

    /// Where query-row block `r0..min(r0 + BLOCK, s)` of a unit's kept
    /// probabilities lives: its offset in the unit's share of a [`Saved`]
    /// buffer, and its width, `limit(r1 − 1)`, which is also its row
    /// stride. Under the causal mask every earlier block is a full `BLOCK`
    /// rows, block `j` being `(j + 1)·BLOCK` wide.
    ///
    /// # Panics
    ///
    /// Panics if `r0` is not a multiple of [`BLOCK`] below `s`.
    pub fn panel(&self, r0: usize) -> (usize, usize) {
        assert!(r0.is_multiple_of(BLOCK) && r0 < self.seq, "panel: {r0} does not start a block");
        let blocks = r0 / BLOCK;
        let offset =
            if self.causal { BLOCK * BLOCK * blocks * (blocks + 1) / 2 } else { r0 * self.seq };
        (offset, self.limit((r0 + BLOCK).min(self.seq) - 1))
    }

    /// Elements one unit keeps in each [`Saved`] buffer: `Σ rows · width`
    /// over its blocks ([`AttnShape::panel`]); `s²` when every block is `s`
    /// wide.
    pub fn kept_len(&self) -> usize {
        if self.seq == 0 {
            return 0;
        }
        let last = (self.seq - 1) / BLOCK * BLOCK;
        let (offset, width) = self.panel(last);
        offset + (self.seq - last) * width
    }

    /// The dense `[units, s, s]` form of a [`Saved`] buffer: each panel at
    /// its rows and first `width` columns, `+0.0` where nothing is stored —
    /// what the whole-matrix composition holds there. For oracles that
    /// compare the kept state against that composition.
    ///
    /// # Panics
    ///
    /// Panics if `kept` is not `units ·` [`AttnShape::kept_len`] long.
    pub fn dense(&self, kept: &[f32]) -> Vec<f32> {
        let s = self.seq;
        assert_eq!(kept.len(), self.units() * self.kept_len(), "dense: kept length");
        let mut dense = vec![0.0f32; self.units() * s * s];
        for (share, matrix) in kept.chunks(self.kept_len()).zip(dense.chunks_mut(s * s)) {
            for r0 in (0..s).step_by(BLOCK) {
                let (offset, width) = self.panel(r0);
                let rows = (r0 + BLOCK).min(s) - r0;
                let panel = &share[offset..offset + rows * width];
                for (i, row) in panel.chunks(width).enumerate() {
                    matrix[(r0 + i) * s..(r0 + i) * s + width].copy_from_slice(row);
                }
            }
        }
        dense
    }

    /// `(query, key)` pairs one unit computes.
    fn pairs(&self) -> u64 {
        let s = self.seq as u64;
        if self.causal {
            s * (s + 1) / 2
        } else {
            s * s
        }
    }

    /// Fan-out for a call whose units run `gemms` products each.
    fn threads(&self, backend: Backend, gemms: u64) -> usize {
        let per_pair = 2 * gemms * self.head_dim as u64 + PAIR_WORK;
        backend.threads_for_work(self.units() as u64 * self.pairs() * per_pair).min(self.units())
    }

    fn check(&self, what: &str, operands: &[(&str, &[f32])]) {
        assert!((0.0..1.0).contains(&self.dropout_p), "{what}: p must be in [0,1)");
        for (name, t) in operands {
            assert_eq!(t.len(), self.seq * self.ld(), "{what}: {name} length vs s·b·width");
        }
    }

    fn span(&self, name: &'static str, threads: usize) -> mt_trace::SpanGuard {
        let sh = *self;
        mt_trace::current().span_args(name, move || {
            vec![
                ("seq", ArgValue::from(sh.seq)),
                ("head_dim", ArgValue::from(sh.head_dim)),
                ("causal", ArgValue::from(sh.causal)),
                ("tiles", ArgValue::from(sh.units())),
                ("threads", ArgValue::from(threads)),
            ]
        })
    }

    /// Interleaves per-unit `[s, head_dim]` slabs into the packed layout.
    /// Adds into zeros rather than copying: a `−0.0` (a scaled gradient
    /// that underflowed) lands as `+0.0`, as it did when each head was
    /// scattered with `+=`.
    fn interleave(&self, slabs: &[f32]) -> Vec<f32> {
        let (s, hd, ld) = (self.seq, self.head_dim, self.ld());
        let mut packed = vec![0.0f32; s * ld];
        for (unit, slab) in slabs.chunks(s * hd).enumerate() {
            let base = self.base(unit);
            for (si, row) in slab.chunks(hd).enumerate() {
                for (o, &v) in packed[si * ld + base..si * ld + base + hd].iter_mut().zip(row) {
                    *o += v;
                }
            }
        }
        packed
    }

    /// Inverted dropout over one row's unmasked prefix, in place; `offset`
    /// is the counter-RNG offset of the row's column 0.
    #[inline]
    fn dropout_row<U: Fn(u64) -> f32>(
        &self,
        simd: Simd,
        uniform: &U,
        offset: u64,
        row: &mut [f32],
    ) {
        if self.dropout_p != 0.0 {
            simd::run(simd, DropoutRow { uniform, offset, p: self.dropout_p }, &[], &[], row);
        }
    }
}

/// The body of [`AttnShape::dropout_row`]: a kept element is `v · 1/(1−p)`,
/// a dropped one `+0.0`, chosen by masking the bits rather than by a
/// branch, so the draws and the select vectorise.
struct DropoutRow<'a, U> {
    uniform: &'a U,
    offset: u64,
    p: f32,
}

impl<U: Fn(u64) -> f32> simd::Body for DropoutRow<'_, U> {
    #[inline(always)]
    fn run(self, _: &[f32], _: &[f32], row: &mut [f32]) {
        let keep_scale = 1.0 / (1.0 - self.p);
        for (j, v) in row.iter_mut().enumerate() {
            let keep = ((self.uniform)(self.offset + j as u64) >= self.p) as u32;
            *v = f32::from_bits((*v * keep_scale).to_bits() & keep.wrapping_neg());
        }
    }
}

/// One worker's band runner: the SIMD level plus the `A`-packing scratch
/// every product of a unit reuses.
struct Bands {
    simd: Simd,
    a_tiles: Vec<f32>,
}

impl Bands {
    /// `c = a · b` (with `add`: `c += a · b`, continuing `c`'s chains), `c`
    /// at row stride `ldc`.
    fn product(&mut self, a: ARows<'_>, b: BWindow<'_>, c: &mut [f32], ldc: usize, add: bool) {
        if add {
            band_gemm_window::<true>(self.simd, a, b, c, ldc, &mut self.a_tiles);
        } else {
            band_gemm_window::<false>(self.simd, a, b, c, ldc, &mut self.a_tiles);
        }
    }
}

/// `rows` rows of a row-major `a` (row stride `stride`) from `row0`.
fn rows_of(a: &[f32], stride: usize, row0: usize, rows: usize) -> ARows<'_> {
    ARows { a, stride, transposed: false, row0, rows }
}

/// The transpose of a `[k, cols]` block of `a`: its first `cols` columns as
/// op(A) rows.
fn columns_of(a: &[f32], stride: usize, cols: usize) -> ARows<'_> {
    ARows { a, stride, transposed: true, row0: 0, rows: cols }
}

/// Attention-core forward. Returns the packed context `[s·b, width]` and,
/// with `keep`, the probabilities a stored backward needs; without it no
/// `[s, s]` buffer is allocated at all.
///
/// `uniform` maps a counter offset to a uniform `[0, 1)` draw (the model
/// passes its counter RNG bound to the layer's softmax-dropout stream).
///
/// # Panics
///
/// Panics if `q`/`k`/`v` are not `s·b·width` long or `dropout_p` is
/// outside `[0, 1)`.
pub fn forward<U: Fn(u64) -> f32 + Sync>(
    backend: Backend,
    sh: &AttnShape,
    uniform: &U,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    keep: bool,
) -> (Vec<f32>, Option<Saved>) {
    sh.check("attention forward", &[("q", q), ("k", k), ("v", v)]);
    let (ctx, saved) =
        forward_blocks(backend, sh, uniform, q, k, Some(v), keep, "kernel_attention");
    (ctx.expect("forward_blocks returns a context when given V"), saved)
}

/// Rebuilds [`Saved`] from `Q` and `K` alone, whole. Bit-identical to what
/// a keeping [`forward`] returned. A recomputing backward does not need it:
/// [`backward`] given no [`Saved`] replays the same rows block by block.
///
/// # Panics
///
/// Panics if `q`/`k` are not `s·b·width` long or `dropout_p` is outside
/// `[0, 1)`.
pub fn replay<U: Fn(u64) -> f32 + Sync>(
    backend: Backend,
    sh: &AttnShape,
    uniform: &U,
    q: &[f32],
    k: &[f32],
) -> Saved {
    sh.check("attention replay", &[("q", q), ("k", k)]);
    let (_, saved) =
        forward_blocks(backend, sh, uniform, q, k, None, true, "kernel_attention_replay");
    saved.expect("forward_blocks keeps when asked")
}

/// The one forward body: `v` present ⇒ compute the context; `keep` ⇒ write
/// the probabilities into returned buffers instead of the scratch.
#[expect(clippy::too_many_arguments, reason = "private body of two public spellings")]
fn forward_blocks<U: Fn(u64) -> f32 + Sync>(
    backend: Backend,
    sh: &AttnShape,
    uniform: &U,
    q: &[f32],
    k: &[f32],
    v: Option<&[f32]>,
    keep: bool,
    span_name: &'static str,
) -> (Option<Vec<f32>>, Option<Saved>) {
    let (s, hd, units, kept) = (sh.seq, sh.head_dim, sh.units(), sh.kept_len());
    let threads = sh.threads(backend, if v.is_some() { 2 } else { 1 });
    let _span = sh.span(span_name, threads);
    let simd = simd_level();
    let mut saved =
        keep.then(|| Saved { probs: vec![0.0; units * kept], dropped: vec![0.0; units * kept] });
    let mut ctx_slabs = v.map(|_| vec![0.0f32; units * s * hd]);
    if units * s * hd > 0 {
        let mut ctx_it = ctx_slabs.as_mut().map(|c| c.chunks_mut(s * hd));
        let mut kept_it =
            saved.as_mut().map(|sv| sv.probs.chunks_mut(kept).zip(sv.dropped.chunks_mut(kept)));
        let items: Vec<_> = (0..units)
            .map(|_| {
                (
                    ctx_it.as_mut().and_then(Iterator::next),
                    kept_it.as_mut().and_then(Iterator::next),
                )
            })
            .collect();
        pool::run_indexed(threads, items, |unit, (ctx, kept)| {
            forward_unit(simd, sh, uniform, unit, q, k, v.zip(ctx), kept);
        });
    }
    (ctx_slabs.map(|slabs| sh.interleave(&slabs)), saved)
}

/// One `(batch, head)` forward: every row block, in ascending order.
#[expect(clippy::too_many_arguments, reason = "private unit body")]
fn forward_unit<U: Fn(u64) -> f32>(
    simd: Simd,
    sh: &AttnShape,
    uniform: &U,
    unit: usize,
    q: &[f32],
    k: &[f32],
    v_ctx: Option<(&[f32], &mut [f32])>,
    mut kept: Option<(&mut [f32], &mut [f32])>,
) {
    let (s, hd, ld, base) = (sh.seq, sh.head_dim, sh.ld(), sh.base(unit));
    // Kᵀ as the right operand of Q·Kᵀ (key panels), V as that of pd·V.
    let kt = PackedB::pack_strided(true, s, hd, &k[base..], ld);
    let mut v_ctx =
        v_ctx.map(|(v, ctx)| (PackedB::pack_strided(false, hd, s, &v[base..], ld), ctx));
    let mut bands = Bands { simd, a_tiles: Vec::new() };
    let mut scratch = if kept.is_some() { Vec::new() } else { vec![0.0f32; BLOCK.min(s) * s] };
    for r0 in (0..s).step_by(BLOCK) {
        let r1 = (r0 + BLOCK).min(s);
        let (offset, cols) = sh.panel(r0);
        let panel = offset..offset + (r1 - r0) * cols;
        // Where this block's probabilities live: its kept panels, or scratch.
        let (probs, mut dropped) = match &mut kept {
            Some((p, d)) => (&mut p[panel.clone()], Some(&mut d[panel])),
            None => (&mut scratch[..panel.len()], None),
        };
        probs_block(&mut bands, sh, uniform, unit, q, &kt, r0, r1, probs, dropped.as_deref_mut());
        if let Some((vp, ctx)) = &mut v_ctx {
            let pd: &[f32] = dropped.as_deref().unwrap_or(probs);
            let values = BWindow { pb: vp, n: hd, k0: 0, k: cols };
            let out = &mut ctx[r0 * hd..r1 * hd];
            bands.product(rows_of(pd, cols, 0, r1 - r0), values, out, hd, false);
        }
    }
}

/// The one block body of the core: rows `r0..r1` of unit `unit`'s
/// probabilities, `softmax(Q[r0..r1] · Kᵀ × scale)`, into the panel `probs`,
/// and their dropout into the panel `dropped` — or in place in `probs`
/// without it. `kt` is the unit's `Kᵀ` pack. A panel is the block's
/// `limit(r1 − 1)` computed columns of each row at that row stride
/// ([`AttnShape::panel`]), and every element of it is written: a row's
/// masked tail is `+0.0` in both, so a reused scratch holds what a kept
/// panel holds.
#[expect(clippy::too_many_arguments, reason = "private block body")]
fn probs_block<U: Fn(u64) -> f32>(
    bands: &mut Bands,
    sh: &AttnShape,
    uniform: &U,
    unit: usize,
    q: &[f32],
    kt: &PackedB,
    r0: usize,
    r1: usize,
    probs: &mut [f32],
    mut dropped: Option<&mut [f32]>,
) {
    let (s, rows, cols) = (sh.seq, r1 - r0, sh.limit(r1 - 1));
    let rng_base = sh.rng_base(unit);
    let keys = BWindow { pb: kt, n: cols, k0: 0, k: sh.head_dim };
    bands.product(rows_of(&q[sh.base(unit)..], sh.ld(), r0, rows), keys, probs, cols, false);
    for i in 0..rows {
        let limit = sh.limit(r0 + i);
        let row = &mut probs[i * cols..(i + 1) * cols];
        for x in row[..limit].iter_mut() {
            *x *= sh.scale;
        }
        softmax_row(bands.simd, row, limit);
        let pd = match &mut dropped {
            Some(d) => {
                let (pd, masked) = d[i * cols..(i + 1) * cols].split_at_mut(limit);
                pd.copy_from_slice(&row[..limit]);
                masked.fill(0.0);
                pd
            }
            None => &mut row[..limit],
        };
        sh.dropout_row(bands.simd, uniform, rng_base + ((r0 + i) * s) as u64, pd);
    }
}

/// Attention-core backward: packed `(dQ, dK, dV)` from the packed inputs,
/// the probabilities and the upstream context gradient. With `saved`, the
/// probabilities are a keeping [`forward`]'s; without, each unit replays
/// them from `Q`, `K` and `uniform` one row block at a time, just ahead of
/// that block's backward — bit-identical either way, and no `[s, s]`
/// buffer is allocated.
///
/// # Panics
///
/// Panics if an operand is not `s·b·width` long, a saved buffer is not
/// `units ·` [`AttnShape::kept_len`] long, or `dropout_p` is outside
/// `[0, 1)`.
#[expect(
    clippy::too_many_arguments,
    reason = "flat slice ABI; mt-model's attention_backward is the ergonomic entry"
)]
pub fn backward<U: Fn(u64) -> f32 + Sync>(
    backend: Backend,
    sh: &AttnShape,
    uniform: &U,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    saved: Option<&Saved>,
    dctx: &[f32],
) -> [Vec<f32>; 3] {
    sh.check("attention backward", &[("q", q), ("k", k), ("v", v), ("dctx", dctx)]);
    let (s, hd, units, kept) = (sh.seq, sh.head_dim, sh.units(), sh.kept_len());
    if let Some(saved) = saved {
        assert_eq!(saved.probs.len(), units * kept, "attention backward: saved probs length");
        assert_eq!(saved.dropped.len(), units * kept, "attention backward: saved dropped length");
    }
    // A replaying unit runs one more product per block: Q·Kᵀ.
    let threads = sh.threads(backend, if saved.is_some() { 5 } else { 6 });
    let mut span = sh.span("kernel_attention_backward", threads);
    span.arg("replay", saved.is_none());
    let simd = simd_level();
    let mut slabs = [(); 3].map(|()| vec![0.0f32; units * s * hd]);
    if units * s * hd > 0 {
        let [dq, dk, dv] = &mut slabs;
        let items: Vec<_> = dq
            .chunks_mut(s * hd)
            .zip(dk.chunks_mut(s * hd))
            .zip(dv.chunks_mut(s * hd))
            .map(|((dq, dk), dv)| (dq, dk, dv))
            .collect();
        pool::run_indexed(threads, items, |unit, (dq, dk, dv)| {
            let kept = saved.map(|sv| {
                let share = unit * kept..(unit + 1) * kept;
                (&sv.probs[share.clone()], &sv.dropped[share])
            });
            backward_unit(simd, sh, uniform, unit, q, k, v, kept, dctx, dq, dk, dv);
        });
    }
    slabs.map(|slab| sh.interleave(&slab))
}

/// Where a backward unit reads its probabilities from.
enum Probs<'a> {
    /// A keeping forward's `probs` / `dropped` matrices for this unit.
    Kept(&'a [f32], &'a [f32]),
    /// Replayed by [`probs_block`] one block at a time, from the unit's
    /// `Kᵀ` pack: `probs` into a `[BLOCK, s]` scratch, `pd` into the unit's
    /// work panel.
    Replayed { kt: PackedB, probs: Vec<f32> },
}

/// One `(batch, head)` backward: every row block, in ascending order — the
/// order `dK`/`dV`'s accumulator chains need. Each block runs
/// `dV += pdᵀ·dctx` first, `pd`'s last read, so a replayed `pd` and the
/// block's `dP → dS` share one `[BLOCK, s]` work panel: a replaying worker
/// holds two such buffers, a kept one one. `dV`'s chain is per element
/// across blocks and no other product of the block reads it or writes what
/// it reads, so the order moves no bit.
#[expect(clippy::too_many_arguments, reason = "private unit body")]
fn backward_unit<U: Fn(u64) -> f32>(
    simd: Simd,
    sh: &AttnShape,
    uniform: &U,
    unit: usize,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    kept: Option<(&[f32], &[f32])>,
    dctx: &[f32],
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
) {
    let (s, hd, ld, base) = (sh.seq, sh.head_dim, sh.ld(), sh.base(unit));
    let rng_base = sh.rng_base(unit);
    let vt = PackedB::pack_strided(true, s, hd, &v[base..], ld);
    let kp = PackedB::pack_strided(false, hd, s, &k[base..], ld);
    let qp = PackedB::pack_strided(false, hd, s, &q[base..], ld);
    let dcp = PackedB::pack_strided(false, hd, s, &dctx[base..], ld);
    let mut source = match kept {
        Some((probs, dropped)) => Probs::Kept(probs, dropped),
        None => Probs::Replayed {
            kt: PackedB::pack_strided(true, s, hd, &k[base..], ld),
            probs: vec![0.0f32; BLOCK.min(s) * s],
        },
    };
    let mut bands = Bands { simd, a_tiles: Vec::new() };
    let mut work = vec![0.0f32; BLOCK.min(s) * s];
    for r0 in (0..s).step_by(BLOCK) {
        let r1 = (r0 + BLOCK).min(s);
        let rows = r1 - r0;
        let (offset, cols) = sh.panel(r0);
        let len = rows * cols;
        // This block's panels of probs and pd, at row stride cols: kept,
        // or replayed (pd into the work panel).
        let (probs, kept_pd): (&[f32], Option<&[f32]>) = match &mut source {
            Probs::Kept(probs, dropped) => {
                (&probs[offset..offset + len], Some(&dropped[offset..offset + len]))
            }
            Probs::Replayed { kt, probs } => {
                let (probs, pd) = (&mut probs[..len], &mut work[..len]);
                probs_block(&mut bands, sh, uniform, unit, q, kt, r0, r1, probs, Some(pd));
                (&*probs, None)
            }
        };
        // dV[..cols] += pdᵀ · dctx[r0..r1]
        let pd = kept_pd.unwrap_or(&work[..len]);
        let dctx_rows = BWindow { pb: &dcp, n: hd, k0: r0, k: rows };
        bands.product(columns_of(pd, cols, cols), dctx_rows, &mut dv[..cols * hd], hd, true);
        // dP = dctx · Vᵀ, then dropout and softmax backward row by row: the
        // work panel holds dP, then dS.
        let ds = &mut work[..len];
        let keys = BWindow { pb: &vt, n: cols, k0: 0, k: hd };
        bands.product(rows_of(&dctx[base..], ld, r0, rows), keys, ds, cols, false);
        for i in 0..rows {
            let limit = sh.limit(r0 + i);
            let (d, masked) = ds[i * cols..(i + 1) * cols].split_at_mut(limit);
            sh.dropout_row(simd, uniform, rng_base + ((r0 + i) * s) as u64, d);
            let y = &probs[i * cols..i * cols + limit];
            let dot = softmax_row_dot(y, d);
            for (g, &yv) in d.iter_mut().zip(y) {
                *g = yv * (*g - dot);
            }
            masked.fill(0.0);
        }
        // dQ[r0..r1] = dS · K
        let k_rows = BWindow { pb: &kp, n: hd, k0: 0, k: cols };
        bands.product(rows_of(ds, cols, 0, rows), k_rows, &mut dq[r0 * hd..r1 * hd], hd, false);
        // dK[..cols] += dSᵀ · Q[r0..r1]
        let q_rows = BWindow { pb: &qp, n: hd, k0: r0, k: rows };
        bands.product(columns_of(ds, cols, cols), q_rows, &mut dk[..cols * hd], hd, true);
    }
    // scores = scale · q · kᵀ
    for x in dq.iter_mut().chain(dk.iter_mut()) {
        *x *= sh.scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, NR};

    fn filled(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A stand-in counter RNG: any pure function of the offset will do.
    fn uniform(offset: u64) -> f32 {
        let z = (offset ^ 0x5eed).wrapping_mul(0x9e3779b97f4a7c15);
        ((z ^ (z >> 29)) >> 40) as f32 / (1u64 << 24) as f32
    }

    fn shape(seq: usize, micro_batch: usize, heads: usize, head_dim: usize) -> AttnShape {
        AttnShape {
            seq,
            micro_batch,
            heads,
            head_dim,
            head_offset: 0,
            local_heads: heads,
            causal: true,
            scale: 1.0 / (head_dim as f32).sqrt(),
            dropout_p: 0.1,
        }
    }

    /// The `±0` argument of the module docs, at slice level: the windowed
    /// block products the causal core runs equal the full GEMM over the
    /// whole square, bit for bit, whether the masked triangle holds `+0.0`
    /// (probabilities) or `−0.0` (a `dS` can).
    #[test]
    fn skipping_the_masked_triangle_changes_no_bit() {
        // s ragged against BLOCK, TILE_M, MR and NR; n ragged against NR.
        let (s, n) = (150, 11);
        let b = filled(s * n, 2);
        for masked in [0.0f32, -0.0] {
            let mut a = filled(s * s, 1);
            for i in 0..s {
                a[i * s + i + 1..(i + 1) * s].fill(masked);
            }
            // Trailing zeros: C = A · B, rows r0..r1 cut to k = r1 (pd·V, dS·K).
            let mut full = vec![0.0f32; s * n];
            gemm(Backend::Serial, false, false, s, n, s, &a, &b, &mut full);
            // Leading zeros: C = Aᵀ · B, rows ..r1 fed one query block at a
            // time (dSᵀ·Q, Pdᵀ·dctx).
            let mut full_t = vec![0.0f32; s * n];
            gemm(Backend::Serial, true, false, s, n, s, &a, &b, &mut full_t);

            let pb = PackedB::pack(false, n, s, &b);
            let mut bands = Bands { simd: simd_level(), a_tiles: Vec::new() };
            let (mut blocked, mut blocked_t) = (vec![0.0f32; s * n], vec![0.0f32; s * n]);
            for r0 in (0..s).step_by(BLOCK) {
                let r1 = (r0 + BLOCK).min(s);
                let prefix = BWindow { pb: &pb, n, k0: 0, k: r1 };
                let out = &mut blocked[r0 * n..r1 * n];
                let rows = &a[r0 * s..r1 * s];
                bands.product(rows_of(rows, s, 0, r1 - r0), prefix, out, n, false);
                let slice = BWindow { pb: &pb, n, k0: r0, k: r1 - r0 };
                bands.product(columns_of(rows, s, r1), slice, &mut blocked_t[..r1 * n], n, true);
            }
            assert_eq!(bits(&full), bits(&blocked), "A·B, masked = {masked:?}");
            assert_eq!(bits(&full_t), bits(&blocked_t), "Aᵀ·B, masked = {masked:?}");
        }
    }

    #[test]
    fn a_window_of_a_pack_is_the_pack_of_the_window() {
        // Key-panel prefix (n cut on a panel boundary) and a k slice, against
        // a GEMM over the explicitly cut operands.
        let (m, n, k) = (9, 40, 21);
        let (a, b) = (filled(m * k, 3), filled(n * k, 4)); // b is [n, k]: transposed B
        let pb = PackedB::pack(true, n, k, &b);
        let (n_cut, k0, k_cut) = (2 * NR, 5, 13);
        let mut got = vec![0.0f32; m * n_cut];
        let win = BWindow { pb: &pb, n: n_cut, k0, k: k_cut };
        let mut bands = Bands { simd: simd_level(), a_tiles: Vec::new() };
        bands.product(rows_of(&a[k0..], k, 0, m), win, &mut got, n_cut, false);
        let a_cut: Vec<f32> =
            (0..m).flat_map(|i| a[i * k + k0..i * k + k0 + k_cut].to_vec()).collect();
        let b_cut: Vec<f32> =
            (0..n_cut).flat_map(|j| b[j * k + k0..j * k + k0 + k_cut].to_vec()).collect();
        let mut want = vec![0.0f32; m * n_cut];
        gemm(Backend::Serial, false, true, m, n_cut, k_cut, &a_cut, &b_cut, &mut want);
        assert_eq!(bits(&want), bits(&got));
    }

    #[test]
    fn keeping_streaming_and_replayed_forwards_agree_bitwise() {
        for causal in [true, false] {
            let mut sh = shape(70, 2, 3, 5);
            sh.causal = causal;
            let len = sh.seq * sh.ld();
            let (q, k, v) = (filled(len, 5), filled(len, 6), filled(len, 7));
            let (ctx_kept, kept) = forward(Backend::Serial, &sh, &uniform, &q, &k, &v, true);
            let (ctx_streamed, none) = forward(Backend::Serial, &sh, &uniform, &q, &k, &v, false);
            assert!(none.is_none(), "a streaming forward keeps nothing");
            assert_eq!(bits(&ctx_kept), bits(&ctx_streamed), "causal={causal}");
            let kept = kept.expect("a keeping forward keeps");
            let replayed = replay(Backend::Serial, &sh, &uniform, &q, &k);
            assert_eq!(bits(&kept.probs), bits(&replayed.probs), "causal={causal}");
            assert_eq!(bits(&kept.dropped), bits(&replayed.dropped), "causal={causal}");
            // The kept length is the block sum; every stored masked entry
            // is +0.0.
            let blocks: Vec<_> = (0..sh.seq).step_by(BLOCK).map(|r0| (r0, sh.panel(r0))).collect();
            let share: usize =
                blocks.iter().map(|&(r0, (_, w))| ((r0 + BLOCK).min(sh.seq) - r0) * w).sum();
            assert_eq!(share, if causal { 64 * 64 + 6 * 70 } else { 70 * 70 });
            for buf in [&kept.probs, &kept.dropped] {
                assert_eq!(buf.len(), sh.units() * share, "causal={causal}");
                for (unit, unit_share) in buf.chunks(share).enumerate() {
                    for &(r0, (offset, width)) in &blocks {
                        let rows = (r0 + BLOCK).min(sh.seq) - r0;
                        let panel = &unit_share[offset..offset + rows * width];
                        for (i, row) in panel.chunks(width).enumerate() {
                            let masked = &row[sh.limit(r0 + i)..];
                            assert!(masked.iter().all(|x| x.to_bits() == 0), "{unit} {r0}+{i}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn threaded_is_bit_identical_to_serial_and_fans_out_once() {
        let sh = shape(130, 2, 4, 16);
        let len = sh.seq * sh.ld();
        let (q, k, v, dctx) = (filled(len, 8), filled(len, 9), filled(len, 10), filled(len, 11));
        let (ctx, saved) = forward(Backend::Serial, &sh, &uniform, &q, &k, &v, true);
        let saved = saved.expect("kept");
        let grads = backward(Backend::Serial, &sh, &uniform, &q, &k, &v, Some(&saved), &dctx);
        for threads in 1..=5 {
            let mt = Backend::Threaded { threads };
            let tracer = mt_trace::Tracer::enabled();
            let (ctx_mt, saved_mt, grads_mt, replayed_mt) = {
                let _installed = mt_trace::install(tracer.clone());
                let (ctx_mt, saved_mt) = forward(mt, &sh, &uniform, &q, &k, &v, true);
                let saved_mt = saved_mt.expect("kept");
                let grads_mt = backward(mt, &sh, &uniform, &q, &k, &v, Some(&saved_mt), &dctx);
                let replayed_mt = backward(mt, &sh, &uniform, &q, &k, &v, None, &dctx);
                (ctx_mt, saved_mt, grads_mt, replayed_mt)
            };
            assert_eq!(bits(&ctx), bits(&ctx_mt), "ctx threads={threads}");
            assert_eq!(bits(&saved.probs), bits(&saved_mt.probs), "probs threads={threads}");
            assert_eq!(bits(&saved.dropped), bits(&saved_mt.dropped), "dropped threads={threads}");
            for ((g, g_mt), g_re) in grads.iter().zip(&grads_mt).zip(&replayed_mt) {
                assert_eq!(bits(g), bits(g_mt), "grads threads={threads}");
                assert_eq!(bits(g), bits(g_re), "replaying grads threads={threads}");
            }
            // One span per call, carrying the fan-out the policy granted and,
            // on a backward, whether it replayed.
            let events = tracer.events();
            let names: Vec<&str> = events.iter().map(|e| e.name.as_ref()).collect();
            assert_eq!(
                names,
                ["kernel_attention", "kernel_attention_backward", "kernel_attention_backward"]
            );
            for (e, gemms) in events.iter().zip([2, 5, 6]) {
                let granted = sh.threads(mt, gemms);
                assert_eq!(granted > 1, threads > 1, "the shape must be worth a fan-out");
                assert!(e.args.contains(&("threads", ArgValue::from(granted))), "{:?}", e.args);
            }
            for (e, replay) in events[1..].iter().zip([false, true]) {
                assert!(e.args.contains(&("replay", ArgValue::from(replay))), "{:?}", e.args);
            }
        }
    }

    /// Replaying backward == kept backward, bit for bit, over ragged
    /// lengths, head widths, dropout rates, both masks, an offset head
    /// shard and every backend.
    #[test]
    fn replaying_backward_is_the_kept_backward() {
        let threaded = |threads| Backend::Threaded { threads };
        let backends = [Backend::Serial, threaded(1), threaded(2), threaded(3)];
        for causal in [true, false] {
            for seq in [1, 5, 63, 64, 65, 130, 150] {
                for head_dim in [3, 8, 32] {
                    for dropout_p in [0.0, 0.1, 0.5] {
                        // Heads 1..3 of 3: the RNG offsets of a shard.
                        let mut sh = shape(seq, 1, 3, head_dim);
                        (sh.head_offset, sh.local_heads) = (1, 2);
                        (sh.causal, sh.dropout_p) = (causal, dropout_p);
                        let len = sh.seq * sh.ld();
                        let (q, k, v) = (filled(len, 12), filled(len, 13), filled(len, 14));
                        let dctx = filled(len, 15);
                        let (_, saved) = forward(Backend::Serial, &sh, &uniform, &q, &k, &v, true);
                        let saved = saved.expect("a keeping forward keeps");
                        let grads = |backend, saved: Option<&Saved>| {
                            backward(backend, &sh, &uniform, &q, &k, &v, saved, &dctx)
                                .map(|g| bits(&g))
                        };
                        let kept = grads(Backend::Serial, Some(&saved));
                        for backend in backends {
                            assert_eq!(
                                kept,
                                grads(backend, None),
                                "causal={causal} s={seq} hd={head_dim} p={dropout_p} {backend:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// One unit's forward (band products, softmax rows, dropout) and
    /// replaying backward at every SIMD level this CPU has, against the
    /// baseline instantiation.
    #[test]
    fn every_simd_level_computes_the_same_bits() {
        let sh = shape(133, 1, 2, 12);
        let len = sh.seq * sh.ld();
        let (q, k, v, dctx) = (filled(len, 17), filled(len, 18), filled(len, 19), filled(len, 20));
        let (s, hd) = (sh.seq, sh.head_dim);
        let run = |level| {
            let (mut ctx, mut probs, mut dropped) =
                (vec![0.0; s * hd], vec![0.0; sh.kept_len()], vec![0.0; sh.kept_len()]);
            let kept = Some((&mut probs[..], &mut dropped[..]));
            forward_unit(level, &sh, &uniform, 1, &q, &k, Some((&v, &mut ctx)), kept);
            let mut grads = [(); 3].map(|()| vec![0.0f32; s * hd]);
            let [dq, dk, dv] = &mut grads;
            backward_unit(level, &sh, &uniform, 1, &q, &k, &v, None, &dctx, dq, dk, dv);
            [ctx, probs, dropped].iter().chain(&grads).map(|t| bits(t)).collect::<Vec<_>>()
        };
        let baseline = run(Simd::Scalar);
        for level in simd::levels() {
            assert_eq!(baseline, run(level), "{level:?}");
        }
    }

    #[test]
    fn small_shapes_run_on_one_worker() {
        let sh = shape(16, 1, 2, 8);
        assert_eq!(sh.threads(Backend::Threaded { threads: 8 }, 6), 1);
    }

    #[test]
    #[should_panic(expected = "attention replay: k length")]
    fn rejects_a_short_operand() {
        let sh = shape(8, 1, 2, 4);
        let q = vec![0.0; sh.seq * sh.ld()];
        let _ = replay(Backend::Serial, &sh, &uniform, &q, &q[1..]);
    }
}
