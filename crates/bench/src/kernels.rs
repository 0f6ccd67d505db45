//! `mt-bench kernels [--smoke]`: micro-benchmarks of the `mt-kernels`
//! compute kernels — the GEMM family, row softmax and GeLU (forward and
//! backward), LayerNorm, and the streaming attention core (keeping forward,
//! replay, backward over kept probabilities, and the backward that replays
//! them block by block) — written to `reports/BENCH_kernels.json`.
//!
//! Every kernel/shape is one [`Bench`]. The run first checks, bench by
//! bench, that the threaded backend is **bit-identical** to serial (the
//! crate's determinism contract — a benchmark of wrong results is
//! worthless), then makes [`PASSES`] timed passes over the *whole* list,
//! `reps` repetitions of both backends back to back in each, and records
//! each entry's best wall time and the GFLOP/s derived from it; GEMM
//! entries also carry `packing_us`, the time spent packing `A` and `B`
//! blocks, summed over the workers. Both loops are needed on a shared
//! host: back-to-back repetitions reach the warm-cache floor, and because
//! the host slows down in bursts of milliseconds — which cover every
//! repetition of a 20 µs kernel at once — the passes give each kernel
//! samples a second apart.
//! `--smoke` shrinks shapes and repetitions to a CI-friendly few seconds
//! while still exercising the whole schema.
//!
//! Speedups are honest wall-clock for *this* machine: where the host cannot
//! run two GEMMs at once the threaded backend ties serial, the report's
//! `host.parallel_capacity` says so, and `mt-bench gate` asks only that
//! threading never loses there.

use mt_bench::harness::{fill, time_ms, write_report, Host};
use mt_kernels::attention::{self, AttnShape, Saved};
use mt_kernels::{gemm, Backend};
use mt_tensor::rng::{CounterRng, StreamKey};
use serde_json::{json, Value};
use std::process::ExitCode;

/// Timed passes over the whole bench list.
const PASSES: usize = 3;

/// Serial, and the "one socket" worker count of the threaded leg.
const BACKENDS: [Backend; 2] = [Backend::Serial, Backend::Threaded { threads: 4 }];

/// Executes a kernel on a backend, leaving its outputs in the buffer list —
/// written in place when the kernel takes an output slice, replaced when it
/// returns fresh vectors — and returns the GEMM packing microseconds, if it
/// packs.
type Run<'a> = Box<dyn FnMut(Backend, &mut Vec<Vec<f32>>) -> Option<u64> + 'a>;

/// One kernel at one shape; `out_len` sizes the one buffer an in-place `run`
/// writes. Non-GEMM kernels reuse `mnk` for their own extents, so every
/// entry has the same key fields.
struct Bench<'a> {
    kernel: &'static str,
    kind: &'static str,
    mnk: (usize, usize, usize),
    flops: f64,
    out_len: usize,
    run: Run<'a>,
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Inputs of the attention core at one shape, shared by its four benches.
struct AttnCase {
    sh: AttnShape,
    key: StreamKey,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    dctx: Vec<f32>,
    /// What a keeping forward saves and the backward reads.
    saved: Saved,
}

impl AttnCase {
    fn new(seq: usize, head_dim: usize, heads: usize, micro_batch: usize) -> AttnCase {
        let sh = AttnShape {
            seq,
            micro_batch,
            heads,
            head_dim,
            head_offset: 0,
            local_heads: heads,
            causal: true,
            scale: 1.0 / (head_dim as f32).sqrt(),
            dropout_p: 0.1,
        };
        let key = CounterRng::new(7).stream(0);
        let uniform = |offset| key.uniform(offset);
        let len = seq * micro_batch * heads * head_dim;
        let (q, k, v, dctx) = (fill(len, 6), fill(len, 7), fill(len, 8), fill(len, 9));
        let saved = attention::forward(Backend::Serial, &sh, &uniform, &q, &k, &v, true)
            .1
            .expect("a keeping forward keeps");
        // The replay must rebuild exactly what the keeping forward saved,
        // and the replaying backward must return exactly the kept one's
        // gradients.
        let replayed = attention::replay(Backend::Serial, &sh, &uniform, &q, &k);
        assert!(
            same_bits(&saved.probs, &replayed.probs)
                && same_bits(&saved.dropped, &replayed.dropped),
            "determinism violation: attention s{seq} hd{head_dim} replay != keeping forward"
        );
        let backward =
            |saved| attention::backward(Backend::Serial, &sh, &uniform, &q, &k, &v, saved, &dctx);
        let (kept, replaying) = (backward(Some(&saved)), backward(None));
        assert!(
            kept.iter().zip(&replaying).all(|(a, b)| same_bits(a, b)),
            "determinism violation: attention s{seq} hd{head_dim} backward_replaying != backward"
        );
        AttnCase { sh, key, q, k, v, dctx, saved }
    }
}

pub fn run(smoke: bool) -> ExitCode {
    let reps = if smoke { 3 } else { 7 };
    // (m, n, k, kinds): `kinds` limits a shape to specific transpose pairs
    // (ALL = the three benched kinds). 512³ stays in the smoke set on
    // purpose — it is the shape the gate's speedup rule reads, so even CI
    // smoke runs produce a judgeable number. The (512, 384, 1536) /
    // (1024, 1024, 4096) cases are GPT-layer-shaped NT/TN (activation- and
    // weight-gradient GEMMs of a hidden-384/1024 layer), the strided
    // layouts the packed microkernel exists to fix. The three single-kind
    // cases are `wide_mlp`'s MLP GEMMs (128 tokens, h 1024): the `w1`
    // forward, the dgrad against `w1` (k = 4h = 4096, several `KC`
    // slices) and the `w1` weight gradient.
    type Kinds = &'static [(bool, bool)];
    const ALL: Kinds = &[(false, false), (false, true), (true, false)];
    const GPT: Kinds = &[(false, true), (true, false)];
    const NN: Kinds = &[(false, false)];
    const NT: Kinds = &[(false, true)];
    const TN: Kinds = &[(true, false)];
    let gemm_cases: &[(usize, usize, usize, Kinds)] = if smoke {
        &[
            (64, 64, 64, ALL),
            (96, 48, 80, ALL),
            (512, 512, 512, ALL),
            (512, 384, 1536, GPT),
            (128, 4096, 1024, NN),
            (128, 1024, 4096, NT),
            (1024, 4096, 128, TN),
        ]
    } else {
        &[
            (128, 128, 128, ALL),
            (256, 256, 256, ALL),
            (512, 512, 512, ALL),
            (512, 384, 1536, GPT),
            (1024, 1024, 4096, GPT),
            (128, 4096, 1024, NN),
            (128, 1024, 4096, NT),
            (1024, 4096, 128, TN),
        ]
    };
    let (rows, cols) = if smoke { (256, 64) } else { (4096, 512) };

    println!(
        "mt-bench kernels: {} mode, threaded = {} workers, best of {PASSES} passes × {reps}",
        if smoke { "smoke" } else { "full" },
        BACKENDS[1].threads()
    );
    let mut host = Host::measure();

    // Inputs the row-wise and attention benches borrow.
    let x = fill(rows * cols, 3);
    let dy = fill(rows * cols, 10);
    let mut probs = x.clone();
    mt_kernels::softmax_rows(Backend::Serial, rows, cols, true, &mut probs);
    let (gamma, beta) = (fill(cols, 4), fill(cols, 5));
    let (mut mean, mut rstd) = (vec![0.0f32; rows], vec![0.0f32; rows]);
    // The attention core at the two shapes the training benchmark leans on
    // (long_seq's `s 640 · hd 32 · a 8 · b 1`, the TP workloads'
    // `s 128 · hd 64 · a 8 · b 2`), causal with dropout.
    let attn = [AttnCase::new(640, 32, 8, 1), AttnCase::new(128, 64, 8, 2)];

    let mut benches: Vec<Bench> = Vec::new();
    for &(m, n, k, kinds) in gemm_cases {
        for &(ta, tb) in kinds {
            let (a, b) = (fill(m * k, 1), fill(k * n, 2));
            benches.push(Bench {
                kernel: "gemm",
                kind: gemm::kind_label(ta, tb),
                mnk: (m, n, k),
                flops: 2.0 * m as f64 * n as f64 * k as f64,
                out_len: m * n,
                run: Box::new(move |backend, outs| {
                    let stats = gemm::gemm_stats(backend, ta, tb, m, n, k, &a, &b, &mut outs[0]);
                    Some(stats.packing_us)
                }),
            });
        }
    }

    // Row-wise kernels: one representative shape each. Approximate flop
    // counts per element (exp/tanh counted as one) keep the GFLOP/s column
    // comparable across runs, not across kernels.
    let elems = rows * cols;
    benches.push(Bench {
        kernel: "softmax",
        kind: "causal",
        mnk: (rows, cols, 0),
        flops: 5.0 * elems as f64,
        out_len: elems,
        run: Box::new(|backend, outs| {
            outs[0].copy_from_slice(&x);
            mt_kernels::softmax_rows(backend, rows, cols, true, &mut outs[0]);
            None
        }),
    });
    benches.push(Bench {
        kernel: "softmax",
        kind: "backward",
        mnk: (rows, cols, 0),
        flops: 4.0 * elems as f64,
        out_len: elems,
        run: Box::new(|backend, outs| {
            mt_kernels::softmax_rows_backward(backend, rows, cols, &probs, &dy, &mut outs[0]);
            None
        }),
    });
    benches.push(Bench {
        kernel: "layer_norm",
        kind: "forward",
        mnk: (rows, cols, 0),
        flops: 8.0 * elems as f64,
        out_len: elems,
        run: Box::new(|backend, outs| {
            let (g, b, out) = (&gamma, &beta, &mut outs[0]);
            mt_kernels::layer_norm(backend, rows, cols, 1e-5, &x, g, b, out, &mut mean, &mut rstd);
            None
        }),
    });
    benches.push(Bench {
        kernel: "gelu",
        kind: "forward",
        mnk: (elems, 1, 0),
        flops: 14.0 * elems as f64,
        out_len: elems,
        run: Box::new(|backend, outs| {
            mt_kernels::gelu(backend, &x, &mut outs[0]);
            None
        }),
    });
    benches.push(Bench {
        kernel: "gelu",
        kind: "backward",
        mnk: (elems, 1, 0),
        flops: 20.0 * elems as f64,
        out_len: elems,
        run: Box::new(|backend, outs| {
            mt_kernels::gelu_backward(backend, &x, &dy, &mut outs[0]);
            None
        }),
    });

    // Attention entries carry `m = s`, `n = head_dim`, `k = a·b`; GFLOP/s
    // counts the causal half of each call's GEMMs only.
    for c in &attn {
        let AttnShape { seq, head_dim, heads, micro_batch, .. } = c.sh;
        let units = heads * micro_batch;
        let pair_flops = (units * seq * (seq + 1) / 2 * 2 * head_dim) as f64;
        let bench = |kind, gemms: f64, run| Bench {
            kernel: "attention",
            kind,
            mnk: (seq, head_dim, units),
            flops: gemms * pair_flops,
            out_len: 0,
            run,
        };
        let uniform = |offset| c.key.uniform(offset);
        benches.push(bench(
            "forward",
            2.0,
            Box::new(move |backend, outs| {
                let (ctx, kept) =
                    attention::forward(backend, &c.sh, &uniform, &c.q, &c.k, &c.v, true);
                let kept = kept.expect("a keeping forward keeps");
                *outs = vec![ctx, kept.probs, kept.dropped];
                None
            }),
        ));
        benches.push(bench(
            "replay",
            1.0,
            Box::new(move |backend, outs| {
                let kept = attention::replay(backend, &c.sh, &uniform, &c.q, &c.k);
                *outs = vec![kept.probs, kept.dropped];
                None
            }),
        ));
        benches.push(bench(
            "backward",
            5.0,
            Box::new(move |backend, outs| {
                let (q, k, v, saved) = (&c.q, &c.k, &c.v, Some(&c.saved));
                *outs =
                    attention::backward(backend, &c.sh, &uniform, q, k, v, saved, &c.dctx).into();
                None
            }),
        ));
        benches.push(bench(
            "backward_replaying",
            6.0,
            Box::new(move |backend, outs| {
                let (q, k, v) = (&c.q, &c.k, &c.v);
                *outs =
                    attention::backward(backend, &c.sh, &uniform, q, k, v, None, &c.dctx).into();
                None
            }),
        ));
    }

    // Threaded == serial, bit for bit, before anything is timed.
    let mut outs: Vec<Vec<Vec<f32>>> = Vec::new();
    for bench in &mut benches {
        let [mut serial, mut threaded] = [(); 2].map(|_| vec![vec![0.0f32; bench.out_len]]);
        (bench.run)(BACKENDS[0], &mut serial);
        (bench.run)(BACKENDS[1], &mut threaded);
        assert!(
            serial.len() == threaded.len()
                && serial.iter().zip(&threaded).all(|(s, t)| same_bits(s, t)),
            "determinism violation: {} {} {:?} threaded != serial",
            bench.kernel,
            bench.kind,
            bench.mnk
        );
        outs.push(serial);
    }

    // (best ms, least packing µs) per bench and backend.
    let mut best = vec![[(f64::INFINITY, None::<u64>); 2]; benches.len()];
    for _ in 0..PASSES {
        for ((bench, outs), best) in benches.iter_mut().zip(&mut outs).zip(&mut best) {
            for _ in 0..reps {
                for (slot, backend) in best.iter_mut().zip(BACKENDS) {
                    let mut packed = None;
                    let ms = time_ms(|| packed = (bench.run)(backend, outs));
                    *slot = (slot.0.min(ms), [slot.1, packed].into_iter().flatten().min());
                }
            }
        }
        // Probed after every pass: the speedup the gate demands depends on
        // it, so it must have held throughout.
        host.recheck_capacity();
    }

    let mut results: Vec<Value> = Vec::new();
    for (bench, best) in benches.iter().zip(best) {
        let (m, n, k) = bench.mnk;
        for ((best_ms, packing_us), backend) in best.into_iter().zip(BACKENDS) {
            let gflops = bench.flops / (best_ms / 1e3) / 1e9;
            println!(
                "  {:<11} {:<18} {m:>7}x{n:<4}x{k:<4} {:<8} t={:<3} {best_ms:>9.3} ms \
                 {gflops:>8.2} GFLOP/s",
                bench.kernel,
                bench.kind,
                backend.label(),
                backend.threads(),
            );
            let mut entry = json!({
                "kernel": bench.kernel,
                "kind": bench.kind,
                "m": m,
                "n": n,
                "k": k,
                "backend": backend.label(),
                "threads": backend.threads(),
                "best_ms": best_ms,
                "gflops": gflops,
            });
            if let (Some(p), Value::Object(fields)) = (packing_us, &mut entry) {
                fields.push(("packing_us".to_string(), json!(p)));
            }
            results.push(entry);
        }
    }

    let params =
        json!({ "passes": PASSES, "reps": reps, "threaded_workers": BACKENDS[1].threads() });
    write_report("kernels", smoke, &host, params, results);
    ExitCode::SUCCESS
}
