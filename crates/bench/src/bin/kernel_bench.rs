//! Micro-benchmarks for the `mt-kernels` compute kernels, written to
//! `reports/BENCH_kernels.json`.
//!
//! ```text
//! kernel_bench [--smoke] [--threads N]
//! ```
//!
//! Kernels: the GEMM family, row softmax, LayerNorm, GeLU, and the
//! streaming attention core (keeping forward, replay, backward).
//!
//! For every kernel/shape the harness first checks that the threaded backend
//! is **bit-identical** to serial (the crate's determinism contract — a
//! benchmark of wrong results is worthless), then times both backends and
//! records the best-of-N wall time and derived GFLOP/s. `--smoke` shrinks
//! shapes and repetitions to a CI-friendly second while still exercising the
//! whole schema; `--threads` overrides the threaded worker count (default:
//! 4, the shape of the paper-style "one socket" comparison).
//!
//! Speedups shown are honest wall-clock for *this* machine: on a single-core
//! container the threaded backend ties or loses to serial (scoped-thread
//! overhead), and the JSON says so rather than extrapolating. `bench_gate`
//! conditions its parallel-speedup invariant on the recorded
//! `available_parallelism` for exactly that reason.
//!
//! ## Schema v2
//!
//! v2 (the packed-microkernel rewrite) adds:
//! * shapes big enough for threading to pay (512³ even in smoke mode) plus
//!   a GPT-layer-shaped NT/TN pair (attention/MLP backward shapes);
//! * a `packing_us` column on GEMM entries — the panel-packing time the
//!   kernel spends before its banded compute (best across reps);
//! * a top-level `simd` field naming the microkernel path the run used
//!   (`"avx2"` / `"scalar"`, from runtime feature detection).

use mt_kernels::attention::{self, AttnShape};
use mt_kernels::{gemm, Backend};
use mt_tensor::rng::CounterRng;
use std::time::Instant;

const SCHEMA_VERSION: u64 = 2;

struct Entry {
    kernel: &'static str,
    kind: String,
    m: usize,
    n: usize,
    k: usize,
    backend: &'static str,
    threads: usize,
    reps: usize,
    best_ms: f64,
    gflops: f64,
    /// GEMM panel-packing microseconds (best across reps); `None` for
    /// kernels that don't pack.
    packing_us: Option<u64>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut threads = 4usize;
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        threads = args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("--threads requires a positive integer");
            std::process::exit(2);
        });
    }
    if let Some(bad) = args
        .iter()
        .enumerate()
        .find(|(i, a)| {
            a.as_str() != "--smoke"
                && a.as_str() != "--threads"
                && !(*i > 0 && args[i - 1] == "--threads")
        })
        .map(|(_, a)| a)
    {
        eprintln!("unknown argument {bad}\nusage: kernel_bench [--smoke] [--threads N]");
        std::process::exit(2);
    }

    let reps = if smoke { 3 } else { 7 };
    // (m, n, k, kinds): `kinds` limits a shape to specific transpose pairs
    // (ALL = the three benched kinds). 512³ stays in the smoke set on
    // purpose — it is the shape the parallel-speedup gate reads, so even CI
    // smoke runs produce a judgeable number. The (512, 384, 1536) /
    // (1024, 1024, 4096) cases are GPT-layer-shaped NT/TN (activation- and
    // weight-gradient GEMMs of a hidden-384/1024 layer), the strided
    // layouts the packed microkernel exists to fix.
    type Kinds = &'static [(bool, bool)];
    const ALL: Kinds = &[(false, false), (false, true), (true, false)];
    const GPT: Kinds = &[(false, true), (true, false)];
    let gemm_cases: &[(usize, usize, usize, Kinds)] = if smoke {
        &[(64, 64, 64, ALL), (96, 48, 80, ALL), (512, 512, 512, ALL), (512, 384, 1536, GPT)]
    } else {
        &[
            (128, 128, 128, ALL),
            (256, 256, 256, ALL),
            (512, 512, 512, ALL),
            (512, 384, 1536, GPT),
            (1024, 1024, 4096, GPT),
        ]
    };
    let (rows, cols) = if smoke { (256, 64) } else { (4096, 512) };

    let mut results: Vec<Entry> = Vec::new();
    println!(
        "kernel_bench: {} mode, threaded = {threads} workers, best of {reps}",
        if smoke { "smoke" } else { "full" }
    );

    for &(m, n, k, kinds) in gemm_cases {
        for &(ta, tb) in kinds {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let mut serial_out = vec![0.0f32; m * n];
            let mut threaded_out = vec![0.0f32; m * n];
            gemm::gemm(Backend::Serial, ta, tb, m, n, k, &a, &b, &mut serial_out);
            gemm::gemm(Backend::Threaded { threads }, ta, tb, m, n, k, &a, &b, &mut threaded_out);
            assert!(
                serial_out.iter().zip(&threaded_out).all(|(s, t)| s.to_bits() == t.to_bits()),
                "determinism violation: gemm {} {m}x{n}x{k} threaded != serial",
                gemm::kind_label(ta, tb)
            );
            let flops = 2.0 * m as f64 * n as f64 * k as f64;
            for backend in [Backend::Serial, Backend::Threaded { threads }] {
                let mut packing_us = u64::MAX;
                let best_ms = best_of(reps, || {
                    let stats = gemm::gemm_stats(backend, ta, tb, m, n, k, &a, &b, &mut serial_out);
                    packing_us = packing_us.min(stats.packing_us);
                });
                push(
                    &mut results,
                    Entry {
                        kernel: "gemm",
                        kind: gemm::kind_label(ta, tb).to_string(),
                        m,
                        n,
                        k,
                        backend: backend.label(),
                        threads: backend.threads(),
                        reps,
                        best_ms,
                        gflops: flops / (best_ms / 1e3) / 1e9,
                        packing_us: Some(packing_us),
                    },
                );
            }
        }
    }

    // Row-wise kernels: one representative shape each. Approximate flop
    // counts per element (exp/tanh counted as one) keep the GFLOP/s column
    // comparable across runs, not across kernels.
    let x = fill(rows * cols, 3);
    let gamma = fill(cols, 4);
    let beta = fill(cols, 5);

    {
        let mut s = x.clone();
        mt_kernels::softmax_rows(Backend::Serial, rows, cols, true, &mut s);
        let mut t = x.clone();
        mt_kernels::softmax_rows(Backend::Threaded { threads }, rows, cols, true, &mut t);
        assert!(
            s.iter().zip(&t).all(|(a, b)| a.to_bits() == b.to_bits()),
            "determinism violation: softmax threaded != serial"
        );
        let flops = 5.0 * (rows * cols) as f64;
        for backend in [Backend::Serial, Backend::Threaded { threads }] {
            let mut buf = x.clone();
            let best_ms = best_of(reps, || {
                buf.copy_from_slice(&x);
                mt_kernels::softmax_rows(backend, rows, cols, true, &mut buf);
            });
            push(
                &mut results,
                Entry {
                    kernel: "softmax",
                    kind: "causal".to_string(),
                    m: rows,
                    n: cols,
                    k: 0,
                    backend: backend.label(),
                    threads: backend.threads(),
                    reps,
                    best_ms,
                    gflops: flops / (best_ms / 1e3) / 1e9,
                    packing_us: None,
                },
            );
        }
    }

    {
        let mut outs = [vec![0.0f32; rows * cols], vec![0.0f32; rows * cols]];
        let mut mean = vec![0.0f32; rows];
        let mut rstd = vec![0.0f32; rows];
        mt_kernels::layer_norm(
            Backend::Serial,
            rows,
            cols,
            1e-5,
            &x,
            &gamma,
            &beta,
            &mut outs[0],
            &mut mean,
            &mut rstd,
        );
        mt_kernels::layer_norm(
            Backend::Threaded { threads },
            rows,
            cols,
            1e-5,
            &x,
            &gamma,
            &beta,
            &mut outs[1],
            &mut mean,
            &mut rstd,
        );
        assert!(
            outs[0].iter().zip(&outs[1]).all(|(a, b)| a.to_bits() == b.to_bits()),
            "determinism violation: layer_norm threaded != serial"
        );
        let flops = 8.0 * (rows * cols) as f64;
        for backend in [Backend::Serial, Backend::Threaded { threads }] {
            let best_ms = best_of(reps, || {
                mt_kernels::layer_norm(
                    backend,
                    rows,
                    cols,
                    1e-5,
                    &x,
                    &gamma,
                    &beta,
                    &mut outs[0],
                    &mut mean,
                    &mut rstd,
                );
            });
            push(
                &mut results,
                Entry {
                    kernel: "layer_norm",
                    kind: "forward".to_string(),
                    m: rows,
                    n: cols,
                    k: 0,
                    backend: backend.label(),
                    threads: backend.threads(),
                    reps,
                    best_ms,
                    gflops: flops / (best_ms / 1e3) / 1e9,
                    packing_us: None,
                },
            );
        }
    }

    {
        let mut outs = [vec![0.0f32; rows * cols], vec![0.0f32; rows * cols]];
        mt_kernels::gelu(Backend::Serial, &x, &mut outs[0]);
        mt_kernels::gelu(Backend::Threaded { threads }, &x, &mut outs[1]);
        assert!(
            outs[0].iter().zip(&outs[1]).all(|(a, b)| a.to_bits() == b.to_bits()),
            "determinism violation: gelu threaded != serial"
        );
        let flops = 14.0 * (rows * cols) as f64;
        for backend in [Backend::Serial, Backend::Threaded { threads }] {
            let best_ms = best_of(reps, || {
                mt_kernels::gelu(backend, &x, &mut outs[0]);
            });
            push(
                &mut results,
                Entry {
                    kernel: "gelu",
                    kind: "forward".to_string(),
                    m: rows * cols,
                    n: 1,
                    k: 0,
                    backend: backend.label(),
                    threads: backend.threads(),
                    reps,
                    best_ms,
                    gflops: flops / (best_ms / 1e3) / 1e9,
                    packing_us: None,
                },
            );
        }
    }

    // The attention core at the two shapes the training benchmark leans on
    // (long_seq's `s 640 · hd 32 · a 8 · b 1`, the TP workloads'
    // `s 128 · hd 64 · a 8 · b 2`), causal with dropout: keeping forward,
    // replay, backward. Entries carry `m = s`, `n = head_dim`, `k = a·b`;
    // GFLOP/s counts the causal half of each call's GEMMs only.
    for (seq, head_dim, heads, micro_batch) in [(640, 32, 8, 1), (128, 64, 8, 2)] {
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
        let uniform = move |offset| key.uniform(offset);
        let len = seq * micro_batch * heads * head_dim;
        let (q, k, v, dctx) = (fill(len, 6), fill(len, 7), fill(len, 8), fill(len, 9));
        let run = |backend| {
            let (ctx, saved) = attention::forward(backend, &sh, &uniform, &q, &k, &v, true);
            let saved = saved.expect("a keeping forward keeps");
            let replayed = attention::replay(backend, &sh, &uniform, &q, &k);
            let grads = attention::backward(backend, &sh, &uniform, &q, &k, &v, &saved, &dctx);
            (ctx, saved, replayed, grads)
        };
        let (serial, threaded) = (run(Backend::Serial), run(Backend::Threaded { threads }));
        let same = |a: &[f32], b: &[f32]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(
            same(&serial.0, &threaded.0)
                && same(&serial.1.probs, &threaded.1.probs)
                && same(&serial.1.dropped, &threaded.1.dropped)
                && same(&serial.1.probs, &serial.2.probs)
                && same(&serial.1.dropped, &threaded.2.dropped)
                && serial.3.iter().zip(&threaded.3).all(|(a, b)| same(a, b)),
            "determinism violation: attention s{seq} hd{head_dim} threaded != serial"
        );
        let saved = serial.1;
        let units = heads * micro_batch;
        let pair_flops = (units * seq * (seq + 1) / 2 * 2 * head_dim) as f64;
        for backend in [Backend::Serial, Backend::Threaded { threads }] {
            let forward = best_of(reps, || {
                attention::forward(backend, &sh, &uniform, &q, &k, &v, true);
            });
            let replay = best_of(reps, || {
                attention::replay(backend, &sh, &uniform, &q, &k);
            });
            let backward = best_of(reps, || {
                attention::backward(backend, &sh, &uniform, &q, &k, &v, &saved, &dctx);
            });
            // (kind, GEMMs per call, best ms)
            let timings =
                [("forward", 2.0, forward), ("replay", 1.0, replay), ("backward", 5.0, backward)];
            for (kind, gemms, best_ms) in timings {
                push(
                    &mut results,
                    Entry {
                        kernel: "attention",
                        kind: kind.to_string(),
                        m: seq,
                        n: head_dim,
                        k: units,
                        backend: backend.label(),
                        threads: backend.threads(),
                        reps,
                        best_ms,
                        gflops: gemms * pair_flops / (best_ms / 1e3) / 1e9,
                        packing_us: None,
                    },
                );
            }
        }
    }

    let result_values: Vec<serde_json::Value> = results
        .iter()
        .map(|e| {
            let mut v = serde_json::json!({
                "kernel": e.kernel,
                "kind": e.kind,
                "m": e.m,
                "n": e.n,
                "k": e.k,
                "backend": e.backend,
                "threads": e.threads,
                "reps": e.reps,
                "best_ms": e.best_ms,
                "gflops": e.gflops,
            });
            if let (Some(p), serde_json::Value::Object(fields)) = (e.packing_us, &mut v) {
                fields.push(("packing_us".to_string(), serde_json::json!(p)));
            }
            v
        })
        .collect();
    let doc = serde_json::json!({
        "schema_version": SCHEMA_VERSION,
        "generated_by": "kernel_bench",
        "smoke": smoke,
        "simd": gemm::simd_feature(),
        "threaded_workers": threads,
        "available_parallelism": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "results": result_values,
    });
    std::fs::create_dir_all("reports").expect("create reports/");
    std::fs::write(
        "reports/BENCH_kernels.json",
        serde_json::to_string_pretty(&doc).expect("serialize"),
    )
    .expect("write reports/BENCH_kernels.json");
    println!("\nwrote reports/BENCH_kernels.json ({} entries)", results.len());
}

/// Best-of-`reps` wall time in milliseconds.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn push(results: &mut Vec<Entry>, e: Entry) {
    println!(
        "  {:<11} {:<7} {:>4}x{:<4}x{:<4} {:<8} t={:<3} {:>9.3} ms {:>8.2} GFLOP/s",
        e.kernel, e.kind, e.m, e.n, e.k, e.backend, e.threads, e.best_ms, e.gflops
    );
    results.push(e);
}

fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}
