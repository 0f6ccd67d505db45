//! What every `mt-bench` subcommand shares: the `reports/` paths, the timer, deterministic inputs, the tiny GPT
//! the traced runs train, and the one `BENCH_*.json` shape —
//!
//! ```text
//! {schema_version, generated_by, smoke,
//!  host: {available_parallelism, simd, calib_ms, parallel_capacity},
//!  params: {…}, results: [{<key fields>, <metrics>}]}
//! ```
//!
//! Every subcommand reads and writes `reports/` under the current
//! directory; there is no path flag.

use mt_kernels::{gemm, Backend};
use mt_model::TransformerConfig;
use mt_tensor::rng::SplitMix64;
use serde::Serialize;
use serde_json::{json, Value};
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Version of the shared report shape; the gate refuses any other.
pub const SCHEMA_VERSION: u64 = 3;

/// `reports/BENCH_<name>.json`, where `mt-bench <name>` writes and
/// `mt-bench gate` reads.
pub fn report_path(name: &str) -> PathBuf {
    PathBuf::from(format!("reports/BENCH_{name}.json"))
}

/// `reports/baselines/BENCH_<name>.baseline.json`, the checked-in side of
/// every vs-baseline rule.
pub fn baseline_path(name: &str) -> PathBuf {
    PathBuf::from(format!("reports/baselines/BENCH_{name}.baseline.json"))
}

/// Prints `message` and returns the usage-error status (2).
pub fn usage_error(message: &str) -> ExitCode {
    eprintln!("{message}");
    ExitCode::from(2)
}

/// Wall time of one call, in milliseconds.
pub fn time_ms(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

/// Best-of-`reps` wall time in milliseconds: the floor is what the machine
/// can do, the spread above it is scheduler noise.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps).map(|_| time_ms(&mut f)).fold(f64::INFINITY, f64::min)
}

/// `len` deterministic values in `[-1, 1)`.
pub fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

/// The tiny-GPT config `mt-bench profile` traces and the examples train
/// for real.
pub fn tiny_gpt() -> TransformerConfig {
    TransformerConfig {
        hidden: 32,
        heads: 4,
        seq: 16,
        micro_batch: 2,
        layers: 2,
        vocab: 64,
        dropout_p: 0.1,
        causal: true,
    }
}

/// `n` seeded microbatches of `(tokens, next-token targets)` for `cfg`.
pub fn data(cfg: &TransformerConfig, n: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut rng = SplitMix64::new(99);
    (0..n)
        .map(|_| {
            let tokens: Vec<usize> =
                (0..cfg.tokens()).map(|_| (rng.next_u64() as usize) % cfg.vocab).collect();
            let mut targets = tokens.clone();
            targets.rotate_left(cfg.micro_batch);
            (tokens, targets)
        })
        .collect()
}

/// The `host` header of a report: what the machine was when the numbers
/// were taken, so the gate can compare across machines.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Host {
    /// What the OS says ([`std::thread::available_parallelism`]); recorded,
    /// never gated on.
    pub available_parallelism: usize,
    /// The microkernel path runtime feature detection picked.
    pub simd: &'static str,
    /// Milliseconds for a fixed scalar loop that calls nothing in the repo:
    /// the host's speed, whatever the code under test does.
    pub calib_ms: f64,
    /// How many GEMMs the host really runs at once: ≈ 2 on two real cores,
    /// ≈ 1 on SMT siblings, shared vCPUs or a 1-core box.
    pub parallel_capacity: f64,
}

impl Host {
    /// Measures the host (≈ 0.3 s).
    pub fn measure() -> Host {
        Host {
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: gemm::simd_feature(),
            calib_ms: calibrate(),
            parallel_capacity: parallel_capacity(),
        }
    }

    /// Measures `parallel_capacity` again and keeps the lower value. On a
    /// shared host the second core comes and goes within seconds; a
    /// subcommand whose numbers depend on it probes between its timed
    /// passes, so the capacity it records held throughout.
    pub fn recheck_capacity(&mut self) {
        self.parallel_capacity = self.parallel_capacity.min(parallel_capacity());
    }
}

/// `train_bench`'s calibration loop (`benchmark/src/metrics.rs`), copied
/// verbatim so `host.calib_ms` means the same thing in both measuring
/// systems. A copy, not a shared function: `benchmark/` is a package of its
/// own that may depend only on what it measures, and this crate is not
/// that.
fn calibrate() -> f64 {
    let once = |_| {
        let t0 = Instant::now();
        let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
        for _ in 0..20_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        t0.elapsed().as_secs_f64() * 1e3
    };
    (0..5).map(once).fold(f64::INFINITY, f64::min)
}

/// `2 × (one serial 512³ NN GEMM) ÷ (two of them side by side on two
/// threads)`, best of 5 each. Measured rather than read from
/// `available_parallelism`, which counts hardware threads: two shared
/// vCPUs report 2 and give an AVX2 GEMM nothing.
fn parallel_capacity() -> f64 {
    const N: usize = 512;
    let (a, b) = (fill(N * N, 1), fill(N * N, 2));
    let one = |out: &mut Vec<f32>| gemm::gemm(Backend::Serial, false, false, N, N, N, &a, &b, out);
    let mut outs = [vec![0.0f32; N * N], vec![0.0f32; N * N]];
    let alone = best_of(5, || one(&mut outs[0]));
    let together = best_of(5, || {
        std::thread::scope(|s| {
            for out in &mut outs {
                s.spawn(|| one(out));
            }
        })
    });
    2.0 * alone / together
}

/// Writes `reports/BENCH_<name>.json` in the shared shape.
pub fn write_report(name: &str, smoke: bool, host: &Host, params: Value, results: Vec<Value>) {
    let doc = json!({
        "schema_version": SCHEMA_VERSION,
        "generated_by": format!("mt-bench {name}"),
        "smoke": smoke,
        "host": host,
        "params": params,
        "results": results,
    });
    let path = report_path(name);
    std::fs::create_dir_all("reports").expect("create reports/");
    std::fs::write(&path, serde_json::to_string_pretty(&doc).expect("serialize"))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!(
        "\nhost: available_parallelism {} · simd {} · calib_ms {:.2} · parallel_capacity {:.2}",
        host.available_parallelism, host.simd, host.calib_ms, host.parallel_capacity
    );
    println!(
        "wrote {} ({} entries)",
        path.display(),
        doc["results"].as_array().map_or(0, Vec::len)
    );
}
