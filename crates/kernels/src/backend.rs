//! The [`Backend`] selector and the process-wide default.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on worker threads; keeps a typo'd `MT_KERNEL_THREADS` from
/// spawning an absurd number of scoped workers.
const MAX_THREADS: usize = 256;

/// FLOPs an extra scoped worker must bring along to repay its share of the
/// fan-out cost (spawn + join of a `thread::scope`, one wakeup per worker).
///
/// Calibrated against the packed microkernel: a scoped spawn/join round
/// trip costs on the order of 50–100 µs, and the microkernel retires
/// roughly 10–30 GFLOP/s per core, so a worker must carry a few million
/// FLOPs before the fan-out breaks even — below that, serial wins. 4 MFLOP
/// per worker puts the serial→parallel crossover between 96³ (1.7 MFLOP,
/// serial) and 128³ (4.2 MFLOP, two workers), matching the measured
/// crossover of the benched shapes; 512³ saturates an 8-thread backend.
const FLOPS_PER_WORKER: u64 = 4_000_000;

/// How kernels execute.
///
/// Both variants run the *same* tiled kernel code over the same fixed work
/// units, so they produce bit-identical results; `Threaded` merely fans the
/// units out over scoped worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// All work units run on the calling thread, in unit order. The
    /// reference backend.
    Serial,
    /// Work units are dealt round-robin across `threads` scoped workers
    /// (the calling thread is worker 0).
    Threaded {
        /// Worker count; clamped to `1..=256`. `Threaded { threads: 1 }`
        /// executes like `Serial`.
        threads: usize,
    },
}

impl Backend {
    /// The worker count this backend runs with (1 for [`Backend::Serial`]).
    pub fn threads(&self) -> usize {
        match *self {
            Backend::Serial => 1,
            Backend::Threaded { threads } => threads.clamp(1, MAX_THREADS),
        }
    }

    /// Workers a problem of `flops` floating-point operations should fan
    /// out to: the backend's configured [`Backend::threads`] capped so
    /// every extra worker carries at least `FLOPS_PER_WORKER` of work.
    ///
    /// Small problems resolve to 1 (no scoped spawn at all), medium ones
    /// to a partial fan-out, and only problems big enough to amortize the
    /// pool wakeup use the full configured width. [`Backend::Serial`]
    /// always returns 1. Results are bit-identical at any worker count, so
    /// this is purely a latency policy — it decides *when* threading pays,
    /// never *what* is computed.
    pub fn threads_for_work(&self, flops: u64) -> usize {
        let configured = self.threads();
        let affordable = 1 + (flops / FLOPS_PER_WORKER) as usize;
        configured.min(affordable)
    }

    /// Short label for reports and trace args (`"serial"` / `"threaded"`).
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Serial => "serial",
            Backend::Threaded { .. } => "threaded",
        }
    }

    /// Builds a backend from the environment:
    ///
    /// * `MT_KERNEL_BACKEND` — `serial` (default) or `threaded`;
    /// * `MT_KERNEL_THREADS` — worker count for `threaded`; defaults to
    ///   [`std::thread::available_parallelism`].
    ///
    /// Unrecognized values fall back to `Serial`, so a typo degrades to the
    /// reference backend rather than failing.
    pub fn from_env() -> Backend {
        let threaded = matches!(
            std::env::var("MT_KERNEL_BACKEND").as_deref(),
            Ok("threaded") | Ok("THREADED") | Ok("Threaded")
        );
        if !threaded {
            return Backend::Serial;
        }
        let threads = std::env::var("MT_KERNEL_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        Backend::Threaded { threads: threads.clamp(1, MAX_THREADS) }
    }
}

/// Process-wide default backend, encoded in one atomic:
/// `0` = not yet initialized, `1` = `Serial`, `t + 1` = `Threaded { t }`.
static DEFAULT: AtomicUsize = AtomicUsize::new(0);

fn encode(b: Backend) -> usize {
    match b {
        Backend::Serial => 1,
        Backend::Threaded { threads } => threads.clamp(1, MAX_THREADS) + 1,
    }
}

fn decode(v: usize) -> Backend {
    match v {
        0 | 1 => Backend::Serial,
        t => Backend::Threaded { threads: t - 1 },
    }
}

/// The backend kernels use when none is passed explicitly
/// (e.g. `mt-tensor`'s `Gemm::apply`).
///
/// First call resolves [`Backend::from_env`] and caches it; later calls are
/// a single atomic load. [`set_default_backend`] overrides it at any time.
pub fn default_backend() -> Backend {
    let v = DEFAULT.load(Ordering::Relaxed);
    if v != 0 {
        return decode(v);
    }
    let resolved = Backend::from_env();
    // Racing first calls may both read the env; they store the same value.
    DEFAULT.store(encode(resolved), Ordering::Relaxed);
    resolved
}

/// Overrides the process-wide default backend (used by benches and tests;
/// normal configuration goes through the environment variables).
pub fn set_default_backend(backend: Backend) {
    DEFAULT.store(encode(backend), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_are_clamped() {
        assert_eq!(Backend::Serial.threads(), 1);
        assert_eq!(Backend::Threaded { threads: 0 }.threads(), 1);
        assert_eq!(Backend::Threaded { threads: 4 }.threads(), 4);
        assert_eq!(Backend::Threaded { threads: 100_000 }.threads(), MAX_THREADS);
    }

    #[test]
    fn encode_decode_roundtrip() {
        for b in
            [Backend::Serial, Backend::Threaded { threads: 1 }, Backend::Threaded { threads: 7 }]
        {
            let rt = decode(encode(b));
            assert_eq!(rt.threads(), b.threads());
        }
        // Threaded { 1 } and Serial intentionally decode to the same work
        // distribution (single worker).
        assert_eq!(
            decode(encode(Backend::Threaded { threads: 1 })),
            Backend::Threaded { threads: 1 }
        );
    }

    #[test]
    fn work_sizing_caps_fanout() {
        // Serial never fans out, whatever the problem size.
        assert_eq!(Backend::Serial.threads_for_work(u64::MAX / 2), 1);
        let b = Backend::Threaded { threads: 8 };
        // Tiny problems run serial: no scoped spawn below one worker's
        // worth of FLOPs.
        assert_eq!(b.threads_for_work(0), 1);
        assert_eq!(b.threads_for_work(FLOPS_PER_WORKER - 1), 1);
        // Each additional FLOPS_PER_WORKER unlocks one more worker...
        assert_eq!(b.threads_for_work(FLOPS_PER_WORKER), 2);
        assert_eq!(b.threads_for_work(3 * FLOPS_PER_WORKER), 4);
        // ...up to the configured width.
        assert_eq!(b.threads_for_work(1000 * FLOPS_PER_WORKER), 8);
    }

    #[test]
    fn set_default_overrides() {
        set_default_backend(Backend::Threaded { threads: 3 });
        assert_eq!(default_backend(), Backend::Threaded { threads: 3 });
        set_default_backend(Backend::Serial);
        assert_eq!(default_backend(), Backend::Serial);
    }
}
