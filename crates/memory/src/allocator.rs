//! A caching-allocator simulator, for studying the **memory fragmentation**
//! the paper's conclusion singles out as future work: "we plan to further
//! reduce the activation memory by resolving the issues arising from memory
//! fragmentation for large microbatches".
//!
//! The model is a simplified PyTorch-style caching allocator: a fixed
//! reserved arena, best-fit placement with block splitting, and coalescing
//! of adjacent free blocks. Because activations allocated by a pipeline
//! schedule have *interleaved lifetimes* (microbatch `m+p`'s forward
//! allocations land between microbatch `m`'s not-yet-freed blocks), a
//! request can fail even though enough total bytes are free — the
//! fragmentation failure mode this type makes observable and testable.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Why an allocation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocError {
    /// Not enough free bytes in total: a genuine out-of-memory.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Total free bytes at the time.
        free: u64,
    },
    /// Enough free bytes in total, but no contiguous block fits: the
    /// fragmentation failure the paper's future work targets.
    Fragmented {
        /// Bytes requested.
        requested: u64,
        /// Total free bytes at the time.
        free: u64,
        /// Largest contiguous free block.
        largest_free: u64,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory { requested, free } => {
                write!(f, "out of memory: requested {requested} with only {free} free")
            }
            AllocError::Fragmented { requested, free, largest_free } => write!(
                f,
                "fragmented: requested {requested}, {free} free in total but largest block is {largest_free}"
            ),
        }
    }
}

impl std::error::Error for AllocError {}

/// Handle to a live allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AllocId(u64);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Block {
    offset: u64,
    size: u64,
    free: bool,
}

/// Usage statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocatorStats {
    /// Bytes currently allocated.
    pub allocated: u64,
    /// High-water mark of allocated bytes.
    pub peak_allocated: u64,
    /// High-water mark of the arena **footprint**: the largest end-offset any
    /// live block has ever reached. Fragmentation shows up as the gap between
    /// this and `peak_allocated` — holes between live blocks push later
    /// placements towards the end of the arena even when the sum of live
    /// bytes is small.
    pub peak_footprint: u64,
    /// Number of successful allocations.
    pub allocs: u64,
    /// Number of frees.
    pub frees: u64,
    /// Number of failures attributable to fragmentation.
    pub fragmentation_failures: u64,
}

/// A fixed-capacity best-fit allocator with splitting and coalescing.
#[derive(Debug, Clone)]
pub struct CachingAllocator {
    capacity: u64,
    blocks: Vec<Block>, // sorted by offset, covering [0, capacity)
    stats: AllocatorStats,
}

impl CachingAllocator {
    /// Creates an allocator over `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        CachingAllocator {
            capacity,
            blocks: vec![Block { offset: 0, size: capacity, free: true }],
            stats: AllocatorStats::default(),
        }
    }

    /// Arena capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Current arena footprint: the end offset of the highest live block
    /// (0 when nothing is allocated).
    pub fn footprint(&self) -> u64 {
        self.blocks.iter().filter(|b| !b.free).map(|b| b.offset + b.size).max().unwrap_or(0)
    }

    /// Current statistics.
    pub fn stats(&self) -> AllocatorStats {
        self.stats
    }

    /// Total free bytes.
    pub fn free_bytes(&self) -> u64 {
        self.blocks.iter().filter(|b| b.free).map(|b| b.size).sum()
    }

    /// Largest contiguous free block.
    pub fn largest_free_block(&self) -> u64 {
        self.blocks.iter().filter(|b| b.free).map(|b| b.size).max().unwrap_or(0)
    }

    /// Fraction of free memory unusable for a request of the largest-block
    /// size: `1 − largest_free/free` (0 when unfragmented or full).
    pub fn fragmentation(&self) -> f64 {
        let free = self.free_bytes();
        if free == 0 {
            return 0.0;
        }
        1.0 - self.largest_free_block() as f64 / free as f64
    }

    /// Allocates `size` bytes (best fit).
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] if total free bytes are insufficient;
    /// [`AllocError::Fragmented`] if they would suffice but no contiguous
    /// block does.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn malloc(&mut self, size: u64) -> Result<AllocId, AllocError> {
        assert!(size > 0, "zero-size allocation");
        let mut best: Option<usize> = None;
        for (i, b) in self.blocks.iter().enumerate() {
            if b.free && b.size >= size {
                let better = match best {
                    None => true,
                    Some(j) => b.size < self.blocks[j].size,
                };
                if better {
                    best = Some(i);
                }
            }
        }
        let Some(i) = best else {
            let free = self.free_bytes();
            return Err(if free >= size {
                self.stats.fragmentation_failures += 1;
                AllocError::Fragmented {
                    requested: size,
                    free,
                    largest_free: self.largest_free_block(),
                }
            } else {
                AllocError::OutOfMemory { requested: size, free }
            });
        };
        let offset = self.blocks[i].offset;
        if self.blocks[i].size > size {
            // Split: the tail stays free.
            let tail =
                Block { offset: offset + size, size: self.blocks[i].size - size, free: true };
            self.blocks[i].size = size;
            self.blocks.insert(i + 1, tail);
        }
        self.blocks[i].free = false;
        self.stats.allocated += size;
        self.stats.peak_allocated = self.stats.peak_allocated.max(self.stats.allocated);
        // The live footprint only grows when a placement ends past it, so the
        // high-water mark needs just the new block's end.
        self.stats.peak_footprint = self.stats.peak_footprint.max(offset + size);
        self.stats.allocs += 1;
        Ok(AllocId(offset))
    }

    /// Frees an allocation, coalescing with free neighbours.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a live allocation (double free or bogus id).
    pub fn free(&mut self, id: AllocId) {
        let i = self
            .blocks
            .iter()
            .position(|b| b.offset == id.0 && !b.free)
            .expect("free of unknown or already-freed allocation");
        self.blocks[i].free = true;
        self.stats.allocated -= self.blocks[i].size;
        self.stats.frees += 1;
        // Coalesce with the next block, then with the previous.
        if i + 1 < self.blocks.len() && self.blocks[i + 1].free {
            self.blocks[i].size += self.blocks[i + 1].size;
            self.blocks.remove(i + 1);
        }
        if i > 0 && self.blocks[i - 1].free {
            self.blocks[i - 1].size += self.blocks[i].size;
            self.blocks.remove(i);
        }
    }

    /// Internal consistency check: blocks tile `[0, capacity)` exactly.
    /// Exposed for tests.
    pub fn check_invariants(&self) {
        let mut cursor = 0;
        for b in &self.blocks {
            assert_eq!(b.offset, cursor, "blocks must tile without gaps/overlap");
            assert!(b.size > 0, "no empty blocks");
            cursor += b.size;
        }
        assert_eq!(cursor, self.capacity, "blocks must cover the arena");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malloc_free_roundtrip_restores_capacity() {
        let mut a = CachingAllocator::new(100);
        let x = a.malloc(30).unwrap();
        let y = a.malloc(50).unwrap();
        a.check_invariants();
        assert_eq!(a.free_bytes(), 20);
        a.free(x);
        a.free(y);
        a.check_invariants();
        assert_eq!(a.free_bytes(), 100);
        assert_eq!(a.largest_free_block(), 100, "coalescing must restore one block");
    }

    #[test]
    fn coalescing_merges_across_a_middle_free() {
        let mut a = CachingAllocator::new(90);
        let x = a.malloc(30).unwrap();
        let y = a.malloc(30).unwrap();
        let z = a.malloc(30).unwrap();
        a.free(x);
        a.free(z);
        assert_eq!(a.largest_free_block(), 30, "two separated 30-byte holes");
        a.free(y);
        assert_eq!(a.largest_free_block(), 90, "freeing the middle merges all three");
        a.check_invariants();
    }

    #[test]
    fn fragmentation_failure_is_distinguished_from_oom() {
        let mut a = CachingAllocator::new(100);
        let x = a.malloc(40).unwrap();
        let _y = a.malloc(20).unwrap();
        let _z = a.malloc(40).unwrap();
        a.free(x); // free: 40 at the front
                   // 40 free bytes... and a 60-byte request: genuine OOM.
        assert!(matches!(a.malloc(60), Err(AllocError::OutOfMemory { .. })));
        // Free the tail too: 80 free in two 40-byte pieces.
        a.free(_z);
        match a.malloc(60) {
            Err(AllocError::Fragmented { requested, free, largest_free }) => {
                assert_eq!((requested, free, largest_free), (60, 80, 40));
            }
            other => panic!("expected fragmentation failure, got {other:?}"),
        }
        assert_eq!(a.stats().fragmentation_failures, 1);
        assert!(a.fragmentation() > 0.4);
    }

    #[test]
    fn best_fit_prefers_the_tightest_hole() {
        let mut a = CachingAllocator::new(100);
        let x = a.malloc(10).unwrap();
        let _y = a.malloc(30).unwrap();
        let z = a.malloc(20).unwrap();
        let _w = a.malloc(40).unwrap();
        a.free(x); // 10-byte hole at 0
        a.free(z); // 20-byte hole at 40
                   // A 10-byte request must take the 10-byte hole, not split the 20.
        let r = a.malloc(10).unwrap();
        assert_eq!(r, AllocId(0));
        assert_eq!(a.largest_free_block(), 20);
    }

    #[test]
    fn stats_track_peaks() {
        let mut a = CachingAllocator::new(100);
        let x = a.malloc(60).unwrap();
        a.free(x);
        let _ = a.malloc(30).unwrap();
        let s = a.stats();
        assert_eq!(s.allocated, 30);
        assert_eq!(s.peak_allocated, 60);
        assert_eq!(s.allocs, 2);
        assert_eq!(s.frees, 1);
    }

    #[test]
    fn peak_footprint_tracks_highest_live_end_offset() {
        // Hand-walked sequence. Best fit places into the lowest-offset
        // tightest hole, so offsets are deterministic.
        let mut a = CachingAllocator::new(100);
        let x = a.malloc(30).unwrap(); // [0,30)            footprint 30
        let y = a.malloc(20).unwrap(); // [30,50)           footprint 50
        assert_eq!(a.footprint(), 50);
        assert_eq!(a.stats().peak_footprint, 50);
        a.free(x); // live: [30,50)                          footprint 50
        assert_eq!(a.footprint(), 50);
        // 40 doesn't fit the 30-byte front hole: placed at [50,90).
        let z = a.malloc(40).unwrap();
        assert_eq!(a.footprint(), 90);
        assert_eq!(a.stats().peak_footprint, 90);
        // Even though only 60 bytes are live, fragmentation pushed the
        // footprint high-water past the allocated high-water.
        assert_eq!(a.stats().allocated, 60);
        assert!(a.stats().peak_footprint > a.stats().peak_allocated);
        a.free(y);
        a.free(z);
        assert_eq!(a.footprint(), 0, "no live blocks");
        assert_eq!(a.stats().peak_footprint, 90, "peak is a high-water mark");
        // Re-filling from the front does not raise the peak.
        let _ = a.malloc(10).unwrap();
        assert_eq!(a.stats().peak_footprint, 90);
    }

    #[test]
    #[should_panic(expected = "already-freed")]
    fn double_free_panics() {
        let mut a = CachingAllocator::new(10);
        let x = a.malloc(5).unwrap();
        a.free(x);
        a.free(x);
    }

    #[test]
    fn pipeline_like_interleaved_lifetimes_fragment() {
        // Emulates the 1F1B first stage: p microbatches in flight, each
        // allocating a large activation block plus a small output tensor.
        // Without the Appendix B output deallocation the small blocks pin
        // positions between the large ones; after the large frees, a
        // new jumbo request fails fragmented.
        let act = 20u64;
        let out = 2u64;
        let p = 4usize;
        let mut a = CachingAllocator::new((act + out) * p as u64 + 10);
        let mut acts = Vec::new();
        let mut outs = Vec::new();
        for _ in 0..p {
            acts.push(a.malloc(act).unwrap());
            outs.push(a.malloc(out).unwrap());
        }
        // Backward frees the activation blocks but keeps the outputs.
        for id in acts {
            a.free(id);
        }
        let free = a.free_bytes();
        assert!(free >= 3 * act);
        // A request for 2 activations worth cannot be placed contiguously.
        match a.malloc(2 * act + 5) {
            Err(AllocError::Fragmented { .. }) => {}
            other => panic!("expected fragmentation, got {other:?}"),
        }
        // With the deallocation optimization (outputs freed too), it fits.
        for id in outs {
            a.free(id);
        }
        assert!(a.malloc(2 * act + 5).is_ok());
    }
}
