//! The engine's resource knob: how many worker threads, how big a chunk.

use std::error::Error;
use std::fmt;

/// Errors constructing an engine configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// A thread count of zero was requested; the engine always needs at
    /// least the calling thread.
    ZeroThreads,
    /// A chunk size of zero was requested; chunks must hold at least one
    /// offer.
    ZeroChunkSize,
    /// A shard count of zero was requested; a live book always needs at
    /// least one shard. (Without this guard
    /// [`stable_shard`](crate::stable_shard)'s `id % shards` would panic
    /// with a divide-by-zero.)
    ZeroShards,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::ZeroThreads => write!(f, "thread count must be at least 1"),
            EngineError::ZeroChunkSize => write!(f, "chunk size must be at least 1"),
            EngineError::ZeroShards => write!(f, "shard count must be at least 1"),
        }
    }
}

impl Error for EngineError {}

/// Which measure/baseline kernel implementation the engine runs.
///
/// Like every other budget knob this selects *how* the work runs, never
/// what it computes: the columnar kernels are bitwise identical to the
/// scalar path (the measures crate's contract, pinned by the engine's
/// proptests), so the knob is purely a throughput/compatibility switch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Kernel {
    /// The row-oriented per-offer loop: one
    /// [`PreparedOffer`](flexoffers_measures::PreparedOffer) per offer, all
    /// measures evaluated against it.
    Scalar,
    /// The struct-of-arrays batch kernels
    /// ([`flexoffers_measures::columnar`]): each chunk is flattened into
    /// columns once and every measure runs as one pass over a column.
    /// Measures without a columnar form fall back to the scalar path
    /// per offer inside the batch.
    Columnar,
    /// Pick per call: columnar when every requested measure advertises a
    /// columnar kernel (the baseline always does), scalar otherwise — so
    /// mixed measure sets never pay for a batch load that mostly falls
    /// back.
    #[default]
    Auto,
}

impl Kernel {
    /// Parses the CLI spelling (`"scalar"`, `"columnar"`, `"auto"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "scalar" => Some(Kernel::Scalar),
            "columnar" => Some(Kernel::Columnar),
            "auto" => Some(Kernel::Auto),
            _ => None,
        }
    }

    /// The stable CLI/report spelling.
    pub fn label(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Columnar => "columnar",
            Kernel::Auto => "auto",
        }
    }
}

/// A worker budget: thread count, an optional explicit chunk size, and the
/// kernel selector.
///
/// The chunk size is the number of offers a worker claims at a time. Left
/// unset, [`Budget::chunk_size_for`] derives one that yields roughly four
/// chunks per thread — small enough to balance uneven per-offer cost,
/// large enough to amortise dispatch. No knob affects results, only
/// throughput; the engine's merge order is deterministic regardless, and
/// the [`Kernel`] paths are bitwise identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    threads: usize,
    chunk_size: Option<usize>,
    kernel: Kernel,
}

impl Budget {
    /// A single-threaded budget: everything runs on the calling thread.
    pub fn sequential() -> Self {
        Self {
            threads: 1,
            chunk_size: None,
            kernel: Kernel::Auto,
        }
    }

    /// A budget with an explicit thread count.
    pub fn with_threads(threads: usize) -> Result<Self, EngineError> {
        if threads == 0 {
            return Err(EngineError::ZeroThreads);
        }
        Ok(Self {
            threads,
            chunk_size: None,
            kernel: Kernel::Auto,
        })
    }

    /// A budget sized to the host:
    /// [`std::thread::available_parallelism`] threads (1 when detection
    /// fails).
    pub fn detected() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            chunk_size: None,
            kernel: Kernel::Auto,
        }
    }

    /// Pins the chunk size instead of deriving it from the portfolio.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Result<Self, EngineError> {
        if chunk_size == 0 {
            return Err(EngineError::ZeroChunkSize);
        }
        self.chunk_size = Some(chunk_size);
        Ok(self)
    }

    /// Selects the measure/baseline kernel ([`Kernel::Auto`] by default).
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The selected measure/baseline kernel.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The explicitly pinned chunk size, if any.
    pub fn explicit_chunk_size(&self) -> Option<usize> {
        self.chunk_size
    }

    /// The chunk size used for a portfolio of `len` offers: the pinned one,
    /// or `ceil(len / (4 * threads))`, at least 1. The multiplication
    /// saturates so absurd thread counts degrade to chunk size 1 instead
    /// of overflowing.
    pub fn chunk_size_for(&self, len: usize) -> usize {
        match self.chunk_size {
            Some(c) => c,
            None => len.div_ceil(4usize.saturating_mul(self.threads)).max(1),
        }
    }

    /// The per-shard worker budget when this budget is split across
    /// `shards` shard workers: `threads / shards` threads each, floored at
    /// one, with any pinned chunk size preserved. Floors matter: a naive
    /// `threads / shards` is zero whenever the shard count exceeds the
    /// thread budget (the degenerate-shard regime), and a zero-thread
    /// budget is a constructor error — every knob combination must degrade
    /// to a sequential worker instead. The serving tier's live book gives
    /// each shard's refresh this share.
    pub fn per_shard(&self, shards: usize) -> Budget {
        Budget {
            threads: (self.threads / shards.max(1)).max(1),
            chunk_size: self.chunk_size,
            kernel: self.kernel,
        }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Self::detected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_knobs_are_rejected() {
        assert_eq!(Budget::with_threads(0), Err(EngineError::ZeroThreads));
        assert_eq!(
            Budget::sequential().with_chunk_size(0),
            Err(EngineError::ZeroChunkSize)
        );
    }

    #[test]
    fn derived_chunk_size_targets_four_chunks_per_thread() {
        let b = Budget::with_threads(4).unwrap();
        assert_eq!(b.chunk_size_for(16_000), 1000);
        assert_eq!(b.chunk_size_for(0), 1);
        assert_eq!(b.chunk_size_for(3), 1);
        let pinned = b.with_chunk_size(7).unwrap();
        assert_eq!(pinned.chunk_size_for(16_000), 7);
    }

    #[test]
    fn absurd_thread_counts_do_not_overflow_chunk_math() {
        let b = Budget::with_threads(usize::MAX).unwrap();
        assert_eq!(b.chunk_size_for(100), 1);
        assert_eq!(b.chunk_size_for(0), 1);
    }

    #[test]
    fn detected_has_at_least_one_thread() {
        assert!(Budget::detected().threads() >= 1);
        assert!(Budget::default().threads() >= 1);
    }

    #[test]
    fn errors_render() {
        assert!(EngineError::ZeroThreads.to_string().contains("at least 1"));
        assert!(EngineError::ZeroChunkSize
            .to_string()
            .contains("at least 1"));
        assert!(EngineError::ZeroShards
            .to_string()
            .contains("shard count must be at least 1"));
    }

    #[test]
    fn kernel_knob_defaults_to_auto_and_round_trips() {
        assert_eq!(Budget::sequential().kernel(), Kernel::Auto);
        assert_eq!(Budget::detected().kernel(), Kernel::Auto);
        let b = Budget::with_threads(2)
            .unwrap()
            .with_kernel(Kernel::Columnar);
        assert_eq!(b.kernel(), Kernel::Columnar);
        for k in [Kernel::Scalar, Kernel::Columnar, Kernel::Auto] {
            assert_eq!(Kernel::parse(k.label()), Some(k));
        }
        assert_eq!(Kernel::parse("vectorised"), None);
    }

    #[test]
    fn per_shard_budget_preserves_the_kernel() {
        let b = Budget::with_threads(8).unwrap().with_kernel(Kernel::Scalar);
        assert_eq!(b.per_shard(4).kernel(), Kernel::Scalar);
    }

    #[test]
    fn per_shard_budget_never_hits_zero_threads() {
        let b = Budget::with_threads(8).unwrap().with_chunk_size(5).unwrap();
        assert_eq!(b.per_shard(2).threads(), 4);
        assert_eq!(b.per_shard(2).explicit_chunk_size(), Some(5));
        // More shards than threads: each worker degrades to sequential
        // instead of panicking in the Budget constructor.
        assert_eq!(b.per_shard(64).threads(), 1);
        assert_eq!(b.per_shard(0).threads(), 8);
        assert_eq!(Budget::sequential().per_shard(4).threads(), 1);
    }
}
