//! Runtime configuration: algorithm selection and tuning knobs.

use crate::adapt::AdaptPolicy;
use crate::telemetry::TelemetryLevel;
use crate::wal::DurabilityMode;

/// Which STM algorithm a [`crate::Stm`] instance runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Algorithm {
    /// Baseline NOrec (value-based validation, single global sequence
    /// lock). Semantic API calls are delegated to plain reads/writes.
    NOrec,
    /// S-NOrec — the paper's Algorithm 6: NOrec with semantic validation
    /// of the read-set and deferred `inc` entries in the write-set.
    SNOrec,
    /// Baseline TL2 (version-based validation over an ownership-record
    /// table). Semantic API calls are delegated to plain reads/writes.
    Tl2,
    /// S-TL2 — the paper's Algorithm 7: TL2 with a compare-set, three-phase
    /// execution with snapshot extension, and a CAS-based commit timestamp.
    STl2,
}

impl Algorithm {
    /// Whether this algorithm handles `cmp`/`inc` semantically (rather
    /// than delegating them to plain read/write barriers).
    #[inline]
    pub fn is_semantic(self) -> bool {
        matches!(self, Algorithm::SNOrec | Algorithm::STl2)
    }

    /// The non-semantic baseline this algorithm extends (identity for the
    /// baselines themselves).
    pub fn baseline(self) -> Algorithm {
        match self {
            Algorithm::NOrec | Algorithm::SNOrec => Algorithm::NOrec,
            Algorithm::Tl2 | Algorithm::STl2 => Algorithm::Tl2,
        }
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::NOrec => "NOrec",
            Algorithm::SNOrec => "S-NOrec",
            Algorithm::Tl2 => "TL2",
            Algorithm::STl2 => "S-TL2",
        }
    }

    /// All four algorithms, in the paper's legend order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::NOrec,
        Algorithm::SNOrec,
        Algorithm::Tl2,
        Algorithm::STl2,
    ];
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Construction-time configuration for an [`crate::Stm`].
#[derive(Clone, Debug)]
pub struct StmConfig {
    /// The algorithm to run.
    pub algorithm: Algorithm,
    /// Transactional heap capacity in 64-bit words. Capacity costs
    /// address space, not memory: only the words a program touches
    /// become resident, and dropping the `Stm` returns them (see
    /// [`crate::heap`]).
    pub heap_words: usize,
    /// Number of ownership records (TL2 family). Rounded up to a power of
    /// two; addresses map to orecs by masking. The table is built only
    /// when a TL2 mode can run: at construction for a TL2-family
    /// `algorithm`, otherwise by the first [`crate::Stm::switch_to`]
    /// into a TL2 mode.
    pub orec_count: usize,
    /// Spins to wait on a locked orec before aborting with `Timeout`
    /// (the paper's starvation-avoidance timeout, §4.2). TL2 family only:
    /// the NOrec clocks never wait while holding a lock, so they need
    /// no bound.
    pub lock_wait_spins: u32,
    /// Number of commit-clock shards for the NOrec family (rounded up to
    /// a power of two, at most 64). The default `1` keeps the classical
    /// single global sequence lock; values above 1 run NOrec/S-NOrec over
    /// the sharded commit clock ([`crate::sclock`]): per-cache-line
    /// sequence locks, per-shard read-set revalidation, and multi-shard
    /// commit acquisition. The TL2 family keeps its global version clock
    /// regardless — sharding TL2's version numbers safely is out of
    /// scope (versions order *all* commits, not just per-line ones).
    pub clock_shards: usize,
    /// Route [`crate::Stm::alloc`] / `alloc_cell` / `alloc_array` through
    /// [`crate::heap::Heap::alloc_padded`], placing every allocation on
    /// its own cache line (or run of lines). Default `false` — flat
    /// packing. Padding trades arena slack for the absence of false
    /// sharing between independently allocated nodes, and at
    /// `clock_shards > 1` additionally gives each node its own clock
    /// shard word (the shard map is line-granular).
    pub padded_alloc: bool,
    /// How much the runtime records about itself. The default,
    /// [`TelemetryLevel::Counters`], costs nothing beyond the counter
    /// increments the runtime always did; higher levels add latency
    /// histograms, the abort trace, and (at [`TelemetryLevel::Spans`])
    /// the per-attempt flight recorder.
    pub telemetry: TelemetryLevel,
    /// Flush discipline of the write-ahead commit log, when one is
    /// attached via [`crate::Stm::with_wal`]. Ignored by [`crate::Stm::new`]
    /// (no log, no durability — the classical in-memory STM). Default
    /// [`DurabilityMode::Group`]: a dedicated thread batches fsyncs off
    /// the commit path.
    pub durability: DurabilityMode,
    /// Telemetry-driven adaptive engine switching ([`crate::adapt`]):
    /// `Some(policy)` equips the runtime with a [`crate::adapt::Controller`]
    /// that [`crate::Stm::adapt_tick`] consults to hot-swap engines under
    /// load. `None` (the default) means no controller — manual
    /// [`crate::Stm::switch_to`] still works, and adaptation costs
    /// nothing beyond the always-on mode-word epoch protocol.
    pub adaptive: Option<AdaptPolicy>,
    /// Per-shard span-ring capacity (newest spans retained) at
    /// [`TelemetryLevel::Trace`] and above. The one ring set holds each
    /// aborted attempt at `Trace` and every attempt at
    /// [`TelemetryLevel::Spans`], so at `Spans` the trace
    /// (`Telemetry::trace_events`) is the aborts in the retained window.
    ///
    /// Memory cost: there are 64 ring shards (one per telemetry counter
    /// shard) and each span is 128 bytes, so a capacity of `c` costs
    /// about `64 × 128 × c` bytes at both tiers (8 MiB at the default
    /// 1024). Below `Trace` there are no rings.
    pub trace_capacity: usize,
}

impl StmConfig {
    /// Reasonable defaults for the given algorithm (16 Mi-word heap,
    /// 2^16 orecs).
    pub fn new(algorithm: Algorithm) -> StmConfig {
        StmConfig {
            algorithm,
            heap_words: 1 << 24,
            orec_count: 1 << 16,
            lock_wait_spins: 4096,
            clock_shards: 1,
            padded_alloc: false,
            telemetry: TelemetryLevel::Counters,
            durability: DurabilityMode::Group,
            adaptive: None,
            trace_capacity: 1024,
        }
    }

    /// Builder-style heap-size override (in words); the `heap_words`
    /// field says what capacity costs.
    pub fn heap_words(mut self, words: usize) -> StmConfig {
        self.heap_words = words;
        self
    }

    /// Builder-style orec-count override.
    pub fn orec_count(mut self, count: usize) -> StmConfig {
        self.orec_count = count;
        self
    }

    /// Builder-style lock-wait patience override (TL2 family only).
    pub fn lock_wait_spins(mut self, spins: u32) -> StmConfig {
        self.lock_wait_spins = spins;
        self
    }

    /// Builder-style commit-clock shard-count override (NOrec family;
    /// `1` = the classical global sequence lock).
    pub fn clock_shards(mut self, shards: usize) -> StmConfig {
        self.clock_shards = shards;
        self
    }

    /// Builder-style toggle for padded (cache-line-per-allocation) heap
    /// allocation.
    pub fn padded_alloc(mut self, on: bool) -> StmConfig {
        self.padded_alloc = on;
        self
    }

    /// Builder-style telemetry-level override.
    pub fn telemetry(mut self, level: TelemetryLevel) -> StmConfig {
        self.telemetry = level;
        self
    }

    /// Builder-style WAL flush-discipline override (takes effect only
    /// with [`crate::Stm::with_wal`]).
    pub fn durability(mut self, mode: DurabilityMode) -> StmConfig {
        self.durability = mode;
        self
    }

    /// Builder-style adaptive-switching knob: attach a controller with
    /// `policy` (see [`crate::adapt`]; drive it via
    /// [`crate::Stm::adapt_tick`]).
    pub fn adaptive(mut self, policy: AdaptPolicy) -> StmConfig {
        self.adaptive = Some(policy);
        self
    }

    /// Builder-style span-ring capacity override (per shard; see the
    /// field docs for the memory cost).
    pub fn trace_capacity(mut self, events: usize) -> StmConfig {
        self.trace_capacity = events;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semantic_flags() {
        assert!(!Algorithm::NOrec.is_semantic());
        assert!(Algorithm::SNOrec.is_semantic());
        assert!(!Algorithm::Tl2.is_semantic());
        assert!(Algorithm::STl2.is_semantic());
    }

    #[test]
    fn baselines() {
        assert_eq!(Algorithm::SNOrec.baseline(), Algorithm::NOrec);
        assert_eq!(Algorithm::STl2.baseline(), Algorithm::Tl2);
        assert_eq!(Algorithm::NOrec.baseline(), Algorithm::NOrec);
    }

    #[test]
    fn builder_overrides() {
        let c = StmConfig::new(Algorithm::STl2)
            .heap_words(128)
            .orec_count(32)
            .lock_wait_spins(7)
            .clock_shards(8)
            .padded_alloc(true)
            .telemetry(TelemetryLevel::Trace)
            .trace_capacity(64);
        assert_eq!(c.heap_words, 128);
        assert_eq!(c.orec_count, 32);
        assert_eq!(c.lock_wait_spins, 7);
        assert_eq!(c.clock_shards, 8);
        assert!(c.padded_alloc);
        assert_eq!(c.telemetry, TelemetryLevel::Trace);
        assert_eq!(c.trace_capacity, 64);
    }

    #[test]
    fn clock_defaults_to_single_global_lock() {
        let c = StmConfig::new(Algorithm::NOrec);
        assert_eq!(c.clock_shards, 1);
        assert!(!c.padded_alloc);
    }
}
