//! Pipeline configuration (paper Table II: Icelake-like out-of-order core
//! with an 8-wide frontend so the Allocation Queue actually fills, §V-A).

use helios_core::{FpConfig, FusionMode, HeliosParams, PipelineSizes, UchConfig, UchQueueConfig};

/// Cache level parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheParams {
    /// Total size in bytes.
    pub size: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line: usize,
    /// Access latency in cycles (hit latency at this level).
    pub latency: u64,
}

/// Full processor configuration.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PipeConfig {
    /// Fusion configuration under evaluation.
    pub fusion: FusionMode,
    /// Helios machinery parameters.
    pub helios: HeliosParams,

    // Widths (µ-ops per cycle).
    pub fetch_width: usize,
    pub rename_width: usize,
    pub dispatch_width: usize,
    pub commit_width: usize,

    // Structure capacities.
    pub aq_size: usize,
    pub rob_size: usize,
    pub iq_size: usize,
    pub lq_size: usize,
    pub sq_size: usize,
    /// Physical integer registers (beyond the 32 architectural mappings).
    pub prf_size: usize,

    // Execution resources.
    pub alu_ports: usize,
    pub load_ports: usize,
    pub store_ports: usize,
    /// Stores drained from the senior SQ to the L1D per cycle.
    pub store_drain_per_cycle: usize,

    // Latencies (cycles).
    pub alu_latency: u64,
    pub mul_latency: u64,
    pub div_latency: u64,
    pub branch_redirect_penalty: u64,
    /// Extra latency when a (possibly fused) access crosses a cache line
    /// (§II-B "Cacheline Crossers": a single cycle on modern cores).
    pub line_cross_penalty: u64,

    // Memory hierarchy.
    pub l1d: CacheParams,
    pub l2: CacheParams,
    pub l3: CacheParams,
    pub mem_latency: u64,

    /// Commit-progress watchdog: cycles without a single commit before
    /// `Pipeline::try_run` gives up with `SimError::Deadlock`. Must exceed
    /// the worst legitimate commit gap (a full-ROB chain of memory misses).
    pub watchdog_cycles: u64,
}

impl Default for PipeConfig {
    fn default() -> Self {
        PipeConfig {
            fusion: FusionMode::NoFusion,
            helios: HeliosParams::default(),
            fetch_width: 8,
            rename_width: 5,
            dispatch_width: 5,
            commit_width: 8,
            aq_size: 140,
            rob_size: 352,
            iq_size: 160,
            lq_size: 128,
            sq_size: 72,
            prf_size: 280,
            alu_ports: 4,
            load_ports: 2,
            store_ports: 2,
            store_drain_per_cycle: 1,
            alu_latency: 1,
            mul_latency: 3,
            div_latency: 18,
            branch_redirect_penalty: 14,
            line_cross_penalty: 1,
            l1d: CacheParams {
                size: 48 * 1024,
                ways: 12,
                line: 64,
                latency: 5,
            },
            l2: CacheParams {
                size: 512 * 1024,
                ways: 8,
                line: 64,
                latency: 14,
            },
            l3: CacheParams {
                size: 2 * 1024 * 1024,
                ways: 16,
                line: 64,
                latency: 40,
            },
            mem_latency: 200,
            watchdog_cycles: 100_000,
        }
    }
}

/// The default Table II core under one fusion mode, so a sweep grid can
/// name its columns by mode ([`PipeConfig::with_fusion`]).
impl From<FusionMode> for PipeConfig {
    fn from(fusion: FusionMode) -> PipeConfig {
        PipeConfig::with_fusion(fusion)
    }
}

/// Why a [`PipeConfigBuilder`] rejected a configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// A structure capacity (AQ/ROB/IQ/LQ/SQ) is zero — the pipeline could
    /// never dispatch a µ-op.
    ZeroCapacity(&'static str),
    /// A per-cycle width (fetch/rename/dispatch/commit) is zero — the
    /// pipeline could never move a µ-op.
    ZeroWidth(&'static str),
    /// Too few physical registers to cover the 32 architectural mappings
    /// plus at least one rename.
    PrfTooSmall { prf_size: usize },
    /// The commit-progress watchdog window is shorter than one commit
    /// group — every run would be reported as deadlocked.
    WatchdogTooSmall { watchdog_cycles: u64, commit_width: usize },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroCapacity(s) => write!(f, "{s} capacity must be at least 1"),
            ConfigError::ZeroWidth(s) => write!(f, "{s} width must be at least 1"),
            ConfigError::PrfTooSmall { prf_size } => write!(
                f,
                "prf_size {prf_size} leaves no physical registers beyond the 32 architectural mappings"
            ),
            ConfigError::WatchdogTooSmall {
                watchdog_cycles,
                commit_width,
            } => write!(
                f,
                "watchdog_cycles {watchdog_cycles} is below the commit width {commit_width}: \
                 every run would be reported as deadlocked"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`PipeConfig`].
///
/// Starts from the Table II defaults; [`PipeConfigBuilder::build`] rejects
/// configurations the pipeline cannot run (zero-capacity structures, zero
/// widths, a starved PRF, or a watchdog window below the commit width)
/// instead of letting them surface later as a watchdog "deadlock".
///
/// # Examples
///
/// ```
/// use helios_core::FusionMode;
/// use helios_uarch::PipeConfig;
///
/// let cfg = PipeConfig::builder()
///     .fusion(FusionMode::Helios)
///     .rob_size(64)
///     .build()?;
/// assert_eq!(cfg.rob_size, 64);
/// assert!(PipeConfig::builder().sq_size(0).build().is_err());
/// # Ok::<(), helios_uarch::ConfigError>(())
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct PipeConfigBuilder {
    cfg: PipeConfig,
}

impl PipeConfigBuilder {
    /// Sets the fusion mode under evaluation.
    pub fn fusion(mut self, fusion: FusionMode) -> Self {
        self.cfg.fusion = fusion;
        self
    }

    /// Sets the reorder-buffer capacity.
    pub fn rob_size(mut self, n: usize) -> Self {
        self.cfg.rob_size = n;
        self
    }

    /// Sets the issue-queue capacity.
    pub fn iq_size(mut self, n: usize) -> Self {
        self.cfg.iq_size = n;
        self
    }

    /// Sets the load-queue capacity.
    pub fn lq_size(mut self, n: usize) -> Self {
        self.cfg.lq_size = n;
        self
    }

    /// Sets the store-queue capacity.
    pub fn sq_size(mut self, n: usize) -> Self {
        self.cfg.sq_size = n;
        self
    }

    /// Sets the allocation-queue capacity.
    pub fn aq_size(mut self, n: usize) -> Self {
        self.cfg.aq_size = n;
        self
    }

    /// Sets the physical integer register file size.
    pub fn prf_size(mut self, n: usize) -> Self {
        self.cfg.prf_size = n;
        self
    }

    /// Sets the commit-progress watchdog window.
    pub fn watchdog_cycles(mut self, n: u64) -> Self {
        self.cfg.watchdog_cycles = n;
        self
    }

    /// Escape hatch for fields without a dedicated setter (latencies, port
    /// counts, cache geometry, `helios` sub-parameters). The closure edits
    /// the draft in place; [`PipeConfigBuilder::build`] still validates the
    /// result.
    pub fn tweak(mut self, f: impl FnOnce(&mut PipeConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<PipeConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

impl PipeConfig {
    /// A validating builder starting from the Table II defaults.
    pub fn builder() -> PipeConfigBuilder {
        PipeConfigBuilder::default()
    }

    /// Checks the structural invariants the pipeline needs to make progress.
    /// [`PipeConfigBuilder::build`] applies this automatically.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (n, what) in [
            (self.aq_size, "AQ"),
            (self.rob_size, "ROB"),
            (self.iq_size, "IQ"),
            (self.lq_size, "LQ"),
            (self.sq_size, "SQ"),
        ] {
            if n == 0 {
                return Err(ConfigError::ZeroCapacity(what));
            }
        }
        for (n, what) in [
            (self.fetch_width, "fetch"),
            (self.rename_width, "rename"),
            (self.dispatch_width, "dispatch"),
            (self.commit_width, "commit"),
        ] {
            if n == 0 {
                return Err(ConfigError::ZeroWidth(what));
            }
        }
        if self.free_phys_regs() == 0 {
            return Err(ConfigError::PrfTooSmall {
                prf_size: self.prf_size,
            });
        }
        if self.watchdog_cycles < self.commit_width as u64 {
            return Err(ConfigError::WatchdogTooSmall {
                watchdog_cycles: self.watchdog_cycles,
                commit_width: self.commit_width,
            });
        }
        Ok(())
    }

    /// A configuration for the given fusion mode, otherwise default.
    pub fn with_fusion(fusion: FusionMode) -> PipeConfig {
        PipeConfig {
            fusion,
            ..PipeConfig::default()
        }
    }

    /// The structure sizes relevant to Helios storage accounting.
    pub fn sizes(&self) -> PipelineSizes {
        PipelineSizes {
            aq: self.aq_size,
            iq: self.iq_size,
            rob: self.rob_size,
            lq: self.lq_size,
            sq: self.sq_size,
            arch_regs: 32,
            lsq_pair_entries: 88,
            nest: self.helios.max_nest,
        }
    }

    /// Number of physical registers available for renaming.
    pub fn free_phys_regs(&self) -> usize {
        self.prf_size.saturating_sub(32)
    }

    /// A stable 64-bit digest of the *complete* configuration, used to key
    /// result-store lines by `(trace, config)` so a stored cell is only
    /// reused for an identical configuration.
    ///
    /// FNV-1a over every field, enumerated through exhaustive destructuring
    /// (the same compile-enforced idiom as the `SimStats` counter table): adding a
    /// field to [`PipeConfig`], [`HeliosParams`], or any nested
    /// sub-structure without extending this function refuses to compile, so
    /// a new knob can never silently alias two distinct configs. The
    /// previous implementation hashed the derived `Debug` rendering, which
    /// covered fields transitively but would have gone quietly stale the
    /// day a sub-structure gained a hand-written `Debug`. A digest change
    /// across builds is always safe — the affected cell is simply
    /// re-simulated.
    pub fn digest(&self) -> u64 {
        struct Fnv(u64);
        impl Fnv {
            fn u64(&mut self, v: u64) {
                for b in v.to_le_bytes() {
                    self.0 ^= b as u64;
                    self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            fn usize(&mut self, v: usize) {
                self.u64(v as u64);
            }
            fn opt(&mut self, v: Option<usize>) {
                // Tagged so `None` and `Some(0)` hash differently.
                match v {
                    None => self.u64(0),
                    Some(n) => {
                        self.u64(1);
                        self.usize(n);
                    }
                }
            }
            fn str(&mut self, s: &str) {
                self.u64(s.len() as u64);
                for b in s.bytes() {
                    self.0 ^= b as u64;
                    self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            fn cache(&mut self, c: CacheParams) {
                let CacheParams {
                    size,
                    ways,
                    line,
                    latency,
                } = c;
                self.usize(size);
                self.usize(ways);
                self.usize(line);
                self.u64(latency);
            }
        }
        let PipeConfig {
            fusion,
            helios,
            fetch_width,
            rename_width,
            dispatch_width,
            commit_width,
            aq_size,
            rob_size,
            iq_size,
            lq_size,
            sq_size,
            prf_size,
            alu_ports,
            load_ports,
            store_ports,
            store_drain_per_cycle,
            alu_latency,
            mul_latency,
            div_latency,
            branch_redirect_penalty,
            line_cross_penalty,
            l1d,
            l2,
            l3,
            mem_latency,
            watchdog_cycles,
        } = *self;
        let HeliosParams {
            uch,
            uch_queue,
            fp,
            max_nest,
            line_bytes,
            dbr_store_pairs,
        } = helios;
        let UchConfig {
            load_entries,
            max_distance,
        } = uch;
        let UchQueueConfig {
            entries: uch_queue_entries,
            drain_per_cycle: uch_queue_drain,
        } = uch_queue;
        let FpConfig {
            sets: fp_sets,
            ways: fp_ways,
            selector_entries: fp_selector_entries,
            tag_bits: fp_tag_bits,
            distance_bits: fp_distance_bits,
            probabilistic_confidence: fp_probabilistic,
        } = fp;
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.str(fusion.name());
        h.usize(load_entries);
        h.u64(max_distance as u64);
        h.opt(uch_queue_entries);
        h.usize(uch_queue_drain);
        h.usize(fp_sets);
        h.usize(fp_ways);
        h.usize(fp_selector_entries);
        h.u64(fp_tag_bits as u64);
        h.u64(fp_distance_bits as u64);
        h.u64(fp_probabilistic as u64);
        h.usize(max_nest);
        h.u64(line_bytes);
        h.u64(dbr_store_pairs as u64);
        h.usize(fetch_width);
        h.usize(rename_width);
        h.usize(dispatch_width);
        h.usize(commit_width);
        h.usize(aq_size);
        h.usize(rob_size);
        h.usize(iq_size);
        h.usize(lq_size);
        h.usize(sq_size);
        h.usize(prf_size);
        h.usize(alu_ports);
        h.usize(load_ports);
        h.usize(store_ports);
        h.usize(store_drain_per_cycle);
        h.u64(alu_latency);
        h.u64(mul_latency);
        h.u64(div_latency);
        h.u64(branch_redirect_penalty);
        h.u64(line_cross_penalty);
        h.cache(l1d);
        h.cache(l2);
        h.cache(l3);
        h.u64(mem_latency);
        h.u64(watchdog_cycles);
        h.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_icelake_like() {
        let c = PipeConfig::default();
        assert_eq!(c.fetch_width, 8, "8-wide frontend per §V-A");
        assert_eq!(c.rename_width, 5, "Icelake allocation width");
        assert_eq!(c.aq_size, 140, "AQ size per §IV-B1");
        assert_eq!(c.rob_size, 352);
        assert_eq!(c.l1d.line, 64);
        assert_eq!(c.free_phys_regs(), 248);
        assert_eq!(c.sizes().aq, 140);
    }

    #[test]
    fn with_fusion_sets_mode() {
        let c = PipeConfig::with_fusion(FusionMode::Helios);
        assert_eq!(c.fusion, FusionMode::Helios);
        assert_eq!(c.rob_size, PipeConfig::default().rob_size);
    }

    #[test]
    fn builder_accepts_valid_and_rejects_degenerate() {
        let c = PipeConfig::builder()
            .fusion(FusionMode::Helios)
            .rob_size(64)
            .iq_size(20)
            .lq_size(16)
            .sq_size(12)
            .prf_size(48)
            .build()
            .unwrap();
        assert_eq!(c.fusion, FusionMode::Helios);
        assert_eq!(c.rob_size, 64);

        assert_eq!(
            PipeConfig::builder().rob_size(0).build(),
            Err(ConfigError::ZeroCapacity("ROB"))
        );
        assert_eq!(
            PipeConfig::builder().iq_size(0).build(),
            Err(ConfigError::ZeroCapacity("IQ"))
        );
        assert_eq!(
            PipeConfig::builder().lq_size(0).build(),
            Err(ConfigError::ZeroCapacity("LQ"))
        );
        assert_eq!(
            PipeConfig::builder().sq_size(0).build(),
            Err(ConfigError::ZeroCapacity("SQ"))
        );
        assert!(matches!(
            PipeConfig::builder().prf_size(32).build(),
            Err(ConfigError::PrfTooSmall { prf_size: 32 })
        ));
        assert!(matches!(
            PipeConfig::builder().watchdog_cycles(4).build(),
            Err(ConfigError::WatchdogTooSmall { .. })
        ));
    }

    #[test]
    fn digest_separates_configs_and_is_stable() {
        let a = PipeConfig::default();
        let b = PipeConfig::default();
        assert_eq!(a.digest(), b.digest(), "identical configs share a digest");
        assert_ne!(
            PipeConfig::with_fusion(FusionMode::Helios).digest(),
            PipeConfig::with_fusion(FusionMode::NoFusion).digest(),
            "fusion mode is part of the digest"
        );
        let tweaked = PipeConfig::builder().rob_size(64).build().unwrap();
        assert_ne!(a.digest(), tweaked.digest(), "structure sizes are covered");
    }

    #[test]
    fn digest_covers_nested_sub_structures() {
        // The exhaustive destructuring must reach every leaf, not just the
        // top-level fields: a knob buried three levels down (e.g. the fusion
        // predictor's set count) still has to separate two configs.
        let base = PipeConfig::default();
        let cases: &[fn(&mut PipeConfig)] = &[
            |c| c.helios.uch.load_entries += 1,
            |c| c.helios.uch.max_distance += 1,
            |c| c.helios.uch_queue.entries = None,
            |c| c.helios.uch_queue.drain_per_cycle += 1,
            |c| c.helios.fp.sets *= 2,
            |c| c.helios.fp.probabilistic_confidence = true,
            |c| c.helios.max_nest += 1,
            |c| c.helios.dbr_store_pairs = true,
            |c| c.l2.latency += 1,
            |c| c.l3.ways /= 2,
            |c| c.line_cross_penalty += 1,
            |c| c.watchdog_cycles += 1,
        ];
        for (i, tweak) in cases.iter().enumerate() {
            let mut t = base;
            tweak(&mut t);
            assert_ne!(base.digest(), t.digest(), "tweak #{i} not covered");
        }
        // `None` and `Some(0)` are different ideal/degenerate queues.
        let mut unbounded = base;
        unbounded.helios.uch_queue.entries = None;
        let mut zero = base;
        zero.helios.uch_queue.entries = Some(0);
        assert_ne!(unbounded.digest(), zero.digest());
    }

    #[test]
    fn builder_tweak_is_still_validated() {
        let c = PipeConfig::builder()
            .tweak(|c| c.alu_ports = 8)
            .build()
            .unwrap();
        assert_eq!(c.alu_ports, 8);
        assert!(PipeConfig::builder()
            .tweak(|c| c.fetch_width = 0)
            .build()
            .is_err());
    }
}
