//! # helios-uarch — cycle-level out-of-order pipeline model
//!
//! The timing substrate of the Helios reproduction (MICRO 2022): a
//! trace-driven model of the paper's Icelake-like seven-stage out-of-order
//! core (Table II) with the complete Helios fusion machinery wired in.
//!
//! Functional execution happens in `helios-emu`; this crate replays the
//! retired-µ-op stream through Fetch → Decode(+fusion) → Allocation Queue →
//! Rename → Dispatch → Issue/Execute → Commit with:
//!
//! * ROB / IQ / LQ / SQ / PRF resources and per-resource stall accounting
//!   (Fig. 9),
//! * a TAGE branch predictor, return-address stack, and last-target BTB,
//! * store-set memory-dependence prediction with violation flushes,
//! * a three-level data-cache hierarchy and TSO senior-store draining,
//! * decode-time consecutive fusion, the Helios UCH + fusion predictor
//!   (NCSF / NCTF / DBR pairs, §IV), and an oracle-fusion upper bound.
//!
//! # Examples
//!
//! ```
//! use helios_emu::RetireStream;
//! use helios_isa::parse_asm;
//! use helios_core::FusionMode;
//! use helios_uarch::{PipeConfig, Pipeline};
//!
//! let prog = parse_asm(r#"
//!     li a0, 100
//! top:
//!     addi a0, a0, -1
//!     bnez a0, top
//!     ebreak
//! "#)?;
//! let stream = RetireStream::new(prog, 1_000_000);
//! let mut pipe = Pipeline::new(PipeConfig::with_fusion(FusionMode::NoFusion), stream);
//! let stats = pipe.try_run(10_000_000)?;
//! assert!(stats.ipc() > 0.5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod bpred;
mod cache;
mod check;
mod commit;
mod config;
mod error;
mod execute;
mod fault;
mod frontend;
mod memdep;
pub mod obs;
mod pipeline;
pub mod profile;
mod rename;
mod stats;
mod uop;
mod window;

pub use bpred::{BranchOutcome, BranchPredictor, Tage};
pub use cache::{Cache, Hierarchy, MemResult};
pub use check::OracleChecker;
pub use config::{CacheParams, ConfigError, PipeConfig, PipeConfigBuilder};
pub use error::{DeadlockReport, InvariantReport, SimError};
pub use fault::{CellChaos, CellFault, FaultConfig, FaultInjector};
pub use memdep::StoreSets;
pub use obs::{Histogram, ObsOpts, Observer, StatEntry, StatValue, StatsRegistry, Unit, UopRec};
pub use pipeline::Pipeline;
pub use stats::SimStats;
pub use uop::{AqEntry, CatalystHazards, DynUop, FuClass, Fused};
pub use window::TraceWindow;

pub use helios_emu::UopSource;
