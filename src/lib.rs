//! # helios — experiment harness for the Helios fusion reproduction
//!
//! Ties the stack together: assemble a workload (`helios-workloads`), execute
//! it functionally (`helios-emu`), replay it through the cycle-level
//! out-of-order model (`helios-uarch`) under one of the paper's five fusion
//! configurations (`helios-core`), and report the statistics behind every
//! table and figure of *"Exploring Instruction Fusion Opportunities in
//! General Purpose Processors"* (MICRO 2022).
//!
//! # Examples
//!
//! ```
//! use helios::{FusionMode, SimRequest};
//!
//! let w = helios_workloads::workload("crc32").expect("registered");
//! let base = SimRequest::mode(&w, FusionMode::NoFusion).run().stats;
//! let fused = SimRequest::mode(&w, FusionMode::CsfSbr).run().stats;
//! assert_eq!(base.instructions, fused.instructions);
//! ```

mod experiment;
pub mod fuzz;
mod json;
mod metrics;
mod report;
mod sched;
mod store;

pub use experiment::{
    default_jobs, install_interrupt_handler, panic_message, run_sweep_opts, sweep_interrupted,
    CellOutcome, CellReport, Checkpoint, Progress, RunResult, SimRequest, SimRun, Sweep,
    SweepOptions, SweepPolicy,
};
pub use json::{Json, JsonError};
pub use metrics::{geomean, normalized_ipc, speedup_pct};
pub use report::{format_row, results_dir, Report, Table};
pub use sched::{CellEvent, Sched, Ticket};
pub use store::{stats_from_json, stats_to_json, ResultStore};

/// Digest of the timing model's sources: `helios-uarch` and the workspace
/// crates it depends on, hashed by `build.rs` in sorted path order. Every
/// [`ResultStore`] line carries it, and a line from another model is
/// skipped, so an edit to the model never answers from stale results.
pub const MODEL_DIGEST: u64 = include!(concat!(env!("OUT_DIR"), "/model_digest.rs"));

pub use helios_core::{FusionMode, HeliosParams};
pub use helios_emu::{
    BlockReplay, RecordedTrace, Replay, StoreError, StoreStats, Trace, TraceIoError, TraceStamp,
    TraceStore, UopSource,
};
pub use helios_uarch::{
    CellChaos, CellFault, ConfigError, Histogram, ObsOpts, Observer, PipeConfig,
    PipeConfigBuilder, SimError, SimStats, StatEntry, StatValue, StatsRegistry, Unit, UopRec,
};

/// Process exit codes shared by every figure/table binary, so scripts and CI
/// can distinguish how a sweep ended without parsing output.
pub mod exit {
    /// Every cell simulated successfully.
    pub const COMPLETE: i32 = 0;
    /// No cell produced statistics (e.g. every cell quarantined).
    pub const FAILED: i32 = 1;
    /// Malformed command line.
    pub const USAGE: i32 = 2;
    /// Some cells were quarantined (failed or timed out); the rest completed
    /// and were reported.
    pub const PARTIAL: i32 = 3;
    /// The sweep was interrupted (SIGINT or a stop-after cap) before every
    /// cell was attempted; finished cells are in the result store.
    pub const INTERRUPTED: i32 = 130;
}
pub use helios_workloads::{all_workloads, shared_workload, workload, Workload};
