//! Full statistics dump for one workload across all configurations —
//! the debugging companion to the figure binaries.
//!
//! ```text
//! cargo run --release -p helios-bench --bin inspect -- --only 605.mcf
//! cargo run --release -p helios-bench --bin inspect -- --only 605.mcf --obs
//! ```
//!
//! Each configuration prints its stats registry: every raw counter and
//! derived metric with its unit. With `--obs`, each configuration runs with
//! the event observer attached and the registry adds the observer's event
//! counters and its fetch-to-commit latency and occupancy histograms.

use helios::{FusionMode, ObsOpts, SimRequest};
use helios_bench::ExtraFlag;

fn main() {
    let opts = helios_bench::parse_opts_with(&[ExtraFlag::Bool("--obs")]);
    let obs = if opts.extra[0].is_some() {
        ObsOpts::metrics()
    } else {
        ObsOpts::off()
    };
    for w in &opts.workloads {
        println!("=== {} ===", w.name);
        for mode in FusionMode::ALL {
            let run = SimRequest::mode(w, mode).observing(obs).run();
            println!("--- {} ---", mode.name());
            print!("{}", run.registry().to_text());
        }
        println!();
    }
}
