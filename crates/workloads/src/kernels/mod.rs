//! Kernel registry: one constructor per paper benchmark.

mod mibench_a;
mod mibench_b;
mod mibench_c;
mod mibench_d;
mod spec_a;
mod spec_b;

use std::sync::{Arc, OnceLock};

use crate::Workload;

/// One constructor per workload of the evaluation, in the paper's table
/// order (SPEC rows first, then MiBench). This list is the one place a
/// kernel is named.
const CONSTRUCTORS: &[fn() -> Workload] = &[
    spec_a::perlbench_1,
    spec_a::perlbench_2,
    spec_a::perlbench_3,
    spec_a::gcc_1,
    spec_a::gcc_2,
    spec_a::gcc_3,
    spec_b::mcf,
    spec_b::omnetpp,
    spec_b::xalancbmk,
    spec_b::deepsjeng,
    spec_b::leela,
    spec_b::exchange2,
    spec_b::xz_1,
    spec_b::xz_2,
    mibench_a::adpcm,
    mibench_a::basicmath,
    mibench_a::bitcount,
    mibench_a::blowfish,
    mibench_a::crc32,
    mibench_b::dijkstra,
    mibench_b::fft,
    mibench_b::gsm_toast,
    mibench_b::gsm_untoast,
    mibench_b::jpeg,
    mibench_c::patricia,
    mibench_c::qsort,
    mibench_c::rijndael,
    mibench_c::rsynth,
    mibench_d::sha,
    mibench_d::stringsearch,
    mibench_d::susan,
    mibench_d::typeset,
];

/// The registry: every constructor run once per process. Assembling the
/// kernels and computing their reference checksums costs milliseconds, so
/// no lookup repeats it.
fn registry() -> &'static [Arc<Workload>] {
    static REGISTRY: OnceLock<Vec<Arc<Workload>>> = OnceLock::new();
    REGISTRY.get_or_init(|| CONSTRUCTORS.iter().map(|build| Arc::new(build())).collect())
}

/// Every workload of the evaluation, in the paper's table order (SPEC rows
/// first, then MiBench), cloned from the registry.
pub fn all_workloads() -> Vec<Workload> {
    registry().iter().map(|w| Workload::clone(w)).collect()
}

/// A single workload by its paper name, cloned from the registry.
pub fn workload(name: &str) -> Option<Workload> {
    shared_workload(name).map(|w| Workload::clone(&w))
}

/// The registry's own copy of a workload, by its paper name: no kernel data
/// is copied (`657.xz_1` carries 2 MB).
pub fn shared_workload(name: &str) -> Option<Arc<Workload>> {
    registry().iter().find(|w| w.name == name).cloned()
}
