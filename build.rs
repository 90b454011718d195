//! Computes `MODEL_DIGEST`: one 64-bit hash over the sources of the timing
//! model, `helios-uarch` and the workspace crates it depends on. Result
//! store lines carry it, so a store written by another model is never
//! answered from (`src/store.rs`). Std only, like the rest of the tree.

use std::fs;
use std::path::{Path, PathBuf};

/// `helios-uarch` and its workspace dependencies, under `crates/`.
const MODEL_CRATES: [&str; 5] = ["core", "emu", "isa", "prng", "uarch"];

fn main() {
    let root = PathBuf::from(std::env::var_os("CARGO_MANIFEST_DIR").expect("set by cargo"));
    println!("cargo:rerun-if-changed=build.rs");
    let mut files = Vec::new();
    for name in MODEL_CRATES {
        let src = Path::new("crates").join(name).join("src");
        println!("cargo:rerun-if-changed={}", src.display());
        collect(&root, &src, &mut files);
    }
    // Relative, `/`-separated and sorted, so two checkouts of the same
    // sources give the same digest wherever they live.
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64; // FNV-1a 64
    for rel in &files {
        let text = fs::read(root.join(rel)).expect("read model source");
        for part in [rel.as_bytes(), &text] {
            for &b in (part.len() as u64).to_le_bytes().iter().chain(part) {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    let out = PathBuf::from(std::env::var_os("OUT_DIR").expect("set by cargo"));
    fs::write(out.join("model_digest.rs"), format!("0x{hash:016x}\n")).expect("write digest");
}

/// Appends every `.rs` file under `root/dir`, as a `/`-separated path
/// relative to `root`.
fn collect(root: &Path, dir: &Path, files: &mut Vec<String>) {
    for entry in fs::read_dir(root.join(dir)).expect("read model source dir") {
        let name = entry.expect("read model source dir").file_name();
        let rel = dir.join(&name);
        if root.join(&rel).is_dir() {
            collect(root, &rel, files);
        } else if rel.extension().is_some_and(|e| e == "rs") {
            let parts: Vec<_> = rel.iter().map(|p| p.to_string_lossy()).collect();
            files.push(parts.join("/"));
        }
    }
}
