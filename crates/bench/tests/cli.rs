//! The figure binaries' command line: an argument they do not know is a
//! usage error before any sweep starts, never a silently ignored flag.

use std::process::Command;

/// Runs `fig10` with `args` over an empty results directory and returns
/// its exit code, its stderr and whether it left a result store behind.
fn fig10(tag: &str, args: &[&str]) -> (Option<i32>, String, bool) {
    let dir = std::env::temp_dir().join(format!("helios-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_fig10"))
        .args(args)
        .env("HELIOS_RESULTS_DIR", &dir)
        .output()
        .expect("spawn fig10");
    let swept = dir.join("cells.jsonl").exists();
    std::fs::remove_dir_all(&dir).ok();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        swept,
    )
}

#[test]
fn unknown_flags_exit_with_usage_before_any_sweep() {
    // `--only crc32` keeps a wrongly accepted run short.
    for flag in ["--quik", "--resume", "--job"] {
        let (code, stderr, swept) = fig10(flag.trim_start_matches('-'), &[flag, "--only", "crc32"]);
        assert_eq!(code, Some(helios::exit::USAGE), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("`{flag}`")),
            "{flag} not named: {stderr}"
        );
        assert!(!swept, "{flag}: a sweep ran");
    }
}

#[test]
fn malformed_values_exit_with_usage() {
    for args in [
        &["--jobs", "0"][..],
        &["--only"],
        &["--only", "nosuchkernel"],
    ] {
        let (code, stderr, swept) = fig10("value", args);
        assert_eq!(code, Some(helios::exit::USAGE), "{args:?}: {stderr}");
        assert!(!swept, "{args:?}: a sweep ran");
    }
}
