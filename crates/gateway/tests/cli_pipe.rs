//! The CLI's stdout may be a pipe whose reader has already gone
//! (`pimsyn zoo | head -1`). Writing the report must then end the process
//! quietly with exit 0, not panic with "failed printing to stdout".
//!
//! Lives in the `pimsyn-gateway` crate so `CARGO_BIN_EXE_pimsyn` points at
//! the real CLI binary.

use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_pimsyn");

/// Runs the CLI with stdout on a pipe whose read end is closed before the
/// process starts, so its first report write fails with a broken pipe.
fn run_into_closed_pipe(args: &[&str]) {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let output = Command::new(BIN)
        .args(args)
        .stdin(Stdio::null())
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn pimsyn");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn zoo_listing_into_a_closed_pipe_exits_zero_quietly() {
    run_into_closed_pipe(&["zoo"]);
}

#[test]
fn synthesis_report_into_a_closed_pipe_exits_zero_quietly() {
    run_into_closed_pipe(&["--model", "alexnet-cifar", "--power", "9", "--seed", "7"]);
    run_into_closed_pipe(&[
        "--model",
        "alexnet-cifar",
        "--power",
        "9",
        "--seed",
        "7",
        "--output",
        "json",
        "--quiet",
    ]);
}
