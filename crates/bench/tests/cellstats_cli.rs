//! `cellstats` command-line handling: `--help` prints the usage and
//! succeeds; bad input prints the usage to stderr and exits with status 2
//! instead of panicking.

use std::process::{Command, Output};

fn cellstats(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cellstats"))
        .args(args)
        .output()
        .expect("cellstats runs")
}

/// Asserts a usage error: status 2, the reason and the usage on stderr,
/// nothing on stdout, no panic.
fn assert_usage_error(args: &[&str], reason: &str) {
    let out = cellstats(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr was {stderr}");
    assert!(stderr.contains(reason), "{args:?}: stderr was {stderr}");
    assert!(
        stderr.contains("usage: cellstats"),
        "{args:?}: stderr was {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{args:?}: stderr was {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?}: nothing runs on bad input");
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = cellstats(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: cellstats"));
}

#[test]
fn zero_bins_is_a_usage_error() {
    assert_usage_error(&["--bins", "0"], "--bins needs a positive integer");
}

#[test]
fn unknown_algorithm_is_a_usage_error() {
    assert_usage_error(&["NOPE"], "unknown algorithm \"NOPE\"");
}

#[test]
fn other_bad_arguments_are_usage_errors() {
    assert_usage_error(&["--block-records", "many"], "--block-records needs");
    assert_usage_error(&["--metrics-json"], "--metrics-json needs an output path");
    assert_usage_error(
        &["--fault-seed", "-x"],
        "--fault-seed needs an integer seed",
    );
    assert_usage_error(&["PR", "4", "12", "eager"], "unknown streaming mode");
    assert_usage_error(&["PR", "0"], "need at least one machine");
    assert_usage_error(&["PR", "four"], "bad machine count");
    assert_usage_error(&["PR", "4", "40"], "RMAT scale must be at most 31");
    assert_usage_error(
        &["PR", "4", "12", "selective", "extra"],
        "unexpected argument",
    );
    assert_usage_error(&["--backend", "par:4"], "unknown option --backend");
}
