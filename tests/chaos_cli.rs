//! `chaos-cli` command-line handling: `--help` prints the usage and
//! succeeds; unknown commands and options, missing or bad values and
//! out-of-range graph sizes print the usage to stderr and exit with
//! status 2 instead of being ignored or panicking; a run that cannot
//! complete (an unreadable graph file) exits with status 1.

use std::process::{Command, Output};

fn chaos_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chaos-cli"))
        .args(args)
        .output()
        .expect("chaos-cli runs")
}

/// Asserts a usage error: status 2, the reason and the usage on stderr,
/// nothing on stdout, no panic.
fn assert_usage_error(args: &[&str], reason: &str) {
    let out = chaos_cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr was {stderr}");
    assert!(stderr.contains(reason), "{args:?}: stderr was {stderr}");
    assert!(
        stderr.contains("usage: chaos-cli"),
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
    for flag in ["--help", "help", "-h"] {
        let out = chaos_cli(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: chaos-cli"));
    }
}

#[test]
fn unknown_commands_are_usage_errors() {
    assert_usage_error(&[], "missing command");
    assert_usage_error(&["bogus"], "unknown command \"bogus\"");
    assert_usage_error(&["list", "--algo", "PR"], "list takes no arguments");
}

#[test]
fn unknown_options_are_usage_errors() {
    assert_usage_error(
        &["run", "--algo", "PR", "--bogus"],
        "unknown option --bogus",
    );
    // `--backend` was removed; it must not be ignored silently.
    assert_usage_error(
        &["run", "--algo", "PR", "--backend", "par:2"],
        "unknown option --backend",
    );
    assert_usage_error(&["gen", "--out", "g.bin", "--hdd"], "unknown option --hdd");
    assert_usage_error(&["run", "--algo", "PR", "12"], "unexpected argument \"12\"");
}

#[test]
fn bad_values_are_usage_errors() {
    assert_usage_error(&["run"], "run needs --algo");
    assert_usage_error(&["gen", "--scale", "10"], "gen needs --out");
    assert_usage_error(&["run", "--algo", "NOPE"], "unknown algorithm \"NOPE\"");
    assert_usage_error(
        &["run", "--algo", "PR", "--machines"],
        "--machines needs a value",
    );
    assert_usage_error(
        &["run", "--algo", "PR", "--machines", "four"],
        "bad value for --machines",
    );
    assert_usage_error(
        &["run", "--algo", "PR", "--machines", "0"],
        "need at least one machine",
    );
    assert_usage_error(
        &["run", "--algo", "PR", "--iters", "0"],
        "--iters must be positive",
    );
    assert_usage_error(
        &["run", "--algo", "PR", "--mem-kb", "0"],
        "vertex memory budget must be positive",
    );
    assert_usage_error(
        &["run", "--algo", "PR", "--hdd", "--hdd"],
        "--hdd given more than once",
    );
}

#[test]
fn graphs_past_four_byte_ids_are_usage_errors() {
    assert_usage_error(
        &["run", "--algo", "PR", "--scale", "40"],
        "--scale must be at most 31",
    );
    assert_usage_error(
        &["gen", "--out", "g.bin", "--scale", "32"],
        "--scale must be at most 31",
    );
    assert_usage_error(
        &["run", "--algo", "PR", "--web-pages", "4294967296"],
        "--web-pages must be between 1 and 4294967295",
    );
}

#[test]
fn unreadable_graph_fails_without_usage() {
    let out = chaos_cli(&["run", "--algo", "PR", "--graph", "/nonexistent/graph.bin"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr was {stderr}");
    assert!(stderr.contains("cannot read"), "stderr was {stderr}");
    assert!(!stderr.contains("usage: chaos-cli"), "stderr was {stderr}");
}

#[test]
fn small_run_succeeds() {
    let out = chaos_cli(&["run", "--algo", "BFS", "--scale", "8", "--machines", "2"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("simulated runtime"));
}
