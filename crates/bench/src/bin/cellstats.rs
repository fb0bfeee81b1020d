//! One-cell microprobe: runs a single (algorithm, machines, scale) cell
//! and prints wall time, event count, record throughput and the
//! selective-streaming account — for sizing host-side optimizations
//! without a full figure sweep.
//!
//! ```text
//! cellstats [ALGO [MACHINES [SCALE [selective|reference|dense]]]] \
//!     [--bins N] [--block-records N] [--iters] [--metrics-json <path>] \
//!     [--fault-seed N] [--scrub]
//! ```
//!
//! `--bins N` overrides the clustered-layout bin count (1 = unclustered
//! arrival-order layout). `--block-records N` overrides the sub-chunk
//! block-index granularity (0 = chunk-granularity serves). `--iters` adds
//! a per-iteration table: active-vertex fraction, chunks/records and
//! blocks/records skipped (split into empty-frontier and mid-wavefront
//! skips), and tombstone/compaction counts — the shape of a frontier
//! collapsing or a Borůvka contraction eating the edge set.
//! `--metrics-json <path>` dumps the run's report plus per-iteration
//! selectivity as stable JSON. `--fault-seed N` turns on checkpointing
//! and injects the seed-`N` generated fault plan (crashes + torn writes +
//! device + fabric + corruption windows); the fault account and integrity
//! lines show what the recovery protocol absorbed. `--scrub` enables the
//! between-iteration integrity scrub pass. The `states digest` line is a
//! layout- and fault-invariant fingerprint of the final vertex states —
//! `scripts/bench_smoke.sh` compares it between corruption-seeded and
//! fault-free runs.
//!
//! Bad arguments print the usage to stderr and exit with status 2;
//! `--help` prints it to stdout.

use std::process::ExitCode;
use std::time::Instant;

use chaos_algos::{needs_undirected, needs_weights, with_algo, AlgoParams, ALGO_NAMES};
use chaos_core::{run_chaos, ChaosConfig, FaultPlan, FaultPlanConfig, Streaming};
use chaos_graph::rmat::MAX_SCALE;
use chaos_graph::RmatConfig;

const USAGE: &str = "usage: cellstats [ALGO [MACHINES [SCALE [selective|reference|dense]]]]
                 [--bins N] [--block-records N] [--iters] [--metrics-json PATH]
                 [--fault-seed N] [--scrub]
defaults: PR 4 14 selective; ALGO is a Table 1 short name (PR, BFS, WCC, ...)";

/// The parsed command line.
struct Args {
    algo: String,
    machines: usize,
    scale: u32,
    streaming: Streaming,
    bins: Option<u32>,
    block_records: Option<u32>,
    per_iter: bool,
    metrics_json: Option<String>,
    fault_seed: Option<u64>,
    scrub: bool,
}

/// Removes `flag` and its value from `args`, parsing the value with
/// `parse`; `what` describes the expected value for the error message.
fn take_value<T>(
    args: &mut Vec<String>,
    flag: &str,
    what: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args
        .get(i + 1)
        .and_then(|s| parse(s))
        .ok_or_else(|| format!("{flag} needs {what}"))?;
    args.drain(i..=i + 1);
    Ok(Some(value))
}

/// Removes a boolean `flag` from `args`, returning whether it was there.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let present = args.iter().any(|a| a == flag);
    args.retain(|a| a != flag);
    present
}

/// Parses a positional argument, falling back to `default` when absent.
fn positional<T: std::str::FromStr>(
    args: &[String],
    i: usize,
    what: &str,
    default: T,
) -> Result<T, String> {
    match args.get(i) {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| format!("bad {what} {s:?}")),
    }
}

fn parse_args(mut args: Vec<String>) -> Result<Args, String> {
    let per_iter = take_switch(&mut args, "--iters");
    let scrub = take_switch(&mut args, "--scrub");
    let bins = take_value(
        &mut args,
        "--bins",
        "a positive integer (1 = unclustered)",
        |s| s.parse().ok().filter(|&b: &u32| b > 0),
    )?;
    let block_records = take_value(
        &mut args,
        "--block-records",
        "a record count (0 = chunk-granularity)",
        |s| s.parse().ok(),
    )?;
    let metrics_json = take_value(&mut args, "--metrics-json", "an output path", |s| {
        Some(s.to_string())
    })?;
    let fault_seed = take_value(&mut args, "--fault-seed", "an integer seed", |s| {
        s.parse().ok()
    })?;
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unknown option {flag}"));
    }
    if args.len() > 4 {
        return Err(format!("unexpected argument {:?}", args[4]));
    }
    let algo = args.first().cloned().unwrap_or_else(|| "PR".to_string());
    if !ALGO_NAMES.contains(&algo.as_str()) {
        return Err(format!(
            "unknown algorithm {algo:?}; expected one of {}",
            ALGO_NAMES.join(", ")
        ));
    }
    let machines = positional(&args, 1, "machine count", 4)?;
    if machines == 0 {
        return Err("need at least one machine".into());
    }
    let scale = positional(&args, 2, "RMAT scale", 14)?;
    if scale > MAX_SCALE {
        return Err(format!(
            "RMAT scale must be at most {MAX_SCALE} (4-byte vertex ids)"
        ));
    }
    let streaming = match args.get(3) {
        None => Streaming::Selective,
        Some(s) => s.parse()?,
    };
    Ok(Args {
        algo,
        machines,
        scale,
        streaming,
        bins,
        block_records,
        per_iter,
        metrics_json,
        fault_seed,
        scrub,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Args {
        algo,
        machines,
        scale,
        streaming,
        bins,
        block_records,
        per_iter,
        metrics_json,
        fault_seed,
        scrub,
    } = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut cfg = ChaosConfig::new(machines);
    cfg.chunk_bytes = 32 * 1024;
    cfg.mem_budget = 256 * 1024;
    cfg.streaming = streaming;
    if let Some(b) = bins {
        cfg.cluster_bins = b;
    }
    if let Some(br) = block_records {
        cfg.block_records = br;
    }
    if let Some(seed) = fault_seed {
        cfg.checkpoint = true;
        cfg.faults = FaultPlan::generate(seed, &FaultPlanConfig::soak(machines));
    }
    cfg.scrub = scrub;
    if let Err(e) = cfg.validate() {
        eprintln!("error: {e}\n{USAGE}");
        return ExitCode::from(2);
    }
    let cfg_rmat = if needs_weights(&algo) {
        RmatConfig::paper_weighted(scale)
    } else {
        RmatConfig::paper(scale)
    };
    let mut g = cfg_rmat.generate();
    if needs_undirected(&algo) {
        g = g.to_undirected();
    }
    let t0 = Instant::now();
    let params = AlgoParams::default();
    let (rep, digest) = with_algo!(algo.as_str(), &params, |p| {
        let (rep, states) = run_chaos(cfg, p, &g);
        (rep, chaos_bench::harness::digest_states(&states))
    });
    let wall = t0.elapsed().as_secs_f64();
    // `cluster_bins` is the run's *effective* layout — dense-activity
    // programs keep the single-bin arrival order whatever was requested.
    println!(
        "{algo} m={machines} scale={scale} streaming={streaming} bins={}: \
         wall {:.3}s, events {}, records {}, iters {}, {:.0} events/s, {:.0} records/s",
        rep.cluster_bins,
        wall,
        rep.events,
        rep.records_streamed,
        rep.iterations,
        rep.events as f64 / wall,
        rep.records_streamed as f64 / wall,
    );
    println!(
        "dispatch: {} events, {} queue ops",
        rep.events, rep.queue_ops,
    );
    let fa = &rep.faults;
    println!(
        "faults: {} aborts, {} iterations redone, {} device retries, \
         {:.3}s lost to faults; {} checkpoint bytes in {:.3}s",
        fa.aborts,
        fa.iterations_redone,
        fa.device_retries,
        fa.faulted_time as f64 / 1e9,
        fa.checkpoint_bytes,
        fa.checkpoint_time as f64 / 1e9,
    );
    println!(
        "integrity: {} corruptions detected, {} repaired, {} frames scrubbed, \
         {} checksum bytes",
        fa.corruption_detected,
        fa.corruption_repaired,
        fa.frames_scrubbed,
        fa.checksum_bytes,
    );
    println!("states digest: {digest:016x}");
    let streamed_plus_skipped = rep.records_streamed + rep.records_skipped();
    let skipped_empty = rep.records_skipped() - rep.records_skipped_mid();
    println!(
        "selectivity: {} chunks ({} records, {:.1}% of edge+update traffic) skipped \
         [{} records on empty frontiers, {} mid-wavefront]; \
         {} compactions dropped {} edges",
        rep.chunks_skipped(),
        rep.records_skipped(),
        100.0 * rep.records_skipped() as f64 / streamed_plus_skipped.max(1) as f64,
        skipped_empty,
        rep.records_skipped_mid(),
        rep.compactions(),
        rep.edges_tombstoned(),
    );
    // Sub-chunk selectivity: blocks the block indexes proved inactive
    // inside chunks that were otherwise served (zero with
    // `--block-records 0` or under dense activity).
    println!(
        "block selectivity: {} blocks skipped inside served chunks \
         ({} records never read or streamed)",
        rep.blocks_skipped(),
        rep.records_skipped_intra(),
    );
    // The layout's direct observable: how narrow the stored chunk windows
    // are relative to their partition's span.
    let h = &rep.window_widths;
    let parts: Vec<String> = chaos_core::WindowHistogram::labels()
        .iter()
        .zip(h.buckets.iter())
        .filter(|(_, &n)| n > 0)
        .map(|(l, n)| format!("{l}: {n}"))
        .collect();
    println!(
        "window widths ({} indexed chunks{}{}): {}",
        h.chunks(),
        if h.empty > 0 {
            format!(", {} compacted-empty", h.empty)
        } else {
            String::new()
        },
        if h.unindexed > 0 {
            format!(", {} unindexed", h.unindexed)
        } else {
            String::new()
        },
        parts.join(", "),
    );
    if per_iter {
        println!(
            "{:>5} {:>8} {:>10} {:>12} {:>12} {:>12} {:>10} {:>12} {:>12} {:>12}",
            "iter",
            "active%",
            "chunks-skp",
            "records-skp",
            "skp-empty",
            "skp-mid",
            "blocks-skp",
            "skp-intra",
            "tombstoned",
            "compactions"
        );
        for (i, s) in rep.selectivity.iter().enumerate() {
            println!(
                "{i:>5} {:>7.1}% {:>10} {:>12} {:>12} {:>12} {:>10} {:>12} {:>12} {:>12}",
                100.0 * s.active_fraction(),
                s.chunks_skipped,
                s.records_skipped,
                s.records_skipped - s.records_skipped_mid,
                s.records_skipped_mid,
                s.blocks_skipped,
                s.records_skipped_intra,
                s.edges_tombstoned,
                s.compactions,
            );
        }
    }
    if let Some(path) = metrics_json {
        let label = format!("{algo}/m{machines}");
        let dump = chaos_bench::metrics_json(&[(label, rep)]);
        if let Err(e) = std::fs::write(&path, dump) {
            eprintln!("error: cannot write metrics to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[metrics-json] wrote 1 run to {path}");
    }
    ExitCode::SUCCESS
}
