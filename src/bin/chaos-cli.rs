//! `chaos-cli` — run Chaos from the command line.
//!
//! ```text
//! chaos-cli gen --scale 14 --weighted --out graph.bin
//! chaos-cli run --algo PR --scale 14 --machines 8 --iters 5
//! chaos-cli run --algo BFS --graph graph.bin --machines 16 --hdd
//! chaos-cli list
//! ```
//!
//! Graphs are loaded from the binary or text edge-list formats of
//! `chaos::graph::io`, or generated on the fly with `--scale` (RMAT) /
//! `--web-pages` (the Data-Commons-shaped generator).

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use chaos::algos::{needs_undirected, needs_weights, with_algo, AlgoParams, ALGO_NAMES};
use chaos::core::{run_chaos, ChaosConfig, FaultPlan, FaultPlanConfig, Streaming};
use chaos::graph::rmat::MAX_SCALE;
use chaos::graph::{io as graph_io, InputGraph, RmatConfig, WebGraphConfig, MAX_VERTICES};

/// Options that take a value, shared by `gen` and `run`.
const GRAPH_VALUES: &[&str] = &["--graph", "--dataset", "--scale", "--web-pages"];
/// Options of `gen` beyond [`GRAPH_VALUES`].
const GEN_VALUES: &[&str] = &["--out"];
const GEN_SWITCHES: &[&str] = &["--weighted", "--text"];
/// Options of `run` beyond [`GRAPH_VALUES`].
const RUN_VALUES: &[&str] = &[
    "--algo",
    "--machines",
    "--chunk-kb",
    "--mem-kb",
    "--iters",
    "--alpha",
    "--streaming",
    "--cluster-bins",
    "--seed",
    "--fault-seed",
    "--metrics-json",
];
const RUN_SWITCHES: &[&str] = &["--hdd", "--one-gige", "--checkpoint", "--scrub"];

/// Why a command failed: bad input on the command line (usage printed,
/// exit 2) or a run that could not complete (exit 1).
enum CliError {
    Usage(String),
    Failed(String),
}

impl From<String> for CliError {
    fn from(e: String) -> Self {
        CliError::Usage(e)
    }
}

impl From<&str> for CliError {
    fn from(e: &str) -> Self {
        CliError::Usage(e.to_string())
    }
}

/// One command's options, checked against the flags it accepts.
struct Args {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses `argv` (after the command name), rejecting options not in
    /// `values`/`switches`, repeated options, missing values and stray
    /// positional arguments.
    fn parse(argv: &[String], values: &[&[&str]], switches: &[&str]) -> Result<Self, String> {
        let takes_value = |a: &str| values.iter().any(|vs| vs.contains(&a));
        let mut args = Args {
            values: HashMap::new(),
            switches: Vec::new(),
        };
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let repeated = if takes_value(a) {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                args.values.insert(a.clone(), v.clone()).is_some()
            } else if switches.contains(&a.as_str()) {
                let seen = args.flag(a);
                args.switches.push(a.clone());
                seen
            } else if a.starts_with('-') {
                return Err(format!("unknown option {a}"));
            } else {
                return Err(format!("unexpected argument {a:?}"));
            };
            if repeated {
                return Err(format!("{a} given more than once"));
            }
        }
        Ok(args)
    }

    fn flag(&self, name: &str) -> bool {
        self.switches.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for {name}: {v:?}")),
        }
    }

    /// Like [`Args::parsed`], but the value must also pass `ok`; `what`
    /// says what a good value is.
    fn checked<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
        what: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<T, String> {
        let v = self.parsed(name, default)?;
        if ok(&v) {
            Ok(v)
        } else {
            Err(format!("{name} must be {what}"))
        }
    }
}

fn usage() -> String {
    format!(
        "usage: chaos-cli <list | gen | run | help> [options]

  chaos-cli list
  chaos-cli gen  --out <file> [--scale N | --web-pages N | --graph <file>] [--weighted] [--text]
  chaos-cli run  --algo <NAME> [graph source] [cluster options]

GRAPH SOURCE (one of):
  --graph <file>      load a binary or text edge list (auto-detected)
  --dataset <file>    alias for --graph (matches the figures harness)
  --scale <N>         generate RMAT-N (default 12, at most {MAX_SCALE})
  --web-pages <N>     generate an N-page web graph

CLUSTER OPTIONS:
  --machines <M>      simulated machines (default 4)
  --chunk-kb <K>      chunk size in KiB (default 64)
  --mem-kb <K>        per-machine vertex memory budget in KiB (default 1024)
  --iters <I>         iterations for PR/BP (default 5)
  --hdd               magnetic disks instead of SSDs
  --one-gige          1 GigE fabric instead of 40 GigE
  --checkpoint        checkpoint vertex values at gather barriers
  --alpha <A>         work-stealing bias (default 1.0; 0 disables, inf always)
  --streaming <S>     scatter streaming: selective (default), reference
                      (dense oracle, bit-identical report), or dense
  --cluster-bins <N>  source-clustered layout bins per partition
                      (default 16; 1 = unclustered arrival order;
                      results are identical for any value)
  --seed <S>          RNG seed
  --fault-seed <S>    inject the seed-S generated fault plan (crashes +
                      torn writes + device faults + fabric stragglers +
                      corruption windows; implies --checkpoint; final
                      states stay identical)
  --scrub             verify every stored frame between iterations
                      (integrity scrub pass; adds read traffic only)
  --metrics-json <f>  dump the run's report as stable JSON to <f>

Bad arguments print this usage and exit with status 2.

ALGORITHMS: {}",
        ALGO_NAMES.join(", ")
    )
}

fn load_or_generate(args: &Args, algo: Option<&str>) -> Result<InputGraph, CliError> {
    let weighted_needed = algo.map(needs_weights).unwrap_or(args.flag("--weighted"));
    // Check every option before any work starts.
    let scale: u32 = args.checked(
        "--scale",
        12,
        &format!("at most {MAX_SCALE} (2^scale vertices must fit 4-byte ids)"),
        |&s| s <= MAX_SCALE,
    )?;
    let pages: u64 = args.checked(
        "--web-pages",
        1,
        &format!("between 1 and {MAX_VERTICES}"),
        |&p| (1..=MAX_VERTICES).contains(&p),
    )?;
    let mut g = if let Some(path) = args.value("--graph").or_else(|| args.value("--dataset")) {
        let p = PathBuf::from(path);
        graph_io::read_binary(&p)
            .or_else(|_| graph_io::read_text(&p))
            .map_err(|e| CliError::Failed(format!("cannot read {path}: {e}")))?
    } else if args.value("--web-pages").is_some() {
        WebGraphConfig::scaled(pages).generate()
    } else {
        if weighted_needed {
            RmatConfig::paper_weighted(scale).generate()
        } else {
            RmatConfig::paper(scale).generate()
        }
    };
    if weighted_needed && !g.weighted {
        return Err(CliError::Failed(
            "this algorithm needs edge weights; use a weighted graph".into(),
        ));
    }
    if let Some(a) = algo {
        if needs_undirected(a) {
            g = g.to_undirected();
        }
    }
    Ok(g)
}

fn cmd_gen(argv: &[String]) -> Result<(), CliError> {
    let args = &Args::parse(argv, &[GRAPH_VALUES, GEN_VALUES], GEN_SWITCHES)?;
    let out = PathBuf::from(args.value("--out").ok_or("gen needs --out <file>")?);
    let g = load_or_generate(args, None)?;
    let res = if args.flag("--text") {
        graph_io::write_text(&g, &out)
    } else {
        graph_io::write_binary(&g, &out)
    };
    res.map_err(|e| CliError::Failed(format!("cannot write {}: {e}", out.display())))?;
    println!(
        "wrote {} vertices / {} edges ({}weighted) to {}",
        g.num_vertices,
        g.num_edges(),
        if g.weighted { "" } else { "un" },
        out.display()
    );
    Ok(())
}

fn cmd_run(argv: &[String]) -> Result<(), CliError> {
    let args = &Args::parse(argv, &[GRAPH_VALUES, RUN_VALUES], RUN_SWITCHES)?;
    let algo = args.value("--algo").ok_or("run needs --algo <NAME>")?;
    if !ALGO_NAMES.contains(&algo) {
        return Err(format!("unknown algorithm {algo:?}; one of {}", ALGO_NAMES.join(", ")).into());
    }
    let machines: usize = args.parsed("--machines", 4)?;
    let mut cfg = ChaosConfig::new(machines);
    cfg.chunk_bytes = args.parsed("--chunk-kb", 64u64)?.saturating_mul(1024);
    cfg.mem_budget = args.parsed("--mem-kb", 1024u64)?.saturating_mul(1024);
    cfg.steal_alpha = args.parsed("--alpha", 1.0f64)?;
    cfg.checkpoint = args.flag("--checkpoint");
    cfg.streaming = args.parsed("--streaming", Streaming::Selective)?;
    cfg.cluster_bins = args.parsed("--cluster-bins", cfg.cluster_bins)?;
    cfg.seed = args.parsed("--seed", cfg.seed)?;
    if let Some(seed) = args.value("--fault-seed") {
        let seed: u64 = seed.parse().map_err(|_| format!("bad value for --fault-seed: {seed:?}"))?;
        cfg.checkpoint = true;
        cfg.faults = FaultPlan::generate(seed, &FaultPlanConfig::soak(machines));
    }
    cfg.scrub = args.flag("--scrub");
    if args.flag("--hdd") {
        cfg = cfg.with_hdd();
    }
    if args.flag("--one-gige") {
        cfg = cfg.with_one_gige();
    }
    cfg.validate()?;
    let mut params = AlgoParams::default();
    params.pr_iterations = args.checked("--iters", 5u32, "positive", |&i| i > 0)?;
    params.bp_iterations = params.pr_iterations;
    let g = load_or_generate(args, Some(algo))?;

    println!(
        "running {algo} on {} vertices / {} edges over {machines} machines ({}, {})...",
        g.num_vertices,
        g.num_edges(),
        cfg.device.name,
        if args.flag("--one-gige") { "1GigE" } else { "40GigE" },
    );
    let report = with_algo!(algo, &params, |p| run_chaos(cfg, p, &g).0);
    println!("simulated runtime   {:>10.3} s (preprocess {:.3} s)",
        report.seconds(), report.preprocess_time as f64 / 1e9);
    println!("iterations          {:>10}", report.iterations);
    println!("partitions          {:>10}", report.partitions);
    println!("steals              {:>10}", report.steals);
    println!("device I/O          {:>10.1} MB", report.total_device_bytes() as f64 / 1e6);
    println!("aggregate bandwidth {:>10.1} MB/s", report.aggregate_bandwidth() / 1e6);
    println!("network traffic     {:>10.1} MB", report.fabric.remote_bytes as f64 / 1e6);
    println!("device utilization  {:>10.1} %", 100.0 * report.mean_device_utilization());
    if report.chunks_skipped() > 0 || report.compactions() > 0 {
        println!(
            "selective streaming {:>10} chunks skipped ({} records; {} mid-wavefront); \
             {} compactions dropped {} edges",
            report.chunks_skipped(),
            report.records_skipped(),
            report.records_skipped_mid(),
            report.compactions(),
            report.edges_tombstoned(),
        );
    }
    let fa = &report.faults;
    if fa.aborts > 0 || fa.device_retries > 0 || fa.faulted_time > 0 {
        println!(
            "fault recovery      {:>10} aborts ({} iterations redone), {} device retries, \
             {:.3} s lost to faults",
            fa.aborts,
            fa.iterations_redone,
            fa.device_retries,
            fa.faulted_time as f64 / 1e9,
        );
    }
    if fa.checkpoint_bytes > 0 {
        println!(
            "checkpointing       {:>10.1} MB in {:.3} s",
            fa.checkpoint_bytes as f64 / 1e6,
            fa.checkpoint_time as f64 / 1e9,
        );
    }
    if fa.corruption_detected > 0 || fa.frames_scrubbed > 0 {
        println!(
            "data integrity      {:>10} corruptions detected ({} repaired), \
             {} frames scrubbed",
            fa.corruption_detected,
            fa.corruption_repaired,
            fa.frames_scrubbed,
        );
    }
    if fa.checksum_bytes > 0 {
        println!(
            "checksum overhead   {:>10.1} KB of frame bytes",
            fa.checksum_bytes as f64 / 1e3,
        );
    }
    if let Some(agg) = report.iteration_aggs.last() {
        println!("final aggregates    updates={} changed={}", agg.updates_produced, agg.vertices_changed);
    }
    if let Some(path) = args.value("--metrics-json") {
        let label = format!("{algo}/m{machines}");
        let dump = chaos::bench::metrics_json(&[(label, report)]);
        std::fs::write(path, dump)
            .map_err(|e| CliError::Failed(format!("cannot write {path}: {e}")))?;
        eprintln!("[metrics-json] wrote 1 run to {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let rest = argv.get(1..).unwrap_or_default();
    let result = match argv.first().map(String::as_str) {
        Some("list") if rest.is_empty() => {
            for a in ALGO_NAMES {
                println!(
                    "{a:<6} {}{}",
                    if needs_undirected(a) { "undirected " } else { "directed " },
                    if needs_weights(a) { "weighted" } else { "" }
                );
            }
            Ok(())
        }
        Some("gen") => cmd_gen(rest),
        Some("run") => cmd_run(rest),
        Some("help" | "--help" | "-h") if rest.is_empty() => {
            println!("{}", usage());
            Ok(())
        }
        Some(cmd @ ("list" | "help" | "--help" | "-h")) => {
            Err(CliError::Usage(format!("{cmd} takes no arguments")))
        }
        Some(other) => Err(CliError::Usage(format!("unknown command {other:?}"))),
        None => Err(CliError::Usage("missing command".into())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}\n\n{}", usage());
            ExitCode::from(2)
        }
        Err(CliError::Failed(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
