//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human summary on stderr and, as the last line of stdout, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 1` it also writes the traced run's spans to
//! `perfbench/out/trace-<workload>-<seed>.json`.

use std::path::Path;
use std::process::ExitCode;

use perfbench::report;
use perfbench::run;
use perfbench::workload::{Workload, DEFAULT_SEED, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {v:?}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                a.seconds = v.parse().map_err(|e| bad(&e))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err(format!(
            "--workload is required: one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = match Workload::new(&args.workload, args.seed, false) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: {} seed {} ({} cells), {} s{}",
        w.name,
        w.seed,
        w.cells.len(),
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    let out = run::run(&w, args.seconds, args.trace);
    for p in &out.problems {
        eprintln!("perfbench: FAIL {p}");
    }
    for (m, v) in &out.metrics {
        eprintln!("  {:<32} {v:>18.6} {}", m.name, m.unit);
    }
    if args.trace {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-{}.json", w.name, w.seed));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, out.tracer.to_json(w.name, w.seed)))
        {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{}",
        report::result_json(out.correct, out.attempted, out.failed, &out.metrics)
    );
    ExitCode::SUCCESS
}
