//! One benchmark invocation: untraced passes for the requested time, a
//! traced pass when asked, the correctness verdict and the result line.

use std::time::{Duration, Instant};

use crate::bench::{self, Pass, PassOpts};
use crate::calib::Calibrator;
use crate::report::{self, Metric};
use crate::trace::Tracer;
use crate::workload::Workload;

/// `setup_s` is the median of at least this many set-ups per run.
const MIN_SETUP_SAMPLES: usize = 3;

/// What one invocation measured.
#[derive(Debug)]
pub struct Outcome {
    /// Every cell passed its oracle, no cell panicked, and every pass (and
    /// every repeat run of a cell) had the same simulated outcome.
    pub correct: bool,
    /// Cells run, over all passes.
    pub attempted: u64,
    /// Cells that panicked or failed their oracle.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<(Metric, f64)>,
    /// The traced run's spans (empty when untraced).
    pub tracer: Tracer,
    /// Problems found, one line each.
    pub problems: Vec<String>,
}

/// Runs `w`: untraced passes until `seconds` have passed (at least one),
/// then, with `trace`, one traced pass with host replays.
pub fn run(w: &Workload, seconds: f64, trace: bool) -> Outcome {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut setups = Vec::new();
    // The reference inputs stay resident for the whole run; their size is
    // taken off the process's memory high-water mark.
    let before_mb = status_mb("VmRSS:");
    let mut cal = Calibrator::new();
    let cal_mb = status_mb("VmRSS:") - before_mb;
    loop {
        // The oracle runs on one pass per process: the first untraced one,
        // or the traced one.
        let opts = PassOpts {
            run: true,
            check: !trace && passes.is_empty(),
            replay: false,
            reps: w.reps,
        };
        let p = bench::pass(w, opts, &mut Tracer::new(false), Some(&mut cal));
        eprintln!(
            "perfbench: pass {}: wall {:.4} s, setup {:.4} s",
            passes.len(),
            p.wall_s,
            p.setup_s
        );
        setups.push(p.setup_s);
        passes.push(p);
        if start.elapsed() >= Duration::from_secs_f64(seconds) {
            break;
        }
    }
    while setups.len() < MIN_SETUP_SAMPLES {
        let opts = PassOpts {
            run: false,
            check: false,
            replay: false,
            reps: 1,
        };
        setups.push(bench::pass(w, opts, &mut Tracer::new(false), None).setup_s);
    }
    let mut tracer = Tracer::new(trace);
    let traced = trace.then(|| {
        let opts = PassOpts {
            run: true,
            check: true,
            replay: true,
            reps: 1,
        };
        bench::pass(w, opts, &mut tracer, None)
    });

    for c in &passes[0].cells {
        let cell = &w.cells[c.cell];
        if let Some(r) = &c.report {
            eprintln!(
                "perfbench: cell {:>2} {:<4} m={:<2} RMAT-{}: host {:.4} s, sim {:.6} s, {} iterations, {} aborts",
                c.cell, cell.algo, cell.machines, cell.scale, c.run_s + c.final_s,
                r.seconds(), r.iterations, r.faults.aborts,
            );
        }
    }
    let mut problems = Vec::new();
    let all: Vec<&Pass> = passes.iter().chain(traced.as_ref()).collect();
    let mut attempted = 0;
    let mut failed = 0;
    for p in &all {
        for c in &p.cells {
            attempted += 1;
            if let Some(e) = &c.error {
                failed += 1;
                let cell = &w.cells[c.cell];
                problems.push(format!(
                    "{} m={} RMAT-{}: {e}",
                    cell.algo, cell.machines, cell.scale
                ));
            }
        }
    }
    let fp = all[0].fingerprint();
    if all.iter().any(|p| p.fingerprint() != fp) {
        problems.push(format!(
            "nondeterministic: pass fingerprints differ: {:?}",
            all.iter().map(|p| p.fingerprint()).collect::<Vec<_>>()
        ));
    }
    let factor = cal.factor();
    eprintln!(
        "perfbench: reference work {:.4} s (median), host times scaled by {factor:.4}",
        cal.median_sample_s()
    );
    let metrics = match &traced {
        Some(t) => {
            let untraced_wall = report::median_pass_wall_s(&passes);
            report::per_layer(t, &tracer, untraced_wall, cal.median_sample_s())
        }
        None => report::end_to_end(&passes, &setups, status_mb("VmHWM:") - cal_mb, factor),
    };
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        tracer,
        problems,
    }
}

/// A memory figure of this process from `/proc/self/status` (`VmHWM:`,
/// the resident-set high-water mark, or `VmRSS:`), MiB; 0 where `/proc`
/// is unavailable.
pub fn status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
