//! One pass over a workload: set up every cell, run it, check it.
//!
//! Cells run one after another on the calling thread. Host time is taken
//! around the public calls only — `RmatConfig::generate`,
//! `InputGraph::to_undirected`, `Cluster::new`, `Cluster::run` and
//! `Cluster::final_states` — and the oracle check and host replays sit
//! outside every timed region.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use chaos_algos::with_algo;
use chaos_bench::harness::digest_states;
use chaos_core::{ChaosConfig, Cluster, RunReport};
use chaos_graph::InputGraph;

use crate::calib::Calibrator;
use crate::oracle::Checked;
use crate::replay::{self, Replay};
use crate::trace::Tracer;
use crate::workload::Workload;

/// What a pass does beyond setting every cell up.
#[derive(Debug, Clone, Copy)]
pub struct PassOpts {
    /// Run the cells (`false`: a set-up-only pass, for more `setup_s`
    /// samples).
    pub run: bool,
    /// Check each cell's final states against its oracle.
    pub check: bool,
    /// Run the host-replay probes after each cell.
    pub replay: bool,
    /// Runs of each cell on its graph (at least 1). Repeat runs build a
    /// fresh cluster outside every timed region and must end in the
    /// first run's states.
    pub reps: usize,
}

/// One cell's outcome.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Index into the workload's cells.
    pub cell: usize,
    /// The run report (`None` when set-up failed or the run panicked).
    pub report: Option<RunReport>,
    /// FNV-1a over the encoded final states.
    pub digest: u64,
    /// Host seconds inside `Cluster::run`.
    pub run_s: f64,
    /// Host seconds inside `Cluster::final_states`.
    pub final_s: f64,
    /// `run` + `final_states` host seconds of every run of the cell, the
    /// first included.
    pub samples: Vec<f64>,
    /// Edges of the input graph.
    pub edges: u64,
    /// Per-NIC bandwidth of the cell's fabric, bytes/s.
    pub nic_bytes_per_sec: u64,
    /// A failed set-up, a panic or an oracle mismatch.
    pub error: Option<String>,
}

/// Host-replay totals of a pass, one per probed layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replays {
    /// `EventQueue::push`/`pop`.
    pub queue: Replay,
    /// `Fabric::send`.
    pub send: Replay,
    /// `ChunkSet` append + selective serve.
    pub serve: Replay,
    /// `ExtentFrame::seal` + `verify`.
    pub crc: Replay,
    /// `GasProgram::scatter_chunk` + `gather_chunk`.
    pub kernel: Replay,
    /// `chaos_graph::partition_edges`.
    pub partition: Replay,
}

/// One pass's timings and outcomes.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Generation + shaping + `Cluster::new`, every cell.
    pub setup_s: f64,
    /// From the first `Cluster::run` to the last `final_states`, minus the
    /// set-up, check, replay and freeing work done in between.
    pub wall_s: f64,
    /// Cells run (empty for set-up-only passes).
    pub cells: Vec<CellRun>,
    /// Replay totals (zero unless [`PassOpts::replay`]).
    pub replays: Replays,
}

/// Simulated fingerprint of a pass; identical across passes of one
/// process, traced or not, unless the engine is nondeterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Summed simulated completion time, ns.
    pub sim_runtime_ns: u64,
    /// Summed records streamed.
    pub records: u64,
    /// Summed logical events.
    pub events: u64,
    /// Order-sensitive mix of the cells' state digests.
    pub states_digest: u64,
}

impl Pass {
    /// The pass's simulated fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut f = Fingerprint {
            sim_runtime_ns: 0,
            records: 0,
            events: 0,
            states_digest: 0xcbf2_9ce4_8422_2325,
        };
        for c in &self.cells {
            if let Some(r) = &c.report {
                f.sim_runtime_ns += r.runtime;
                f.records += r.records_streamed;
                f.events += r.events;
            }
            f.states_digest =
                (f.states_digest.rotate_left(5) ^ c.digest).wrapping_mul(0xff51_afd7_ed55_8ccd);
        }
        f
    }

    /// The cells' run reports (cells that failed before reporting are
    /// skipped).
    pub fn reports(&self) -> impl Iterator<Item = &RunReport> {
        self.cells.iter().filter_map(|c| c.report.as_ref())
    }
}

/// Host time bookkeeping of a pass in progress.
struct Clock {
    setup: Duration,
    first_run: Option<Instant>,
    last_end: Option<Instant>,
    /// Non-run work since the first run started...
    excluded: Duration,
    /// ...as of the last run's end.
    excluded_at_last_end: Duration,
}

impl Clock {
    fn setup(&mut self, d: Duration) {
        self.setup += d;
        self.exclude(d);
    }

    fn exclude(&mut self, d: Duration) {
        if self.first_run.is_some() {
            self.excluded += d;
        }
    }

    /// Frees `v` outside the run window: dropping a cluster or a graph is
    /// neither set-up nor engine work.
    fn drop_excluded<T>(&mut self, v: T) {
        let t = Instant::now();
        drop(v);
        self.exclude(t.elapsed());
    }

    fn wall_s(&self) -> f64 {
        match (self.first_run, self.last_end) {
            (Some(a), Some(b)) => (b
                .duration_since(a)
                .saturating_sub(self.excluded_at_last_end))
            .as_secs_f64(),
            _ => 0.0,
        }
    }
}

type ShapeKey = (u64, u32, bool, bool);

/// Runs one pass over `w`, timing the reference work on `cal` between
/// cells when given one.
pub fn pass(
    w: &Workload,
    opts: PassOpts,
    tr: &mut Tracer,
    mut cal: Option<&mut Calibrator>,
) -> Pass {
    let pass_span = tr.enter(if opts.run { "pass" } else { "pass.setup_only" }, None);
    let mut clock = Clock {
        setup: Duration::ZERO,
        first_run: None,
        last_end: None,
        excluded: Duration::ZERO,
        excluded_at_last_end: Duration::ZERO,
    };
    let mut out = Pass::default();
    // The current base graph and its undirected expansion (`None` for
    // directed cells), keyed by (seed, scale, weighted[, undirected]).
    let mut base: Option<((u64, u32, bool), InputGraph)> = None;
    let mut shaped: Option<(ShapeKey, Option<InputGraph>)> = None;
    for (ci, cell) in w.cells.iter().enumerate() {
        let base_key = (cell.seed, cell.scale, cell.weighted());
        if base.as_ref().map(|b| b.0) != Some(base_key) {
            // Free the previous graphs before generating the next.
            clock.drop_excluded(shaped.take());
            clock.drop_excluded(base.take());
            let s = tr.enter("graph.generate", Some(ci));
            let t = Instant::now();
            let g = w.rmat(cell).generate();
            clock.setup(t.elapsed());
            tr.exit(s);
            base = Some((base_key, g));
        }
        let base_g = &base.as_ref().expect("generated above").1;
        let shape_key = (cell.seed, cell.scale, cell.weighted(), cell.undirected());
        if shaped.as_ref().map(|s| s.0) != Some(shape_key) {
            clock.drop_excluded(shaped.take());
            let g = cell.undirected().then(|| {
                let s = tr.enter("graph.shape", Some(ci));
                let t = Instant::now();
                let g = base_g.to_undirected();
                clock.setup(t.elapsed());
                tr.exit(s);
                g
            });
            shaped = Some((shape_key, g));
        }
        let g = shaped.as_ref().and_then(|s| s.1.as_ref()).unwrap_or(base_g);
        let ctx = CellCtx { w, ci, g, opts };
        let run = with_algo!(cell.algo, &w.params, |p| run_cell(
            p,
            &ctx,
            tr,
            &mut clock,
            &mut out.replays,
            cal.as_deref_mut()
        ));
        if let Some(run) = run {
            out.cells.push(run);
        }
    }
    out.setup_s = clock.setup.as_secs_f64();
    out.wall_s = clock.wall_s();
    tr.exit(pass_span);
    out
}

struct CellCtx<'a> {
    w: &'a Workload,
    ci: usize,
    g: &'a InputGraph,
    opts: PassOpts,
}

/// Sets up and (unless set-up only) runs, checks and replays one cell;
/// `cal` counts every timed run of it.
fn run_cell<P>(
    program: P,
    ctx: &CellCtx<'_>,
    tr: &mut Tracer,
    clock: &mut Clock,
    replays: &mut Replays,
    mut cal: Option<&mut Calibrator>,
) -> Option<CellRun>
where
    P: Checked,
{
    let (w, ci, g) = (ctx.w, ctx.ci, ctx.g);
    // Building the config generates a cell's fault plan: set-up work.
    let t = Instant::now();
    let cfg = w.config(&w.cells[ci]);
    clock.setup(t.elapsed());
    let mut run = CellRun {
        cell: ci,
        report: None,
        digest: 0,
        run_s: 0.0,
        final_s: 0.0,
        samples: Vec::new(),
        edges: g.num_edges(),
        nic_bytes_per_sec: cfg.fabric.nic_bytes_per_sec,
        error: None,
    };
    let rebuild = (ctx.opts.run && ctx.opts.reps > 1).then(|| cfg.clone());
    let s = tr.enter("cluster.new", Some(ci));
    let t = Instant::now();
    let built = catch_unwind(AssertUnwindSafe(|| Cluster::new(cfg, program.clone(), g)))
        .unwrap_or_else(|panic| Err(format!("panicked: {}", panic_message(&*panic))));
    clock.setup(t.elapsed());
    tr.exit(s);
    let mut cluster = match built {
        Ok(c) => c,
        Err(e) => {
            run.error = Some(format!("Cluster::new: {e}"));
            return ctx.opts.run.then_some(run);
        }
    };
    if !ctx.opts.run {
        return None;
    }
    let depth = tr.depth();
    clock.first_run.get_or_insert(Instant::now());
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let s = tr.enter("cluster.run", Some(ci));
        let t0 = Instant::now();
        let rep = cluster.run();
        let t1 = Instant::now();
        tr.exit(s);
        let s = tr.enter("cluster.final_states", Some(ci));
        let states = cluster.final_states();
        let t2 = Instant::now();
        tr.exit(s);
        (rep, states, t1 - t0, t2 - t1)
    }));
    clock.last_end = Some(Instant::now());
    clock.excluded_at_last_end = clock.excluded;
    let (rep, states) = match outcome {
        Ok((rep, states, run_d, final_d)) => {
            run.run_s = run_d.as_secs_f64();
            run.final_s = final_d.as_secs_f64();
            run.samples.push((run_d + final_d).as_secs_f64());
            (rep, states)
        }
        Err(panic) => {
            tr.close_to(depth);
            run.error = Some(format!("panicked: {}", panic_message(&*panic)));
            clock.drop_excluded(cluster);
            return Some(run);
        }
    };
    let after = Instant::now();
    if let Some(cal) = cal.as_deref_mut() {
        cal.tick(run.run_s + run.final_s);
    }
    run.digest = digest_states(&states);
    if ctx.opts.check {
        let s = tr.enter("check.oracle", Some(ci));
        let verdict = catch_unwind(AssertUnwindSafe(|| {
            program.check(&w.params, g, &rep, &states)
        }))
        .unwrap_or_else(|panic| Err(format!("oracle panicked: {}", panic_message(&*panic))));
        if let Err(e) = verdict {
            run.error = Some(format!("oracle mismatch: {e}"));
        }
        tr.exit(s);
    }
    drop(states);
    if ctx.opts.replay {
        replay_cell(&program, ctx, &cluster, &rep, tr, replays);
    }
    drop(cluster);
    if let Some(cfg) = rebuild {
        for _ in 1..ctx.opts.reps {
            if let Err(e) = repeat_cell(&program, &cfg, g, run.digest, &mut run.samples) {
                run.error.get_or_insert(e);
                break;
            }
            if let (Some(cal), Some(&s)) = (cal.as_deref_mut(), run.samples.last()) {
                cal.tick(s);
            }
        }
    }
    clock.exclude(after.elapsed());
    run.report = Some(rep);
    Some(run)
}

/// One more run of a cell on a fresh cluster: pushes its `run` +
/// `final_states` host seconds, or says how it went wrong.
fn repeat_cell<P: Checked>(
    program: &P,
    cfg: &ChaosConfig,
    g: &InputGraph,
    digest: u64,
    samples: &mut Vec<f64>,
) -> Result<(), String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut cluster = Cluster::new(cfg.clone(), program.clone(), g)?;
        let t = Instant::now();
        cluster.run();
        let states = cluster.final_states();
        let d = t.elapsed();
        Ok((d, digest_states(&states)))
    }))
    .unwrap_or_else(|panic| Err(format!("panicked: {}", panic_message(&*panic))));
    match outcome {
        Ok((d, got)) if got == digest => {
            samples.push(d.as_secs_f64());
            Ok(())
        }
        Ok(_) => Err("nondeterministic: a repeat run ended in other states".into()),
        Err(e) => Err(format!("repeat run: {e}")),
    }
}

/// The host-replay probes for one cell, each sized from its report.
fn replay_cell<P: Checked>(
    program: &P,
    ctx: &CellCtx<'_>,
    cluster: &Cluster<P>,
    rep: &RunReport,
    tr: &mut Tracer,
    replays: &mut Replays,
) {
    let (ci, g) = (ctx.ci, ctx.g);
    let m = ctx.w.cells[ci].machines;
    let seed = ctx.w.cells[ci].seed ^ ci as u64;
    let params = cluster.params();

    let s = tr.enter("replay.sim.queue", Some(ci));
    replays.queue.add(replay::queue(rep.queue_ops, m, seed));
    tr.exit(s);

    let fab = &rep.fabric;
    let msgs = fab.remote_messages + fab.local_messages;
    let s = tr.enter("replay.net.send", Some(ci));
    replays.send.add(replay::fabric(
        msgs,
        fab.remote_messages as f64 / msgs.max(1) as f64,
        (fab.remote_bytes + fab.local_bytes) / msgs.max(1),
        m,
        seed,
    ));
    tr.exit(s);

    let s = tr.enter("replay.storage.serve", Some(ci));
    replays.serve.add(replay::serve(
        &g.edges,
        g.num_vertices,
        params.edges_per_chunk,
        params.block_records,
        live_share(rep),
    ));
    tr.exit(s);

    let s = tr.enter("replay.storage.crc", Some(ci));
    replays.crc.add(replay::crc(rep.total_device_bytes(), seed));
    tr.exit(s);

    let s = tr.enter("replay.graph.partition", Some(ci));
    replays.partition.add(replay::partition(g, &params.spec));
    tr.exit(s);

    let s = tr.enter("replay.compute.kernel", Some(ci));
    replays.kernel.add(replay::kernels(
        program,
        g,
        &params.spec,
        params.edges_per_chunk,
    ));
    tr.exit(s);
}

/// The message of a caught panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Share of stored edge records the cell's scatter streams actually read
/// (1 for programs that track no activity).
fn live_share(rep: &RunReport) -> f64 {
    let streamed: u64 = rep
        .selectivity
        .iter()
        .map(|s| s.edge_records_streamed)
        .sum();
    let seen = streamed + rep.records_skipped() + rep.records_skipped_intra();
    if seen == 0 {
        1.0
    } else {
        streamed as f64 / seen as f64
    }
}
