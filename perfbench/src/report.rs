//! Metric definitions, their computation from passes, and the result line.

use std::fmt::Write as _;

use crate::bench::Pass;
use crate::trace::Tracer;

/// A reported metric's name and unit (`BENCHMARK.json` adds direction and
/// bound).
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]+`, unique.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, reported by untraced runs.
pub const END_TO_END: [Metric; 5] = [
    m("cell_wall_sum_s", "s"),
    m("setup_s", "s"),
    m("records_per_s", "records/s"),
    m("peak_rss_mb", "MiB"),
    m("sim_runtime_s", "sim_s"),
];

/// Per-layer metrics, reported by traced runs.
pub const PER_LAYER: [Metric; 58] = [
    m("graph.generate_s", "s"),
    m("graph.shape_s", "s"),
    m("graph.edges", "count"),
    m("graph.partition_pass_s", "s"),
    m("cluster.new_s", "s"),
    m("cluster.run_s", "s"),
    m("cluster.final_states_s", "s"),
    m("cluster.cell_wall_max_s", "s"),
    m("cluster.ns_per_event", "ns/event"),
    m("cluster.ns_per_record", "ns/record"),
    m("cluster.unattributed_share", "ratio"),
    m("sim.events", "count"),
    m("sim.queue_ops", "count"),
    m("sim.queue_ns_per_op", "ns/op"),
    m("sim.queue_share", "ratio"),
    m("compute.records", "count"),
    m("compute.iterations", "count"),
    m("compute.steals", "count"),
    m("compute.kernel_ns_per_record", "ns/record"),
    m("compute.kernel_share", "ratio"),
    m("compute.preprocess_sim_s", "sim_s"),
    m("compute.gp_sim_s", "sim_s"),
    m("compute.copy_sim_s", "sim_s"),
    m("compute.merge_sim_s", "sim_s"),
    m("compute.merge_wait_sim_s", "sim_s"),
    m("compute.barrier_sim_s", "sim_s"),
    m("storage.device_read_bytes", "bytes"),
    m("storage.device_write_bytes", "bytes"),
    m("storage.cache_hits", "count"),
    m("storage.device_util", "ratio"),
    m("storage.serve_ns_per_record", "ns/record"),
    m("storage.serve_share", "ratio"),
    m("storage.chunks_skipped", "count"),
    m("storage.records_skipped", "count"),
    m("storage.blocks_skipped", "count"),
    m("storage.records_skipped_intra", "count"),
    m("storage.skip_ratio", "ratio"),
    m("storage.checksum_bytes", "bytes"),
    m("storage.crc_ns_per_byte", "ns/byte"),
    m("net.remote_messages", "count"),
    m("net.remote_bytes", "bytes"),
    m("net.local_messages", "count"),
    m("net.send_ns", "ns"),
    m("net.send_share", "ratio"),
    m("net.rx_util", "ratio"),
    m("fault.aborts", "count"),
    m("fault.iterations_redone", "count"),
    m("fault.redo_ratio", "ratio"),
    m("fault.device_retries", "count"),
    m("fault.faulted_sim_s", "sim_s"),
    m("fault.checkpoint_bytes", "bytes"),
    m("fault.checkpoint_sim_s", "sim_s"),
    m("fault.corruption_detected", "count"),
    m("fault.corruption_repaired", "count"),
    m("fault.frames_scrubbed", "count"),
    m("check.oracle_s", "s"),
    m("trace.overhead_s", "s"),
    m("host.reference_s", "s"),
];

/// The median of `xs` (0 for none).
pub(crate) fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn sim_s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Median `wall_s` of untraced passes.
pub fn median_pass_wall_s(passes: &[Pass]) -> f64 {
    median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>())
}

/// End-to-end metrics from untraced passes: host times are medians over
/// samples (per cell, then summed; set-ups per pass), scaled to the
/// reference speed by `factor` (see [`crate::calib`]); simulated sums are
/// identical across passes.
pub fn end_to_end(
    passes: &[Pass],
    setups: &[f64],
    peak_rss_mb: f64,
    factor: f64,
) -> Vec<(Metric, f64)> {
    let first = &passes[0];
    let cell_sum: f64 = (0..first.cells.len())
        .map(|i| {
            let samples: Vec<f64> = passes
                .iter()
                .flat_map(|p| p.cells.get(i).map_or(&[][..], |c| &c.samples[..]))
                .copied()
                .collect();
            median(&samples)
        })
        .sum::<f64>()
        * factor;
    let records: u64 = first.reports().map(|r| r.records_streamed).sum();
    let sim: u64 = first.reports().map(|r| r.runtime).sum();
    let values: [f64; END_TO_END.len()] = [
        cell_sum,
        median(setups) * factor,
        records as f64 / cell_sum.max(1e-9),
        peak_rss_mb,
        sim_s(sim),
    ];
    END_TO_END.iter().copied().zip(values).collect()
}

/// Per-layer metrics of a traced pass. `untraced_wall_s` is the median
/// `wall_s` of the same process's untraced passes, `reference_s` their
/// median reference-work sample. Host times here are not scaled.
pub fn per_layer(
    pass: &Pass,
    tr: &Tracer,
    untraced_wall_s: f64,
    reference_s: f64,
) -> Vec<(Metric, f64)> {
    let reps: Vec<_> = pass.reports().collect();
    let sum = |f: &dyn Fn(&chaos_core::RunReport) -> u64| reps.iter().map(|r| f(r)).sum::<u64>();
    let run_s = tr.total_s("cluster.run");
    let run_ns = (run_s * 1e9).max(1.0);
    let events = sum(&|r| r.events);
    let queue_ops = sum(&|r| r.queue_ops);
    let records = sum(&|r| r.records_streamed);
    let iterations = sum(&|r| u64::from(r.iterations));
    let skipped = sum(&|r| r.records_skipped());
    let skipped_intra = sum(&|r| r.records_skipped_intra());
    let msgs = sum(&|r| r.fabric.remote_messages + r.fabric.local_messages);
    // Figure 17 categories: per cell, the mean over machines.
    let breakdown = |f: &dyn Fn(&chaos_core::Breakdown) -> u64| {
        reps.iter()
            .map(|r| {
                let total: u64 = r.breakdowns.iter().map(f).sum();
                total as f64 / r.breakdowns.len().max(1) as f64 / 1e9
            })
            .sum::<f64>()
    };
    let busy: u64 = sum(&|r| r.device_busy.iter().sum());
    let machine_time: f64 = reps
        .iter()
        .map(|r| r.runtime as f64 * r.devices.len() as f64)
        .sum();
    // Receive-side NIC capacity over the run: bytes/s × machines × seconds.
    let rx_capacity: f64 = pass
        .cells
        .iter()
        .filter_map(|c| c.report.as_ref().map(|r| (c, r)))
        .map(|(c, r)| c.nic_bytes_per_sec as f64 * r.devices.len() as f64 * r.seconds())
        .sum();
    let rp = &pass.replays;
    let queue_share = rp.queue.ns_per_unit() * queue_ops as f64 / run_ns;
    let kernel_share = rp.kernel.ns_per_unit() * records as f64 / run_ns;
    let serve_share = rp.serve.ns_per_unit() * records as f64 / run_ns;
    let send_share = rp.send.ns_per_unit() * msgs as f64 / run_ns;
    let values: [f64; PER_LAYER.len()] = [
        tr.total_s("graph.generate"),
        tr.total_s("graph.shape"),
        pass.cells.iter().map(|c| c.edges).sum::<u64>() as f64,
        rp.partition.time.as_secs_f64(),
        tr.total_s("cluster.new"),
        run_s,
        tr.total_s("cluster.final_states"),
        // The slowest cell: what running cells concurrently could reach.
        pass.cells
            .iter()
            .map(|c| c.run_s + c.final_s)
            .fold(0.0, f64::max),
        run_ns / events.max(1) as f64,
        run_ns / records.max(1) as f64,
        1.0 - (queue_share + kernel_share + serve_share + send_share),
        events as f64,
        queue_ops as f64,
        rp.queue.ns_per_unit(),
        queue_share,
        records as f64,
        iterations as f64,
        sum(&|r| r.steals) as f64,
        rp.kernel.ns_per_unit(),
        kernel_share,
        sim_s(sum(&|r| r.preprocess_time)),
        breakdown(&|b| b.gp_master + b.gp_stolen),
        breakdown(&|b| b.copy),
        breakdown(&|b| b.merge),
        breakdown(&|b| b.merge_wait),
        breakdown(&|b| b.barrier),
        sum(&|r| r.devices.iter().map(|d| d.bytes_read).sum()) as f64,
        sum(&|r| r.devices.iter().map(|d| d.bytes_written).sum()) as f64,
        sum(&|r| r.devices.iter().map(|d| d.cache_hits).sum()) as f64,
        busy as f64 / machine_time.max(1.0),
        rp.serve.ns_per_unit(),
        serve_share,
        sum(&|r| r.chunks_skipped()) as f64,
        skipped as f64,
        sum(&|r| r.blocks_skipped()) as f64,
        skipped_intra as f64,
        (skipped + skipped_intra) as f64 / (records + skipped + skipped_intra).max(1) as f64,
        sum(&|r| r.faults.checksum_bytes) as f64,
        rp.crc.ns_per_unit(),
        sum(&|r| r.fabric.remote_messages) as f64,
        sum(&|r| r.fabric.remote_bytes) as f64,
        sum(&|r| r.fabric.local_messages) as f64,
        rp.send.ns_per_unit(),
        send_share,
        sum(&|r| r.fabric.remote_bytes) as f64 / rx_capacity.max(1.0),
        sum(&|r| r.faults.aborts) as f64,
        sum(&|r| r.faults.iterations_redone) as f64,
        sum(&|r| r.faults.iterations_redone) as f64 / iterations.max(1) as f64,
        sum(&|r| r.faults.device_retries) as f64,
        sim_s(sum(&|r| r.faults.faulted_time)),
        sum(&|r| r.faults.checkpoint_bytes) as f64,
        sim_s(sum(&|r| r.faults.checkpoint_time)),
        sum(&|r| r.faults.corruption_detected) as f64,
        sum(&|r| r.faults.corruption_repaired) as f64,
        sum(&|r| r.faults.frames_scrubbed) as f64,
        tr.total_s("check.oracle"),
        pass.wall_s - untraced_wall_s,
        reference_s,
    ];
    PER_LAYER.iter().copied().zip(values).collect()
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit. Non-finite values (never expected) print as 0 so the
/// line stays valid JSON.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(Metric, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (m, v)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    out.push_str("}}");
    out
}
