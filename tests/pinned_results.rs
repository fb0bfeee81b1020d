//! Pinned simulated results: each case asserts the final-state digest,
//! the simulated completion time, the event count and the records
//! streamed of one run against constants captured from the engine.
//!
//! The constants are the contract that host-side refactors of the event
//! loop (queue implementation, executor structure, transport shortcuts)
//! must keep: any change to dispatch order, network charging or protocol
//! timing moves at least one of them. Host accounting such as
//! `RunReport::queue_ops` is deliberately not pinned.
//!
//! On a mismatch the failure message prints the observed values in the
//! `pin(..)` form, ready to paste after an intended model change.

mod common;

use chaos::bench::harness::digest_states;
use chaos::prelude::*;
use chaos::storage::ScratchDir;
use common::{directed_graph, test_config, undirected_graph, weighted_graph};

/// The pinned simulated quantities of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    digest: u64,
    runtime: u64,
    events: u64,
    records: u64,
}

/// Shorthand for a [`Pin`] literal: digest, runtime (ns), events,
/// records streamed.
const fn pin(digest: u64, runtime: u64, events: u64, records: u64) -> Pin {
    Pin {
        digest,
        runtime,
        events,
        records,
    }
}

/// Runs `program` on `g` under `cfg` and asserts the run matches `want`.
fn assert_pinned<P: GasProgram>(
    label: &str,
    cfg: ChaosConfig,
    program: P,
    g: &InputGraph,
    want: Pin,
) -> RunReport {
    let (rep, states) = run_chaos(cfg, program, g);
    let got = Pin {
        digest: digest_states(&states),
        runtime: rep.runtime,
        events: rep.events,
        records: rep.records_streamed,
    };
    assert_eq!(
        got, want,
        "{label}: simulated results moved; observed pin({:#018x}, {}, {}, {})",
        got.digest, got.runtime, got.events, got.records
    );
    rep
}

#[test]
fn all_ten_programs_are_pinned() {
    // Every Table 1 algorithm on the shared small graphs. `test_config`
    // forces several partitions, so requests, steals and barriers flow.
    let d = directed_graph(7);
    let u = undirected_graph(7);
    let w = weighted_graph(400, 600, 7);
    let cfg = || test_config(3);
    assert_pinned(
        "PR",
        cfg(),
        Pagerank::new(3),
        &d,
        pin(0x88353af39e2e87cf, 3_617_714, 1450, 12288),
    );
    assert_pinned(
        "SpMV",
        cfg(),
        Spmv::new(2),
        &d,
        pin(0xcffc6460bf306098, 1_550_635, 586, 4096),
    );
    assert_pinned(
        "SCC",
        cfg(),
        Scc::new(),
        &d,
        pin(0x12382520cb7ae3a1, 20_371_448, 9059, 49447),
    );
    assert_pinned(
        "BP",
        cfg(),
        BeliefPropagation::new(3, 4),
        &d,
        pin(0xa08d54880af96afa, 4_664_572, 1867, 16384),
    );
    assert_pinned(
        "WCC",
        cfg(),
        Wcc::new(),
        &u,
        pin(0x8072ce5595a165b8, 3_549_980, 1506, 17919),
    );
    assert_pinned(
        "BFS",
        cfg(),
        Bfs::new(0),
        &u,
        pin(0x789edb74d6215c4f, 3_206_974, 1424, 11322),
    );
    assert_pinned(
        "MIS",
        cfg(),
        Mis::new(5),
        &u,
        pin(0x8836dfbd78e8c01a, 6_296_836, 2782, 17408),
    );
    assert_pinned(
        "Cond",
        cfg(),
        Conductance::new(9),
        &u,
        pin(0xb04e1ab1a1c5b4c1, 1_691_208, 597, 8052),
    );
    assert_pinned(
        "SSSP",
        cfg(),
        Sssp::new(0),
        &w,
        pin(0xd89becec28f9536a, 10_069_989, 4446, 19587),
    );
    assert_pinned(
        "MCST",
        cfg(),
        Mcst::new(),
        &w,
        pin(0x117cfa8b7c37a8f5, 16_460_214, 6596, 42298),
    );
}

#[test]
fn local_placement_stealing_is_pinned() {
    // Locality-seeking placement plus always-steal: every chunk request is
    // served by the local storage engine, so same-machine sends dominate.
    let g = weighted_graph(600, 900, 42);
    let mut cfg = test_config(3);
    cfg.placement = Placement::LocalOnly;
    cfg.steal_alpha = f64::INFINITY;
    assert_pinned(
        "local steal",
        cfg,
        Sssp::new(0),
        &g,
        pin(0xe83389ff66595001, 6_339_957, 3333, 30923),
    );
}

#[test]
fn stealing_cells_are_pinned() {
    // Several partitions per machine and always-steal: masters of sparse
    // partitions steal from the busy ones, exercising the master/stealer
    // accumulator exchange.
    let g = directed_graph(11);
    let mut cfg = test_config(4);
    cfg.chunk_bytes = 64 * 1024;
    cfg.mem_budget = 2 * 1024;
    cfg.steal_alpha = f64::INFINITY;
    let rep = assert_pinned(
        "steal",
        cfg,
        Pagerank::new(3),
        &g,
        pin(0x200eb2d5681628cc, 10_214_630, 5442, 196608),
    );
    assert!(rep.steals > 0, "always-steal must steal");
}

#[test]
fn mcst_phase_switching_is_pinned() {
    // MCST alternates scatter directions across phases: the heaviest user
    // of the reverse edge copy and of barrier-released phase switches.
    let g = weighted_graph(500, 800, 11);
    assert_pinned(
        "MCST phases",
        test_config(3),
        Mcst::new(),
        &g,
        pin(0xa9af184d78c685c9, 16_627_729, 6513, 50305),
    );
}

#[test]
fn spill_under_memory_pressure_is_pinned() {
    // A tiny memory budget over real spill files: many partitions, every
    // structure round-tripping through storage, device timers interleaved
    // with request traffic.
    let g = directed_graph(9);
    let scratch = ScratchDir::new("chaos-test-pinned-spill").expect("scratch");
    let mut cfg = test_config(4);
    cfg.mem_budget = 1024;
    cfg.chunk_bytes = 4 * 1024;
    cfg.spill_dir = Some(scratch.path().to_path_buf());
    let rep = assert_pinned(
        "spill",
        cfg,
        Pagerank::new(3),
        &g,
        pin(0xc892b1d59bbbe621, 5_391_089, 2696, 49152),
    );
    assert!(rep.partitions > 1, "budget must force multiple partitions");
}

#[test]
fn crash_recovery_is_pinned() {
    // Generation bumps, stale-message drops and the reboot self-event:
    // the paths most sensitive to event ordering.
    let g = undirected_graph(8);
    let mut cfg = test_config(3);
    cfg.checkpoint = true;
    cfg.faults = FaultPlan::crash(1, 1, chaos::sim::SECS);
    let rep = assert_pinned(
        "crash",
        cfg,
        Wcc::new(),
        &g,
        pin(0x3adb6f86e5c2b42b, 1_005_311_720, 1820, 44797),
    );
    assert_eq!(rep.faults.aborts, 1);
}

#[test]
fn time_triggered_crash_recovery_is_pinned() {
    // A crash at an absolute simulated time lands wherever the cluster
    // happens to be rather than at a barrier arrival, on a different
    // machine and with a shorter reboot than the barrier-triggered case.
    let g = undirected_graph(8);
    let mut cfg = test_config(3);
    cfg.checkpoint = true;
    cfg.faults = FaultPlan::none().with_crash(CrashFault {
        machine: 2,
        trigger: CrashTrigger::Time(2 * chaos::sim::SECS / 1000),
        downtime: chaos::sim::SECS / 10,
        torn: false,
    });
    let rep = assert_pinned(
        "time crash",
        cfg,
        Wcc::new(),
        &g,
        pin(0x3adb6f86e5c2b42b, 105_841_009, 2073, 53405),
    );
    assert_eq!(rep.faults.aborts, 1);
}

#[test]
fn centralized_directory_is_pinned() {
    // The Figure 15 strawman routes every chunk operation through the
    // machine-0 directory actor: maximal cross-machine traffic.
    let g = directed_graph(8);
    let mut cfg = test_config(4);
    cfg.placement = Placement::Centralized;
    assert_pinned(
        "centralized",
        cfg,
        Pagerank::new(3),
        &g,
        pin(0x28d152dc37f426e7, 5_077_943, 1946, 24576),
    );
}

#[test]
fn seeded_fault_plan_with_scrub_is_pinned() {
    // A generated multi-fault schedule (crashes, device and fabric
    // windows, silent corruption) with checkpointing and scrub passes.
    let g = directed_graph(8);
    let mut cfg = test_config(4);
    cfg.checkpoint = true;
    cfg.scrub = true;
    cfg.faults = FaultPlan::generate(7, &FaultPlanConfig::soak(4));
    let rep = assert_pinned(
        "fault plan",
        cfg,
        Pagerank::new(4),
        &g,
        pin(0x093d3309fd5942ff, 330_125_154, 3575, 36864),
    );
    assert!(rep.faults.frames_scrubbed > 0, "scrub must run");
}
