//! Property-based tests (proptest) over cross-crate invariants.

mod common;

use chaos::core::batching;
use chaos::gas::record::{decode_all, encode_all};
use chaos::graph::{partition_edges, Edge, InputGraph, PartitionSpec};
use chaos::prelude::*;
use chaos::sim::{Resource, Rng};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn partition_ranges_cover_and_are_disjoint(n in 1u64..10_000, p in 1usize..64) {
        let spec = PartitionSpec::with_partitions(n, p);
        let mut covered = 0u64;
        for i in 0..p {
            let r = spec.range(i);
            prop_assert_eq!(u64::from(r.start), covered.min(n));
            covered = u64::from(r.end);
            for v in r.clone() {
                prop_assert_eq!(spec.partition_of(v), i);
            }
        }
        prop_assert_eq!(covered, n);
    }

    #[test]
    fn for_memory_is_smallest_multiple(
        n in 1u64..100_000,
        vbytes in 1u64..64,
        budget in 64u64..1_000_000,
        m in 1usize..33,
    ) {
        let spec = PartitionSpec::for_memory(n, vbytes, budget, m);
        prop_assert_eq!(spec.num_partitions % m, 0);
        let fits = |parts: usize| n.div_ceil(parts as u64) * vbytes <= budget;
        prop_assert!(fits(spec.num_partitions));
        if spec.num_partitions > m {
            prop_assert!(!fits(spec.num_partitions - m));
        }
    }

    #[test]
    fn edge_binning_loses_nothing(
        edges in proptest::collection::vec((0u32..500, 0u32..500), 0..2000),
        p in 1usize..16,
    ) {
        let edges: Vec<Edge> = edges.into_iter().map(|(s, d)| Edge::new(s, d)).collect();
        let g = InputGraph::new(500, edges, false);
        let spec = PartitionSpec::with_partitions(500, p);
        let parts = partition_edges(&g, &spec);
        prop_assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), g.edges.len());
        for (i, es) in parts.iter().enumerate() {
            for e in es {
                prop_assert_eq!(spec.partition_of(e.src), i);
            }
        }
    }

    #[test]
    fn record_codec_roundtrips(values in proptest::collection::vec(any::<u64>(), 0..256)) {
        let buf = encode_all(&values);
        prop_assert_eq!(decode_all::<u64>(&buf), values);
    }

    #[test]
    fn edge_record_roundtrips(src in any::<u32>(), dst in any::<u32>(), w in any::<f32>()) {
        prop_assume!(!w.is_nan());
        let e = Edge { src, dst, weight: w };
        let buf = encode_all(&[e]);
        let back = decode_all::<Edge>(&buf);
        prop_assert_eq!(back[0], e);
    }

    #[test]
    fn resource_never_time_travels(
        reqs in proptest::collection::vec((0u64..1_000_000, 1u64..1_000_000), 1..50),
    ) {
        let mut r = Resource::new(1_000_000, 10);
        let mut last_done = 0u64;
        let mut sorted = reqs.clone();
        sorted.sort_by_key(|x| x.0);
        for (t, bytes) in sorted {
            let done = r.serve(t, bytes);
            prop_assert!(done > t, "completion after issue");
            prop_assert!(done >= last_done, "FIFO completion order");
            last_done = done;
        }
    }

    #[test]
    fn utilization_formula_bounds(m in 1usize..200, k in 1usize..16) {
        let u = batching::utilization(m, k);
        prop_assert!((0.0..=1.0).contains(&u));
        // Monotone floor (Equation 5).
        if k < m {
            prop_assert!(u >= batching::utilization_floor(k) - 1e-12);
        }
    }

    #[test]
    fn rng_below_is_uniform_enough(seed in any::<u64>(), bound in 1u64..64) {
        let mut rng = Rng::new(seed);
        let mut counts = vec![0u64; bound as usize];
        let draws = 64 * bound;
        for _ in 0..draws {
            counts[rng.below(bound) as usize] += 1;
        }
        // Every bucket hit at least once given 64 expected per bucket...
        // allow generous slack; this is a smoke property, not a chi-square.
        prop_assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn steal_criterion_monotone_in_remaining_work(
        v in 1u64..1_000_000,
        d_lo in 1u64..1_000_000_000,
        extra in 1u64..1_000_000_000,
        h in 1u64..16,
    ) {
        // Equation 2: accept iff V + D/(H+1) < D/H. If it holds for D it
        // must hold for any larger D' (stealing only gets more attractive
        // as more work remains).
        let accept = |d: u64| {
            let (v, d, h) = (v as f64, d as f64, h as f64);
            v + d / (h + 1.0) < d / h
        };
        if accept(d_lo) {
            prop_assert!(accept(d_lo + extra));
        }
    }
}

#[test]
fn distributed_equals_sequential_on_random_graphs() {
    // A coarse cross-check of the whole stack on arbitrary small graphs.
    for seed in 0..6 {
        let g = chaos::graph::builder::gnm(200, 1200, false, seed).to_undirected();
        let seq = run_sequential(Wcc::new(), &g, 100_000);
        let mut cfg = ChaosConfig::new(3);
        cfg.mem_budget = 512;
        cfg.chunk_bytes = 4096;
        let (_, dist) = run_chaos(cfg, Wcc::new(), &g);
        assert_eq!(seq.states, dist, "seed {seed}");
    }
}
