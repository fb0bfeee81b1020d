//! Small deterministic graph constructors used throughout the test suites.

use chaos_sim::Rng;

use crate::types::{vertex_id, Edge, InputGraph, VertexId};

/// Directed path `0 -> 1 -> ... -> n-1`.
pub fn path(n: u64) -> InputGraph {
    let edges = (0..vertex_id(n).saturating_sub(1))
        .map(|i| Edge::new(i, i + 1))
        .collect();
    InputGraph::new(n, edges, false)
}

/// Directed cycle over `n` vertices.
pub fn cycle(n: u64) -> InputGraph {
    let k = vertex_id(n);
    let edges = (0..k).map(|i| Edge::new(i, (i + 1) % k)).collect();
    InputGraph::new(n, edges, false)
}

/// Star: vertex 0 points at all others.
pub fn star(n: u64) -> InputGraph {
    let edges = (1..vertex_id(n)).map(|i| Edge::new(0, i)).collect();
    InputGraph::new(n, edges, false)
}

/// Complete directed graph (no self loops).
pub fn complete(n: u64) -> InputGraph {
    let mut edges = Vec::new();
    for s in 0..vertex_id(n) {
        for d in 0..vertex_id(n) {
            if s != d {
                edges.push(Edge::new(s, d));
            }
        }
    }
    InputGraph::new(n, edges, false)
}

/// Two disjoint cliques of size `k` (ids `0..k` and `k..2k`), useful for
/// connectivity and conductance tests.
pub fn two_cliques(k: u64) -> InputGraph {
    let mut edges = Vec::new();
    let k32 = vertex_id(k);
    for base in [0, k32] {
        for s in 0..k32 {
            for d in 0..k32 {
                if s != d {
                    edges.push(Edge::new(base + s, base + d));
                }
            }
        }
    }
    InputGraph::new(2 * k, edges, false)
}

/// Erdős–Rényi G(n, m) multigraph with optional distinct-ish weights.
pub fn gnm(n: u64, m: u64, weighted: bool, seed: u64) -> InputGraph {
    let mut rng = Rng::new(seed);
    let mut edges = Vec::with_capacity(m as usize);
    for i in 0..m {
        let src = rng.below(n) as VertexId;
        let dst = rng.below(n) as VertexId;
        let weight = if weighted {
            // Guaranteed-distinct weights: a strictly increasing base plus
            // jitter, then shuffled implicitly by random endpoints.
            1.0 + i as f32 * 1e-3 + rng.f64() as f32 * 1e-4
        } else {
            1.0
        };
        edges.push(Edge { src, dst, weight });
    }
    InputGraph::new(n, edges, weighted)
}

/// Connected undirected G(n, m): a random spanning tree plus extra edges,
/// with distinct weights. Both directions of each undirected edge carry the
/// same weight.
pub fn connected_weighted(n: u64, extra: u64, seed: u64) -> InputGraph {
    let mut rng = Rng::new(seed);
    let mut edges = Vec::new();
    let mut w = 1.0f32;
    let mut next_weight = |rng: &mut Rng| {
        w += 0.001 + rng.f64() as f32 * 0.01;
        w
    };
    for v in 1..n {
        let parent = rng.below(v) as VertexId;
        let v = vertex_id(v);
        let wt = next_weight(&mut rng);
        edges.push(Edge::weighted(parent, v, wt));
        edges.push(Edge::weighted(v, parent, wt));
    }
    for _ in 0..extra {
        let a = rng.below(n) as VertexId;
        let b = rng.below(n) as VertexId;
        if a == b {
            continue;
        }
        let wt = next_weight(&mut rng);
        edges.push(Edge::weighted(a, b, wt));
        edges.push(Edge::weighted(b, a, wt));
    }
    InputGraph::new(n, edges, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes() {
        assert_eq!(path(5).num_edges(), 4);
        assert_eq!(cycle(5).num_edges(), 5);
        assert_eq!(star(5).num_edges(), 4);
        assert_eq!(complete(4).num_edges(), 12);
        assert_eq!(two_cliques(3).num_edges(), 12);
    }

    #[test]
    fn gnm_respects_counts() {
        let g = gnm(10, 50, true, 1);
        assert_eq!(g.num_edges(), 50);
        assert!(g.weighted);
    }

    #[test]
    fn connected_weighted_is_connected_and_symmetric() {
        let g = connected_weighted(20, 10, 2);
        // Undirected reachability from 0 covers everything.
        let adj = g.adjacency();
        let mut seen = [false; 20];
        let mut stack: Vec<VertexId> = vec![0];
        seen[0] = true;
        while let Some(v) = stack.pop() {
            for (n, _) in adj.neighbors(v) {
                if !seen[n as usize] {
                    seen[n as usize] = true;
                    stack.push(n);
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
