//! Maximal-independent-set oracle: Luby's algorithm and a validity checker.

use chaos_sim::rng::mix2;

use crate::types::{InputGraph, VertexId};

/// Deterministic Luby priority for a vertex in a given round. Both the
/// oracle and the distributed engine use this function, so they compute the
/// *same* MIS and results can be compared exactly.
pub fn luby_priority(v: VertexId, round: u32, seed: u64) -> u64 {
    // Fold the vertex id, round and seed; vertex id mixed last to decorrelate
    // neighbors.
    mix2(mix2(seed, round as u64), u64::from(v))
}

/// Sequential Luby MIS over the undirected graph; returns membership flags.
pub fn luby_mis(g: &InputGraph, seed: u64) -> Vec<bool> {
    let adj = g.adjacency();
    let n = g.num_vertices as usize;
    #[derive(Clone, Copy, PartialEq)]
    enum S {
        Undecided,
        In,
        Out,
    }
    let mut state = vec![S::Undecided; n];
    let mut round = 0u32;
    loop {
        let mut any_undecided = false;
        // A vertex enters the MIS if its priority beats all undecided
        // neighbors'. Ties broken by vertex id (priorities are u64 hashes,
        // collisions effectively impossible, but be safe).
        let mut newly_in = Vec::new();
        for v in 0..n as VertexId {
            if state[v as usize] != S::Undecided {
                continue;
            }
            any_undecided = true;
            let pv = (luby_priority(v, round, seed), v);
            let mut wins = true;
            for (u, _) in adj.neighbors(v) {
                if u == v {
                    continue; // Self-loops never block MIS membership.
                }
                if state[u as usize] == S::Undecided
                    && (luby_priority(u, round, seed), u) < pv
                {
                    wins = false;
                    break;
                }
            }
            if wins {
                newly_in.push(v);
            }
        }
        if !any_undecided {
            break;
        }
        for v in newly_in {
            state[v as usize] = S::In;
            for (u, _) in adj.neighbors(v) {
                if state[u as usize] == S::Undecided {
                    state[u as usize] = S::Out;
                }
            }
        }
        round += 1;
        assert!(round < 10_000, "Luby failed to converge");
    }
    state.iter().map(|&s| s == S::In).collect()
}

/// Checks that `member` is an independent set and maximal in the undirected
/// graph (self-loops ignored).
pub fn is_maximal_independent_set(g: &InputGraph, member: &[bool]) -> bool {
    // Independence: no edge joins two members.
    for e in &g.edges {
        if e.src != e.dst && member[e.src as usize] && member[e.dst as usize] {
            return false;
        }
    }
    // Maximality: every non-member has a member neighbor (in either
    // direction).
    let mut blocked = vec![false; g.num_vertices as usize];
    for e in &g.edges {
        if e.src != e.dst {
            if member[e.src as usize] {
                blocked[e.dst as usize] = true;
            }
            if member[e.dst as usize] {
                blocked[e.src as usize] = true;
            }
        }
    }
    member
        .iter()
        .zip(&blocked)
        .all(|(&m, &b)| m || b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;

    #[test]
    fn luby_on_clique_picks_exactly_one() {
        let g = builder::complete(6).to_undirected();
        let mis = luby_mis(&g, 42);
        assert_eq!(mis.iter().filter(|&&m| m).count(), 1);
        assert!(is_maximal_independent_set(&g, &mis));
    }

    #[test]
    fn luby_on_empty_graph_takes_everyone() {
        let g = crate::types::InputGraph::new(5, vec![], false);
        let mis = luby_mis(&g, 1);
        assert!(mis.iter().all(|&m| m));
        assert!(is_maximal_independent_set(&g, &mis));
    }

    #[test]
    fn luby_valid_on_random_graphs() {
        for seed in 0..5 {
            let g = builder::gnm(64, 256, false, seed).to_undirected();
            let mis = luby_mis(&g, seed);
            assert!(is_maximal_independent_set(&g, &mis), "seed {seed}");
        }
    }

    #[test]
    fn checker_rejects_bad_sets() {
        let g = builder::two_cliques(3);
        // Two adjacent members: not independent.
        let mut m = vec![false; 6];
        m[0] = true;
        m[1] = true;
        assert!(!is_maximal_independent_set(&g, &m));
        // Empty set: not maximal.
        assert!(!is_maximal_independent_set(&g, &[false; 6]));
    }
}
