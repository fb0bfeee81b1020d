//! Shared algorithm parameters.

use chaos_graph::VertexId;

/// Names of the ten algorithms in the order of Table 1.
pub const ALGO_NAMES: [&str; 10] = [
    "BFS", "WCC", "MCST", "MIS", "SSSP", "SCC", "PR", "Cond", "SpMV", "BP",
];

/// Knobs shared by all algorithm constructors (root vertex for traversals,
/// iteration counts for the fixed-point algorithms, RNG seed for the
/// randomized ones).
#[derive(Debug, Clone, Copy)]
pub struct AlgoParams {
    /// Root vertex for BFS / SSSP.
    pub root: VertexId,
    /// Pagerank iteration count (the paper runs 5 on RMAT-36, §9.3).
    pub pr_iterations: u32,
    /// Belief-propagation iteration count.
    pub bp_iterations: u32,
    /// Seed for MIS priorities, BP priors, conductance/SpMV hash values.
    pub seed: u64,
}

impl Default for AlgoParams {
    fn default() -> Self {
        Self {
            root: 0,
            pr_iterations: 5,
            bp_iterations: 5,
            seed: 0xC0FFEE,
        }
    }
}

/// Whether an algorithm requires the undirected expansion of the input
/// (the first five rows of Table 1).
pub fn needs_undirected(name: &str) -> bool {
    matches!(name, "BFS" | "WCC" | "MCST" | "MIS" | "SSSP")
}

/// Whether an algorithm requires edge weights.
pub fn needs_weights(name: &str) -> bool {
    matches!(name, "MCST" | "SSSP" | "SpMV")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_algorithms() {
        assert_eq!(ALGO_NAMES.len(), 10);
        assert_eq!(ALGO_NAMES.iter().filter(|n| needs_undirected(n)).count(), 5);
        assert!(needs_weights("MCST") && needs_weights("SSSP") && needs_weights("SpMV"));
        assert!(!needs_weights("PR"));
    }
}
