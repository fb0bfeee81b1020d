//! Breadth-First Search: level-synchronous frontier expansion.

use chaos_gas::{ActivityModel, Control, GasProgram, IterationAggregates, Update, UpdateSink};
use chaos_graph::{Edge, VertexId};

/// Level of vertices not (yet) reached.
pub const UNREACHED: u32 = u32::MAX;

/// BFS from a root vertex. The vertex state is the BFS level; iteration `i`
/// scatters from the level-`i` frontier and stamps newly reached vertices
/// with level `i + 1`.
#[derive(Debug, Clone)]
pub struct Bfs {
    root: VertexId,
}

impl Bfs {
    /// BFS rooted at `root`.
    pub fn new(root: VertexId) -> Self {
        Self { root }
    }
}

impl GasProgram for Bfs {
    type VertexState = u32;
    type Update = ();
    type Accum = bool;

    fn name(&self) -> &'static str {
        "BFS"
    }

    fn needs_undirected(&self) -> bool {
        true
    }

    fn init(&self, v: VertexId, _out_degree: u64) -> u32 {
        if v == self.root {
            0
        } else {
            UNREACHED
        }
    }

    fn scatter(&self, _v: VertexId, state: &u32, _edge: &Edge, iter: u32) -> Option<()> {
        (*state == iter).then_some(())
    }

    fn activity(&self) -> ActivityModel {
        ActivityModel::Frontier
    }

    fn is_active(&self, _v: VertexId, state: &u32, iter: u32) -> bool {
        *state == iter
    }

    fn gather(&self, acc: &mut bool, _dst: VertexId, _dst_state: &u32, _payload: &()) {
        *acc = true;
    }

    fn merge(&self, into: &mut bool, from: &bool) {
        *into |= *from;
    }

    fn apply(&self, _v: VertexId, state: &mut u32, acc: &bool, iter: u32) -> bool {
        if *acc && *state == UNREACHED {
            *state = iter + 1;
            true
        } else {
            false
        }
    }

    fn aggregate(&self, state: &u32) -> [f64; 4] {
        [if *state != UNREACHED { 1.0 } else { 0.0 }, 0.0, 0.0, 0.0]
    }

    fn scatter_chunk<S: UpdateSink<()>>(
        &self,
        base: VertexId,
        states: &[u32],
        edges: &[Edge],
        iter: u32,
        out: &mut S,
    ) {
        // Frontier test only: vertices at level `iter` announce themselves.
        for e in edges {
            if states[(e.src - base) as usize] == iter {
                out.push(e.dst, ());
            }
        }
    }

    fn gather_chunk(
        &self,
        base: VertexId,
        _states: &[u32],
        accums: &mut [bool],
        updates: &[Update<()>],
    ) {
        for u in updates {
            accums[(u.dst - base) as usize] = true;
        }
    }

    fn end_iteration(&mut self, _iter: u32, agg: &IterationAggregates) -> Control {
        if agg.vertices_changed == 0 {
            Control::Done
        } else {
            Control::Continue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_gas::run_sequential;
    use chaos_graph::reference::bfs_levels;
    use chaos_graph::{builder, RmatConfig};

    fn check(g: &chaos_graph::InputGraph, root: VertexId) {
        let res = run_sequential(Bfs::new(root), g, 10_000);
        let oracle = bfs_levels(g, root);
        let got: Vec<u32> = res.states;
        let want: Vec<u32> = oracle
            .iter()
            .map(|&l| if l == chaos_graph::reference::UNREACHED { UNREACHED } else { l })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn matches_oracle_on_small_shapes() {
        check(&builder::path(10), 0);
        check(&builder::cycle(7), 3);
        check(&builder::star(9), 0);
        check(&builder::two_cliques(4), 1);
    }

    #[test]
    fn matches_oracle_on_rmat() {
        let g = RmatConfig::paper(8).generate().to_undirected();
        check(&g, 0);
    }

    #[test]
    fn reached_count_aggregate() {
        let g = builder::path(5);
        let res = run_sequential(Bfs::new(0), &g, 100);
        assert_eq!(res.final_aggregates().custom[0], 5.0);
        // 4 frontier expansions plus the final empty iteration.
        assert_eq!(res.num_iterations(), 5);
    }
}
