//! Connected-components oracles: union-find WCC and iterative Tarjan SCC.

use crate::types::{InputGraph, VertexId};

struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        // Union by smaller root id keeps labels canonical (min id wins
        // transitively after a final find pass).
        if ra < rb {
            self.parent[rb as usize] = ra;
        } else {
            self.parent[ra as usize] = rb;
        }
        true
    }
}

/// Weakly connected components; returns, per vertex, the minimum vertex id
/// in its component (edge direction ignored).
pub fn weakly_connected_components(g: &InputGraph) -> Vec<u64> {
    let mut uf = UnionFind::new(g.num_vertices as usize);
    for e in &g.edges {
        uf.union(e.src, e.dst);
    }
    (0..g.num_vertices as VertexId)
        .map(|v| u64::from(uf.find(v)))
        .collect()
}

/// Strongly connected components via iterative Tarjan; returns, per vertex,
/// the minimum vertex id of its SCC (a canonical label comparable across
/// algorithms).
pub fn strongly_connected_components(g: &InputGraph) -> Vec<u64> {
    let adj = g.adjacency();
    let n = g.num_vertices as usize;
    const NONE: u32 = u32::MAX;
    let mut index = vec![NONE; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut scc_label = vec![0u64; n];
    let mut next_index = 0u32;

    // Explicit DFS machine: (vertex, neighbor iterator position).
    enum Frame {
        Enter(u32),
        Resume(u32, usize),
    }

    for start in 0..n as u32 {
        if index[start as usize] != NONE {
            continue;
        }
        let mut call: Vec<Frame> = vec![Frame::Enter(start)];
        while let Some(frame) = call.pop() {
            let (v, mut i) = match frame {
                Frame::Enter(v) => {
                    index[v as usize] = next_index;
                    lowlink[v as usize] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v as usize] = true;
                    (v, 0usize)
                }
                Frame::Resume(v, i) => {
                    // A child just returned; fold its lowlink.
                    (v, i)
                }
            };
            if i > 0 {
                // The (i-1)-th neighbor was the child we recursed into.
                let child = nth_neighbor(&adj, v, i - 1);
                lowlink[v as usize] = lowlink[v as usize].min(lowlink[child as usize]);
            }
            let deg = adj.degree(v);
            let mut recursed = false;
            while i < deg {
                let w = nth_neighbor(&adj, v, i);
                i += 1;
                if index[w as usize] == NONE {
                    call.push(Frame::Resume(v, i));
                    call.push(Frame::Enter(w));
                    recursed = true;
                    break;
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            }
            if recursed {
                continue;
            }
            if lowlink[v as usize] == index[v as usize] {
                // Root of an SCC: pop it and label with the min vertex id.
                let mut members = Vec::new();
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w as usize] = false;
                    members.push(w);
                    if w == v {
                        break;
                    }
                }
                let label = u64::from(*members.iter().min().expect("non-empty scc"));
                for w in members {
                    scc_label[w as usize] = label;
                }
            }
        }
    }
    scc_label
}

fn nth_neighbor(adj: &crate::types::Adjacency, v: VertexId, i: usize) -> VertexId {
    adj.neighbors(v)
        .nth(i)
        .map(|(n, _)| n)
        .expect("neighbor index in range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use crate::types::Edge;

    #[test]
    fn wcc_two_cliques() {
        let g = builder::two_cliques(3);
        let cc = weakly_connected_components(&g);
        assert_eq!(cc, vec![0, 0, 0, 3, 3, 3]);
    }

    #[test]
    fn wcc_ignores_direction() {
        let g = InputGraph::new(4, vec![Edge::new(1, 0), Edge::new(2, 3)], false);
        assert_eq!(weakly_connected_components(&g), vec![0, 0, 2, 2]);
    }

    #[test]
    fn scc_cycle_is_one_component() {
        let g = builder::cycle(5);
        assert_eq!(strongly_connected_components(&g), vec![0; 5]);
    }

    #[test]
    fn scc_path_is_singletons() {
        let g = builder::path(4);
        assert_eq!(strongly_connected_components(&g), vec![0, 1, 2, 3]);
    }

    #[test]
    fn scc_two_cycles_with_bridge() {
        // 0<->1, 2<->3, bridge 1->2.
        let g = InputGraph::new(
            4,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 0),
                Edge::new(2, 3),
                Edge::new(3, 2),
                Edge::new(1, 2),
            ],
            false,
        );
        assert_eq!(strongly_connected_components(&g), vec![0, 0, 2, 2]);
    }

    #[test]
    fn scc_deep_graph_no_stack_overflow() {
        // 20k-vertex cycle would overflow a recursive Tarjan.
        let g = builder::cycle(20_000);
        let scc = strongly_connected_components(&g);
        assert!(scc.iter().all(|&l| l == 0));
    }
}
