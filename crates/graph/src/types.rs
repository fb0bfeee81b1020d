//! Core graph types: edges, edge lists, adjacency views.

/// Identifier of a vertex, held in 4 bytes in memory.
///
/// The paper stores graphs under 2^32 vertices in "compact format, with 4
/// bytes for each vertex" (§8), and every graph this system materializes
/// is one: [`InputGraph`] holds at most [`MAX_VERTICES`] vertices. So an
/// [`Edge`] is 12 bytes and an update carrying an `f32` is 8, which halves
/// the bytes the scatter and gather kernels move compared with 8-byte ids.
///
/// The in-memory width is a host matter only. What a record is charged on
/// storage and the network is [`crate::size::SizeModel`]'s business, and
/// the fixed-width record encoding keeps 8 bytes per id. Counts (vertex
/// totals, degrees, partition strides) stay `u64`.
pub type VertexId = u32;

/// Most vertices a graph may hold: every id fits a [`VertexId`], which is
/// also where [`crate::size::SizeModel`] switches to 8-byte ids.
pub const MAX_VERTICES: u64 = u32::MAX as u64;

/// Narrows a vertex number held in a count (`u64`) to a [`VertexId`].
///
/// # Panics
///
/// Panics if `v` does not fit in 4 bytes; graphs are bounded by
/// [`MAX_VERTICES`], so only a caller past that bound gets here.
#[inline]
pub(crate) fn vertex_id(v: u64) -> VertexId {
    VertexId::try_from(v).expect("vertex id exceeds the 4-byte id space")
}

/// A directed edge with an optional weight.
///
/// Unweighted graphs carry `weight = 1.0`; whether the weight occupies
/// storage bytes is a property of the graph ([`InputGraph::weighted`]), not
/// of the in-memory struct.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Edge weight (1.0 for unweighted graphs).
    pub weight: f32,
}

impl Edge {
    /// Creates an unweighted edge.
    pub fn new(src: VertexId, dst: VertexId) -> Self {
        Self {
            src,
            dst,
            weight: 1.0,
        }
    }

    /// Creates a weighted edge.
    pub fn weighted(src: VertexId, dst: VertexId, weight: f32) -> Self {
        Self { src, dst, weight }
    }

    /// The same edge with endpoints swapped.
    pub fn reversed(&self) -> Self {
        Self {
            src: self.dst,
            dst: self.src,
            weight: self.weight,
        }
    }
}

/// The input to a Chaos computation: an unsorted edge list plus metadata.
///
/// This mirrors the paper's §8: "Input to the computation consists of an
/// unsorted edge list, with each edge represented by its source and target
/// vertex and an optional weight."
#[derive(Debug, Clone)]
pub struct InputGraph {
    /// Number of vertices; ids are `0..num_vertices`.
    pub num_vertices: u64,
    /// The edges, in no particular order.
    pub edges: Vec<Edge>,
    /// Whether edge weights are meaningful (and occupy storage bytes).
    pub weighted: bool,
}

impl InputGraph {
    /// Creates a graph from parts.
    ///
    /// # Panics
    ///
    /// Panics if `num_vertices > MAX_VERTICES` or any edge references a
    /// vertex `>= num_vertices`.
    pub fn new(num_vertices: u64, edges: Vec<Edge>, weighted: bool) -> Self {
        assert!(
            num_vertices <= MAX_VERTICES,
            "{num_vertices} vertices exceed the 4-byte id space"
        );
        for e in &edges {
            assert!(
                u64::from(e.src) < num_vertices && u64::from(e.dst) < num_vertices,
                "edge ({}, {}) out of range for {} vertices",
                e.src,
                e.dst,
                num_vertices
            );
        }
        Self {
            num_vertices,
            edges,
            weighted,
        }
    }

    /// Number of edges.
    pub fn num_edges(&self) -> u64 {
        self.edges.len() as u64
    }

    /// Converts a directed graph to an undirected one by adding a reverse
    /// edge for every edge, as the paper does for the algorithms that need
    /// undirected input (§8). Self-loops are not duplicated.
    pub fn to_undirected(&self) -> Self {
        let mut edges = Vec::with_capacity(self.edges.len() * 2);
        for e in &self.edges {
            edges.push(*e);
            if e.src != e.dst {
                edges.push(e.reversed());
            }
        }
        Self {
            num_vertices: self.num_vertices,
            edges,
            weighted: self.weighted,
        }
    }

    /// Out-degree of every vertex.
    pub fn out_degrees(&self) -> Vec<u64> {
        let mut deg = vec![0u64; self.num_vertices as usize];
        for e in &self.edges {
            deg[e.src as usize] += 1;
        }
        deg
    }

    /// Builds a forward (out-edge) adjacency view for the reference
    /// algorithms.
    pub fn adjacency(&self) -> Adjacency {
        Adjacency::forward(self)
    }

    /// Builds a reverse (in-edge) adjacency view.
    pub fn reverse_adjacency(&self) -> Adjacency {
        Adjacency::reverse(self)
    }
}

/// Compressed-sparse-row adjacency used by the reference oracles.
///
/// Not used by the Chaos engine itself (which streams unsorted edges); this
/// exists so the oracles are an *independent* code path.
#[derive(Debug, Clone)]
pub struct Adjacency {
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    weights: Vec<f32>,
}

impl Adjacency {
    fn build(n: u64, iter: impl Iterator<Item = (VertexId, VertexId, f32)> + Clone) -> Self {
        let n = n as usize;
        let mut counts = vec![0usize; n + 1];
        for (s, _, _) in iter.clone() {
            counts[s as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let total = offsets[n];
        let mut targets = vec![0; total];
        let mut weights = vec![0.0; total];
        let mut cursor = offsets.clone();
        for (s, d, w) in iter {
            let at = cursor[s as usize];
            targets[at] = d;
            weights[at] = w;
            cursor[s as usize] += 1;
        }
        Self {
            offsets,
            targets,
            weights,
        }
    }

    /// CSR over out-edges.
    pub fn forward(g: &InputGraph) -> Self {
        Self::build(
            g.num_vertices,
            g.edges.iter().map(|e| (e.src, e.dst, e.weight)),
        )
    }

    /// CSR over in-edges (edges reversed).
    pub fn reverse(g: &InputGraph) -> Self {
        Self::build(
            g.num_vertices,
            g.edges.iter().map(|e| (e.dst, e.src, e.weight)),
        )
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Neighbors of `v` with weights.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f32)> + '_ {
        let lo = self.offsets[v as usize];
        let hi = self.offsets[v as usize + 1];
        self.targets[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undirected_doubles_edges_except_self_loops() {
        let g = InputGraph::new(
            3,
            vec![Edge::new(0, 1), Edge::new(1, 1), Edge::new(2, 0)],
            false,
        );
        let u = g.to_undirected();
        assert_eq!(u.num_edges(), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        let _ = InputGraph::new(2, vec![Edge::new(0, 5)], false);
    }

    #[test]
    fn adjacency_matches_edges() {
        let g = InputGraph::new(
            4,
            vec![
                Edge::weighted(0, 1, 0.5),
                Edge::weighted(0, 2, 0.25),
                Edge::weighted(3, 0, 1.5),
            ],
            true,
        );
        let adj = g.adjacency();
        assert_eq!(adj.num_vertices(), 4);
        let n0: Vec<_> = adj.neighbors(0).collect();
        assert_eq!(n0, vec![(1, 0.5), (2, 0.25)]);
        assert_eq!(adj.degree(1), 0);
        assert_eq!(adj.degree(3), 1);

        let rev = g.reverse_adjacency();
        let into0: Vec<_> = rev.neighbors(0).collect();
        assert_eq!(into0, vec![(3, 1.5)]);
    }

    #[test]
    fn out_degrees_count_sources() {
        let g = InputGraph::new(3, vec![Edge::new(0, 1), Edge::new(0, 2)], false);
        assert_eq!(g.out_degrees(), vec![2, 0, 0]);
    }
}
