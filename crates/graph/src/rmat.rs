//! RMAT graph generator (Chakrabarti, Zhan, Faloutsos — SDM 2004).
//!
//! The paper's synthetic workloads are RMAT graphs: "a scale-n RMAT graph
//! has 2^n vertices and 2^(n+4) edges" (§8), i.e. an edge factor of 16.

use chaos_sim::Rng;

use crate::types::{Edge, InputGraph, VertexId};

/// Largest scale [`RmatConfig::generate`] accepts: `2^31` vertices is the
/// largest power of two within [`crate::MAX_VERTICES`].
pub const MAX_SCALE: u32 = 31;

/// Configuration of an RMAT generation run.
#[derive(Debug, Clone)]
pub struct RmatConfig {
    /// Scale: the graph has `2^scale` vertices.
    pub scale: u32,
    /// Edges per vertex; the paper uses 16.
    pub edge_factor: u32,
    /// Quadrant probabilities `(a, b, c)`; `d = 1 - a - b - c`.
    pub probs: (f64, f64, f64),
    /// Whether to attach uniform random weights in `(0, 1)`.
    pub weighted: bool,
    /// RNG seed.
    pub seed: u64,
}

impl RmatConfig {
    /// The standard Graph500-style parameters used by X-Stream and Chaos:
    /// (a, b, c, d) = (0.57, 0.19, 0.19, 0.05), edge factor 16.
    pub fn paper(scale: u32) -> Self {
        Self {
            scale,
            edge_factor: 16,
            probs: (0.57, 0.19, 0.19),
            weighted: false,
            seed: 0xC4A05,
        }
    }

    /// Same as [`RmatConfig::paper`] but with random edge weights, for the
    /// weighted algorithms (SSSP, MCST).
    pub fn paper_weighted(scale: u32) -> Self {
        Self {
            weighted: true,
            ..Self::paper(scale)
        }
    }

    /// Number of vertices this configuration generates.
    pub fn num_vertices(&self) -> u64 {
        1u64 << self.scale
    }

    /// Number of edges this configuration generates.
    pub fn num_edges(&self) -> u64 {
        self.num_vertices() * self.edge_factor as u64
    }

    /// Generates the graph.
    ///
    /// # Panics
    ///
    /// Panics if the probabilities are malformed (negative or summing above
    /// one) or if `scale > MAX_SCALE` (ids would not fit in a [`VertexId`]).
    pub fn generate(&self) -> InputGraph {
        let (a, b, c) = self.probs;
        let d = 1.0 - a - b - c;
        assert!(a >= 0.0 && b >= 0.0 && c >= 0.0 && d >= 0.0, "bad RMAT probabilities");
        assert!(
            self.scale <= MAX_SCALE,
            "RMAT scale {} exceeds {MAX_SCALE}: 2^scale vertices must fit 4-byte ids",
            self.scale
        );
        let n = self.num_vertices();
        let m = self.num_edges();
        let mut rng = Rng::new(self.seed);
        let mut edges = Vec::with_capacity(m as usize);
        for _ in 0..m {
            let (src, dst) = sample_edge(&mut rng, self.scale, (a, b, c));
            let weight = if self.weighted {
                // Strictly positive, effectively distinct weights so the
                // MST oracle comparison is unambiguous.
                (rng.f64() as f32).max(f32::MIN_POSITIVE)
            } else {
                1.0
            };
            edges.push(Edge { src, dst, weight });
        }
        InputGraph::new(n, edges, self.weighted)
    }
}

/// Draws one edge by recursive quadrant descent, one draw per level.
///
/// The quadrant tests are branch-free: a draw lands in quadrant a (no
/// bit), b (dst bit), c (src bit) or d (both) by where it falls against
/// the cumulative thresholds, and data-dependent branches on uniform draws
/// mispredict about half the time.
fn sample_edge(rng: &mut Rng, scale: u32, (a, b, c): (f64, f64, f64)) -> (VertexId, VertexId) {
    let (ab, abc) = (a + b, a + b + c);
    let mut src: VertexId = 0;
    let mut dst: VertexId = 0;
    for _ in 0..scale {
        let r = rng.f64();
        let src_bit = r >= ab;
        let dst_bit = (r >= a && r < ab) | (r >= abc);
        src = (src << 1) | VertexId::from(src_bit);
        dst = (dst << 1) | VertexId::from(dst_bit);
    }
    (src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_spec() {
        let g = RmatConfig::paper(8).generate();
        assert_eq!(g.num_vertices, 256);
        assert_eq!(g.num_edges(), 256 * 16);
        assert!(!g.weighted);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = RmatConfig::paper(6).generate();
        let b = RmatConfig::paper(6).generate();
        assert_eq!(a.edges.len(), b.edges.len());
        assert!(a.edges.iter().zip(&b.edges).all(|(x, y)| x == y));
        let mut cfg = RmatConfig::paper(6);
        cfg.seed ^= 1;
        let c = cfg.generate();
        assert!(a.edges.iter().zip(&c.edges).any(|(x, y)| x != y));
    }

    #[test]
    fn skewed_towards_low_ids() {
        // With a = 0.57 the low-id quadrant dominates, so low vertices see
        // far more edges than high vertices.
        let g = RmatConfig::paper(10).generate();
        let deg = g.out_degrees();
        let lo: u64 = deg[..512].iter().sum();
        let hi: u64 = deg[512..].iter().sum();
        assert!(lo > 2 * hi, "expected skew, got lo={lo} hi={hi}");
    }

    #[test]
    fn weighted_weights_are_positive_and_varied() {
        let g = RmatConfig::paper_weighted(6).generate();
        assert!(g.weighted);
        assert!(g.edges.iter().all(|e| e.weight > 0.0 && e.weight < 1.0));
        let first = g.edges[0].weight;
        assert!(g.edges.iter().any(|e| e.weight != first));
    }

    /// Order-sensitive digest of the edge list, ids widened to `u64` so it
    /// does not depend on the in-memory id width.
    fn edge_digest(g: &InputGraph) -> u64 {
        g.edges.iter().fold(g.num_vertices, |h, e| {
            let h = chaos_sim::rng::mix2(h, u64::from(e.src));
            let h = chaos_sim::rng::mix2(h, u64::from(e.dst));
            chaos_sim::rng::mix2(h, u64::from(e.weight.to_bits()))
        })
    }

    #[test]
    fn edge_lists_are_pinned() {
        // Any change to the draws, their order or the quadrant mapping
        // moves these digests; the figures and every pinned result rest
        // on these edge lists.
        assert_eq!(
            edge_digest(&RmatConfig::paper(12).generate()),
            0x4600_3209_1936_c35d
        );
        assert_eq!(
            edge_digest(&RmatConfig::paper_weighted(12).generate()),
            0x006e_6770_f187_f89d
        );
    }

    #[test]
    #[should_panic(expected = "exceeds 31")]
    fn scale_past_the_id_space_is_rejected() {
        let _ = RmatConfig::paper(32).generate();
    }

    #[test]
    fn edges_within_vertex_range() {
        let g = RmatConfig::paper(7).generate();
        assert!(g.edges.iter().all(|e| e.src < 128 && e.dst < 128));
    }
}
