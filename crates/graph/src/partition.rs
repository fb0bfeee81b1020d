//! Streaming partitions (§3 of the paper).
//!
//! "A streaming partition of a graph consists of a set of vertices that fits
//! in memory, all of their outgoing edges and all of their incoming
//! updates." Chaos chooses the number of partitions to be *the smallest
//! multiple of the number of machines such that the vertex set of each
//! partition fits into memory*, partitions the vertex set in ranges of
//! consecutive vertex identifiers, and assigns each edge to the partition of
//! its source vertex.

use crate::types::{vertex_id, Edge, InputGraph, VertexId, MAX_VERTICES};

/// The partitioning of a vertex id space into consecutive ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Total number of vertices.
    pub num_vertices: u64,
    /// Number of streaming partitions.
    pub num_partitions: usize,
    /// Vertices per partition (last partition may be short).
    pub stride: u64,
    /// `log2(stride)` when the stride is a power of two, so
    /// [`PartitionSpec::partition_of`] can shift instead of divide.
    shift: Option<u32>,
}

impl PartitionSpec {
    /// Builds a spec with an explicit partition count.
    ///
    /// # Panics
    ///
    /// Panics if `num_partitions == 0` or `num_vertices > MAX_VERTICES`.
    pub fn with_partitions(num_vertices: u64, num_partitions: usize) -> Self {
        assert!(num_partitions > 0, "need at least one partition");
        assert!(num_vertices <= MAX_VERTICES, "vertex ids exceed 4 bytes");
        let stride = num_vertices.div_ceil(num_partitions as u64).max(1);
        Self {
            num_vertices,
            num_partitions,
            stride,
            shift: stride.is_power_of_two().then(|| stride.trailing_zeros()),
        }
    }

    /// Chooses the number of partitions per the paper's rule: the smallest
    /// multiple of `machines` such that each partition's vertex state fits
    /// in `memory_budget_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `machines == 0`, `vertex_state_bytes == 0` or
    /// `memory_budget_bytes == 0`.
    pub fn for_memory(
        num_vertices: u64,
        vertex_state_bytes: u64,
        memory_budget_bytes: u64,
        machines: usize,
    ) -> Self {
        assert!(machines > 0 && vertex_state_bytes > 0 && memory_budget_bytes > 0);
        let verts_per_budget = (memory_budget_bytes / vertex_state_bytes).max(1);
        // Smallest multiple k*machines with ceil(V / (k*machines)) <= budget.
        let mut k = 1usize;
        loop {
            let parts = k * machines;
            if num_vertices.div_ceil(parts as u64) <= verts_per_budget {
                return Self::with_partitions(num_vertices, parts);
            }
            k += 1;
        }
    }

    /// Partition of a vertex.
    ///
    /// This sits on the engine's per-update scatter path (one call per
    /// emitted update), so the common power-of-two stride (2^k vertices
    /// over a partition count dividing evenly) takes the shift computed at
    /// construction instead of a 64-bit division; the branch predicts
    /// perfectly.
    #[inline]
    pub fn partition_of(&self, v: VertexId) -> usize {
        let v = u64::from(v);
        debug_assert!(v < self.num_vertices);
        let q = match self.shift {
            Some(s) => v >> s,
            None => v / self.stride,
        };
        (q as usize).min(self.num_partitions - 1)
    }

    /// Vertex id range of partition `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= num_partitions`.
    pub fn range(&self, p: usize) -> std::ops::Range<VertexId> {
        assert!(p < self.num_partitions);
        let lo = (p as u64 * self.stride).min(self.num_vertices);
        let hi = (lo + self.stride).min(self.num_vertices);
        vertex_id(lo)..vertex_id(hi)
    }

    /// Number of vertices in partition `p`.
    pub fn len(&self, p: usize) -> u64 {
        let r = self.range(p);
        u64::from(r.end - r.start)
    }

    /// True if partition `p` contains no vertices (possible when there are
    /// more partitions than vertices).
    pub fn is_empty(&self, p: usize) -> bool {
        self.len(p) == 0
    }
}

/// Source-clustered sub-binning of a partition's key space.
///
/// Edges stored in input arrival order give every chunk a scatter-key
/// window spanning nearly the whole partition, so selective streaming can
/// only skip chunks when the partition's frontier is completely empty.
/// Radix-binning each partition's edges into `bins` consecutive key
/// sub-ranges *before* chunking (GridGraph's source-dimension binning,
/// X-Stream's streaming-partition discipline) makes chunk windows narrow
/// and disjoint — ~1/bins of the partition — which is what lets
/// mid-wavefront iterations skip chunks in proportion to frontier
/// sparsity.
///
/// A `BinSpec` is derived once per run from the [`PartitionSpec`]: every
/// partition shares the same sub-stride (`ceil(stride / bins)`), so a
/// partition-local offset maps to its bin with one shift (power-of-two
/// sub-strides, the common case) or one division. `bins == 1` is the
/// unclustered layout — one bin covering the whole partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinSpec {
    bins: u32,
    substride: u64,
    /// `log2(substride)` when the sub-stride is a power of two (the
    /// per-edge hot path takes a shift instead of a division).
    shift: Option<u32>,
}

impl BinSpec {
    /// Derives the bin layout for `spec` with `bins` sub-ranges per
    /// partition. Partitions shorter than `bins` vertices get one bin per
    /// vertex (trailing bins stay empty).
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    pub fn new(spec: &PartitionSpec, bins: u32) -> Self {
        assert!(bins > 0, "need at least one bin per partition");
        let substride = spec.stride.div_ceil(bins as u64).max(1);
        Self {
            bins,
            substride,
            shift: substride
                .is_power_of_two()
                .then(|| substride.trailing_zeros()),
        }
    }

    /// The single-bin (unclustered) layout.
    pub fn single(spec: &PartitionSpec) -> Self {
        Self::new(spec, 1)
    }

    /// Number of bins per partition.
    pub fn bins(&self) -> u32 {
        self.bins
    }

    /// Vertices per bin.
    pub fn substride(&self) -> u64 {
        self.substride
    }

    /// Bin of a partition-local vertex offset. Offsets past the nominal
    /// stride (possible only through misuse) clamp to the last bin.
    #[inline]
    pub fn bin_of_offset(&self, off: u64) -> u32 {
        let b = match self.shift {
            Some(s) => off >> s,
            None => off / self.substride,
        };
        (b as u32).min(self.bins - 1)
    }

    /// Bin of vertex `v`, which must lie in partition `part` of `spec`.
    #[inline]
    pub fn bin_of(&self, spec: &PartitionSpec, part: usize, v: VertexId) -> u32 {
        debug_assert!(spec.range(part).contains(&v));
        self.bin_of_offset(u64::from(v) - part as u64 * spec.stride)
    }

    /// Inclusive vertex-id range `(lo, hi)` of `bin` within partition
    /// `part`, or `None` when the bin falls entirely past the partition's
    /// end (short last partition, or more bins than vertices).
    pub fn bin_range(
        &self,
        spec: &PartitionSpec,
        part: usize,
        bin: u32,
    ) -> Option<(VertexId, VertexId)> {
        let r = spec.range(part);
        let end = u64::from(r.end);
        let lo = u64::from(r.start) + bin as u64 * self.substride;
        if lo >= end {
            return None;
        }
        let hi = if bin == self.bins - 1 {
            end - 1
        } else {
            (lo + self.substride - 1).min(end - 1)
        };
        Some((vertex_id(lo), vertex_id(hi)))
    }
}

/// One pass over the edge list binning edges by the partition of their
/// source vertex — the *only* pre-processing Chaos does (§3). This in-memory
/// helper is used by tests and the single-machine baseline; the distributed
/// engine performs the same pass through its storage protocol.
pub fn partition_edges(g: &InputGraph, spec: &PartitionSpec) -> Vec<Vec<Edge>> {
    let mut out = vec![Vec::new(); spec.num_partitions];
    for e in &g.edges {
        out[spec.partition_of(e.src)].push(*e);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmat::RmatConfig;

    #[test]
    fn ranges_cover_exactly() {
        for (n, p) in [(100u64, 7usize), (8, 8), (5, 8), (1, 1), (1000, 3)] {
            let spec = PartitionSpec::with_partitions(n, p);
            let mut seen = 0u64;
            for i in 0..p {
                let r = spec.range(i);
                assert_eq!(u64::from(r.start), seen.min(n));
                seen = u64::from(r.end);
                for v in r {
                    assert_eq!(spec.partition_of(v), i);
                }
            }
            assert_eq!(seen, n);
        }
    }

    #[test]
    fn for_memory_picks_smallest_multiple() {
        // 1000 vertices * 8B state = 8000B. Budget 1000B/machine, 4 machines:
        // k=1: 4 parts, 250 verts = 2000B > 1000 → no.
        // k=2: 8 parts, 125 verts = 1000B ≤ 1000 → yes.
        let spec = PartitionSpec::for_memory(1000, 8, 1000, 4);
        assert_eq!(spec.num_partitions, 8);
        // Huge budget → exactly one partition per machine.
        let spec = PartitionSpec::for_memory(1000, 8, 1 << 30, 4);
        assert_eq!(spec.num_partitions, 4);
    }

    #[test]
    fn edges_follow_source_partition() {
        let g = RmatConfig::paper(8).generate();
        let spec = PartitionSpec::with_partitions(g.num_vertices, 6);
        let parts = partition_edges(&g, &spec);
        assert_eq!(
            parts.iter().map(Vec::len).sum::<usize>(),
            g.edges.len(),
            "no edge lost or duplicated"
        );
        for (p, edges) in parts.iter().enumerate() {
            for e in edges {
                assert_eq!(spec.partition_of(e.src), p);
            }
        }
    }

    #[test]
    fn bins_tile_each_partition_exactly() {
        for (n, p, bins) in [
            (1000u64, 7usize, 16u32),
            (256, 4, 8),
            (256, 4, 64),
            (100, 3, 7),
            (5, 2, 8), // more bins than vertices
            (64, 1, 1),
        ] {
            let spec = PartitionSpec::with_partitions(n, p);
            let bs = BinSpec::new(&spec, bins);
            for part in 0..p {
                let mut expect = spec.range(part).start;
                for b in 0..bins {
                    let Some((lo, hi)) = bs.bin_range(&spec, part, b) else {
                        continue;
                    };
                    assert_eq!(lo, expect, "bins are consecutive and gap-free");
                    assert!(hi >= lo && hi < spec.range(part).end);
                    for v in lo..=hi {
                        assert_eq!(bs.bin_of(&spec, part, v), b);
                    }
                    expect = hi + 1;
                }
                assert_eq!(expect, spec.range(part).end, "bins cover the partition");
            }
        }
    }

    #[test]
    fn power_of_two_shift_matches_division() {
        let spec = PartitionSpec::with_partitions(1 << 12, 4);
        let shifted = BinSpec::new(&spec, 16); // substride 64, power of two
        assert_eq!(shifted.substride(), 64);
        let spec_odd = PartitionSpec::with_partitions(900, 4); // stride 225
        let divided = BinSpec::new(&spec_odd, 16);
        assert_eq!(divided.substride(), 15);
        for off in 0..spec.stride {
            assert_eq!(shifted.bin_of_offset(off), (off / 64).min(15) as u32);
        }
        for off in 0..spec_odd.stride {
            assert_eq!(divided.bin_of_offset(off), (off / 15).min(15) as u32);
        }
    }

    #[test]
    fn single_bin_is_the_unclustered_layout() {
        let spec = PartitionSpec::with_partitions(1000, 3);
        let bs = BinSpec::single(&spec);
        assert_eq!(bs.bins(), 1);
        for part in 0..3 {
            let r = spec.range(part);
            assert_eq!(bs.bin_range(&spec, part, 0), Some((r.start, r.end - 1)));
            assert_eq!(bs.bin_of(&spec, part, r.start), 0);
            assert_eq!(bs.bin_of(&spec, part, r.end - 1), 0);
        }
    }

    #[test]
    fn empty_partitions_possible() {
        let spec = PartitionSpec::with_partitions(3, 8);
        assert!(spec.is_empty(7));
        assert_eq!((0..8).map(|p| spec.len(p)).sum::<u64>(), 3);
    }
}
