//! Sparse matrix-vector multiplication: one scatter/gather round.

use chaos_gas::{Control, GasProgram, IterationAggregates, Update, UpdateSink};
use chaos_graph::{Edge, VertexId};
use chaos_sim::rng::mix2;

/// Deterministic input-vector entry for vertex `v`: uniform in `[0, 1)`.
pub fn input_entry(v: u64, seed: u64) -> f64 {
    (mix2(seed, v) >> 11) as f64 / (1u64 << 53) as f64
}

/// SpMV computes `y[dst] += weight * x[src]` over all edges in a single
/// iteration — the adjacency matrix (transposed) times a dense vector.
#[derive(Debug, Clone)]
pub struct Spmv {
    seed: u64,
}

impl Spmv {
    /// SpMV with the input vector derived from `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

/// Sum accumulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProductSum(pub f64);

impl GasProgram for Spmv {
    /// `(x, y)`.
    type VertexState = (f32, f32);
    type Update = f32;
    type Accum = ProductSum;

    fn name(&self) -> &'static str {
        "SpMV"
    }

    fn init(&self, v: VertexId, _out_degree: u64) -> (f32, f32) {
        (input_entry(u64::from(v), self.seed) as f32, 0.0)
    }

    fn scatter(&self, _v: VertexId, state: &(f32, f32), edge: &Edge, _iter: u32) -> Option<f32> {
        Some(state.0 * edge.weight)
    }

    fn gather(&self, acc: &mut ProductSum, _dst: VertexId, _dst_state: &(f32, f32), payload: &f32) {
        acc.0 += *payload as f64;
    }

    fn merge(&self, into: &mut ProductSum, from: &ProductSum) {
        into.0 += from.0;
    }

    fn apply(&self, _v: VertexId, state: &mut (f32, f32), acc: &ProductSum, _iter: u32) -> bool {
        state.1 = acc.0 as f32;
        true
    }

    fn aggregate(&self, state: &(f32, f32)) -> [f64; 4] {
        [state.1 as f64, 0.0, 0.0, 0.0]
    }

    fn scatter_chunk<S: UpdateSink<f32>>(
        &self,
        base: VertexId,
        states: &[(f32, f32)],
        edges: &[Edge],
        _iter: u32,
        out: &mut S,
    ) {
        // Branchless: every edge carries a product term.
        for e in edges {
            out.push(e.dst, states[(e.src - base) as usize].0 * e.weight);
        }
    }

    fn gather_chunk(
        &self,
        base: VertexId,
        _states: &[(f32, f32)],
        accums: &mut [ProductSum],
        updates: &[Update<f32>],
    ) {
        for u in updates {
            accums[(u.dst - base) as usize].0 += u.payload as f64;
        }
    }

    fn end_iteration(&mut self, _iter: u32, _agg: &IterationAggregates) -> Control {
        Control::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_gas::run_sequential;
    use chaos_graph::reference::spmv as oracle_spmv;
    use chaos_graph::builder;

    #[test]
    fn matches_oracle() {
        let seed = 77;
        for g in [
            builder::gnm(40, 160, true, 3),
            builder::star(10),
            builder::cycle(6),
        ] {
            let x: Vec<f64> = (0..g.num_vertices).map(|v| input_entry(v, seed)).collect();
            let want = oracle_spmv(&g, &x);
            let res = run_sequential(Spmv::new(seed), &g, 2);
            assert_eq!(res.num_iterations(), 1);
            for (v, (got, w)) in res.states.iter().zip(want.iter()).enumerate() {
                assert!(
                    (got.1 as f64 - w).abs() <= 1e-3 * w.abs().max(1.0),
                    "vertex {v}: got {} want {}",
                    got.1,
                    w
                );
            }
        }
    }

    #[test]
    fn zero_in_degree_yields_zero() {
        let g = builder::path(3);
        let res = run_sequential(Spmv::new(1), &g, 2);
        assert_eq!(res.states[0].1, 0.0);
    }
}
