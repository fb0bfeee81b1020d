//! Loopy Belief Propagation (flooding schedule, binary states).
//!
//! Matches `chaos_graph::reference::bp`: every vertex floods a message
//! derived from its current belief over its out-edges; receivers combine
//! incoming messages with their prior in log space.

use chaos_gas::{Control, GasProgram, IterationAggregates, Update, UpdateSink};
use chaos_graph::reference::{bp_prior, message_from_belief};
use chaos_graph::{Edge, VertexId};

/// Synchronous flooding BP for a fixed number of iterations.
#[derive(Debug, Clone)]
pub struct BeliefPropagation {
    seed: u64,
    iterations: u32,
}

impl BeliefPropagation {
    /// BP with priors derived from `seed`, running `iterations` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0`.
    pub fn new(seed: u64, iterations: u32) -> Self {
        assert!(iterations > 0, "need at least one iteration");
        Self { seed, iterations }
    }
}

/// Log-space sums of incoming message likelihoods for states 1 and 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogLikelihoods {
    /// `Σ ln m(1)` over incoming messages.
    pub log1: f64,
    /// `Σ ln m(0)` over incoming messages.
    pub log0: f64,
}

impl GasProgram for BeliefPropagation {
    /// Belief `P(state = 1)`.
    type VertexState = f64;
    /// The flooded message `m(1)`.
    type Update = f64;
    type Accum = LogLikelihoods;

    fn name(&self) -> &'static str {
        "BP"
    }

    fn init(&self, v: VertexId, _out_degree: u64) -> f64 {
        bp_prior(u64::from(v), self.seed)
    }

    fn scatter(&self, _v: VertexId, state: &f64, _edge: &Edge, _iter: u32) -> Option<f64> {
        Some(message_from_belief(*state))
    }

    fn gather(&self, acc: &mut LogLikelihoods, _dst: VertexId, _dst_state: &f64, payload: &f64) {
        acc.log1 += payload.ln();
        acc.log0 += (1.0 - payload).ln();
    }

    fn merge(&self, into: &mut LogLikelihoods, from: &LogLikelihoods) {
        into.log1 += from.log1;
        into.log0 += from.log0;
    }

    fn apply(&self, v: VertexId, state: &mut f64, acc: &LogLikelihoods, _iter: u32) -> bool {
        let p = bp_prior(u64::from(v), self.seed);
        let b1 = p.ln() + acc.log1;
        let b0 = (1.0 - p).ln() + acc.log0;
        let max = b1.max(b0);
        let e1 = (b1 - max).exp();
        let e0 = (b0 - max).exp();
        *state = e1 / (e1 + e0);
        true
    }

    fn aggregate(&self, state: &f64) -> [f64; 4] {
        [*state, 0.0, 0.0, 0.0]
    }

    fn scatter_chunk<S: UpdateSink<f64>>(
        &self,
        base: VertexId,
        states: &[f64],
        edges: &[Edge],
        _iter: u32,
        out: &mut S,
    ) {
        // Unconditional flood: one message per edge, no branches.
        for e in edges {
            out.push(e.dst, message_from_belief(states[(e.src - base) as usize]));
        }
    }

    fn gather_chunk(
        &self,
        base: VertexId,
        _states: &[f64],
        accums: &mut [LogLikelihoods],
        updates: &[Update<f64>],
    ) {
        for u in updates {
            let a = &mut accums[(u.dst - base) as usize];
            a.log1 += u.payload.ln();
            a.log0 += (1.0 - u.payload).ln();
        }
    }

    fn end_iteration(&mut self, iter: u32, _agg: &IterationAggregates) -> Control {
        if iter + 1 >= self.iterations {
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
    use chaos_graph::reference::belief_propagation as oracle_bp;
    use chaos_graph::{builder, RmatConfig};

    fn check(g: &chaos_graph::InputGraph, seed: u64, iters: u32) {
        let res = run_sequential(BeliefPropagation::new(seed, iters), g, iters + 1);
        let want = oracle_bp(g, seed, iters);
        for (v, (got, w)) in res.states.iter().zip(want.iter()).enumerate() {
            assert!(
                (got - w).abs() <= 1e-6,
                "vertex {v}: got {got} want {w}"
            );
        }
    }

    #[test]
    fn matches_oracle() {
        check(&builder::gnm(50, 200, false, 2), 7, 5);
        check(&builder::cycle(9), 1, 4);
        check(&RmatConfig::paper(7).generate(), 13, 3);
    }

    #[test]
    fn beliefs_stay_probabilities() {
        let g = builder::gnm(30, 120, false, 8);
        let res = run_sequential(BeliefPropagation::new(5, 6), &g, 7);
        assert!(res.states.iter().all(|b| (0.0..=1.0).contains(b)));
    }
}
