//! Correctness gate: every cell's final states against its
//! `chaos_graph::reference` oracle, with the tolerances the repository's
//! own end-to-end tests (`tests/algorithms.rs`) use.

use chaos_algos::bfs::Bfs;
use chaos_algos::bp::BeliefPropagation;
use chaos_algos::conductance::{self, Conductance};
use chaos_algos::mcst::Mcst;
use chaos_algos::mis::{self, Mis};
use chaos_algos::pagerank::Pagerank;
use chaos_algos::scc::{self, Scc};
use chaos_algos::spmv::{self, Spmv};
use chaos_algos::sssp::Sssp;
use chaos_algos::wcc::Wcc;
use chaos_algos::AlgoParams;
use chaos_core::RunReport;
use chaos_gas::GasProgram;
use chaos_graph::{reference, InputGraph};

/// A program whose distributed result the benchmark can check.
pub trait Checked: GasProgram {
    /// `Ok` when `states` (and the report's aggregates) match the oracle
    /// computed on `g`; otherwise the first mismatch.
    fn check(
        &self,
        params: &AlgoParams,
        g: &InputGraph,
        rep: &RunReport,
        states: &[Self::VertexState],
    ) -> Result<(), String>;
}

/// Relative-tolerance comparison, as in the integration tests.
fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * b.abs().max(1.0)
}

fn same_len<S>(states: &[S], g: &InputGraph) -> Result<(), String> {
    if states.len() as u64 == g.num_vertices {
        Ok(())
    } else {
        Err(format!(
            "{} states for {} vertices",
            states.len(),
            g.num_vertices
        ))
    }
}

/// The first index where `ok` fails, as an error.
fn all_close<T, U>(got: &[T], want: &[U], ok: impl Fn(&T, &U) -> bool) -> Result<(), String>
where
    T: std::fmt::Debug,
    U: std::fmt::Debug,
{
    match got.iter().zip(want).position(|(g, w)| !ok(g, w)) {
        None => Ok(()),
        Some(v) => Err(format!("vertex {v}: {:?} vs oracle {:?}", got[v], want[v])),
    }
}

impl Checked for Bfs {
    fn check(
        &self,
        p: &AlgoParams,
        g: &InputGraph,
        _: &RunReport,
        s: &[u32],
    ) -> Result<(), String> {
        same_len(s, g)?;
        let want = reference::bfs_levels(g, p.root);
        all_close(s, &want, |a, b| {
            *a == if *b == reference::UNREACHED {
                u32::MAX
            } else {
                *b
            }
        })
    }
}

impl Checked for Wcc {
    fn check(
        &self,
        _: &AlgoParams,
        g: &InputGraph,
        _: &RunReport,
        s: &[(u64, bool)],
    ) -> Result<(), String> {
        same_len(s, g)?;
        let want = reference::weakly_connected_components(g);
        all_close(s, &want, |a, b| a.0 == *b)
    }
}

impl Checked for Sssp {
    fn check(
        &self,
        p: &AlgoParams,
        g: &InputGraph,
        _: &RunReport,
        s: &[(f32, bool)],
    ) -> Result<(), String> {
        same_len(s, g)?;
        let want = reference::dijkstra(g, p.root);
        all_close(s, &want, |a, b| {
            if b.is_infinite() {
                a.0.is_infinite()
            } else {
                close(f64::from(a.0), f64::from(*b), 1e-4)
            }
        })
    }
}

impl Checked for Mcst {
    fn check(
        &self,
        _: &AlgoParams,
        g: &InputGraph,
        rep: &RunReport,
        s: &[Self::VertexState],
    ) -> Result<(), String> {
        same_len(s, g)?;
        let got = Mcst::total_weight(&rep.iteration_aggs);
        let want = reference::minimum_spanning_forest_weight(g);
        if close(got, want, 1e-4) {
            Ok(())
        } else {
            Err(format!("forest weight {got} vs oracle {want}"))
        }
    }
}

impl Checked for Mis {
    fn check(
        &self,
        p: &AlgoParams,
        g: &InputGraph,
        _: &RunReport,
        s: &[(u32, bool)],
    ) -> Result<(), String> {
        same_len(s, g)?;
        let got: Vec<bool> = s.iter().map(|x| x.0 == mis::IN).collect();
        if !reference::is_maximal_independent_set(g, &got) {
            return Err("not a maximal independent set".into());
        }
        all_close(&got, &reference::luby_mis(g, p.seed), |a, b| a == b)
    }
}

impl Checked for Pagerank {
    fn check(
        &self,
        p: &AlgoParams,
        g: &InputGraph,
        rep: &RunReport,
        s: &[(f32, u32)],
    ) -> Result<(), String> {
        same_len(s, g)?;
        if rep.iterations != p.pr_iterations {
            return Err(format!(
                "{} iterations, want {}",
                rep.iterations, p.pr_iterations
            ));
        }
        let want = reference::pagerank(g, p.pr_iterations);
        all_close(s, &want, |a, b| close(f64::from(a.0), *b, 1e-3))
    }
}

impl Checked for Scc {
    fn check(
        &self,
        _: &AlgoParams,
        g: &InputGraph,
        _: &RunReport,
        s: &[(u64, u64, bool)],
    ) -> Result<(), String> {
        same_len(s, g)?;
        let got: Vec<u64> = s.iter().map(|x| x.1).collect();
        let want = scc::normalize_partition(&reference::strongly_connected_components(g));
        all_close(&scc::normalize_partition(&got), &want, |a, b| a == b)
    }
}

impl Checked for Conductance {
    fn check(
        &self,
        p: &AlgoParams,
        g: &InputGraph,
        rep: &RunReport,
        s: &[(bool, u32, u32)],
    ) -> Result<(), String> {
        same_len(s, g)?;
        let last = rep.iteration_aggs.last().ok_or("no iteration ran")?;
        let got = Conductance::counts(last);
        let want = reference::conductance_counts(g, |v| conductance::in_set(v, p.seed));
        if got == want {
            Ok(())
        } else {
            Err(format!("side counts {got:?} vs oracle {want:?}"))
        }
    }
}

impl Checked for Spmv {
    fn check(
        &self,
        p: &AlgoParams,
        g: &InputGraph,
        _: &RunReport,
        s: &[(f32, f32)],
    ) -> Result<(), String> {
        same_len(s, g)?;
        let x: Vec<f64> = (0..g.num_vertices)
            .map(|v| spmv::input_entry(v, p.seed))
            .collect();
        let want = reference::spmv(g, &x);
        all_close(s, &want, |a, b| close(f64::from(a.1), *b, 1e-3))
    }
}

impl Checked for BeliefPropagation {
    fn check(
        &self,
        p: &AlgoParams,
        g: &InputGraph,
        _: &RunReport,
        s: &[f64],
    ) -> Result<(), String> {
        same_len(s, g)?;
        let want = reference::belief_propagation(g, p.seed, p.bp_iterations);
        all_close(s, &want, |a, b| (a - b).abs() < 1e-6)
    }
}
