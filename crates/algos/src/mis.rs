//! Maximal Independent Set: Luby's algorithm in two GAS iterations per
//! round.
//!
//! Round `r` consists of a *select* iteration (undecided vertices exchange
//! hash priorities; local minima join the set) followed by a *notify*
//! iteration (fresh members knock their undecided neighbors out). The
//! priority function is shared with the oracle in
//! `chaos_graph::reference::mis`, so results match exactly.

use chaos_gas::{ActivityModel, Control, GasProgram, IterationAggregates, Update, UpdateSink};
use chaos_graph::reference::luby_priority;
use chaos_graph::{Edge, VertexId};

/// Vertex status: still competing.
pub const UNDECIDED: u32 = 0;
/// Vertex status: in the MIS.
pub const IN: u32 = 1;
/// Vertex status: excluded (has a member neighbor).
pub const OUT: u32 = 2;

/// Which half of a Luby round the program is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Select,
    Notify,
}

/// Luby MIS over the undirected graph.
#[derive(Debug, Clone)]
pub struct Mis {
    seed: u64,
    phase: Phase,
    round: u32,
}

impl Mis {
    /// MIS with priorities derived from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            phase: Phase::Select,
            round: 0,
        }
    }
}

/// Accumulator serving both phases: the minimum `(priority, id)` among
/// undecided neighbors (select) and whether a fresh member neighbor exists
/// (notify).
#[derive(Debug, Clone, Copy, Default)]
pub struct MisAccum {
    /// Minimum `(priority, vertex)` among competing neighbors.
    pub min_rival: Option<(u64, u64)>,
    /// A fresh MIS member is adjacent.
    pub blocked: bool,
}

impl GasProgram for Mis {
    /// `(status, fresh)`: `fresh` marks members that joined this round.
    type VertexState = (u32, bool);
    /// `(priority, vertex id)` in select; ignored content in notify.
    type Update = (u64, u64);
    type Accum = MisAccum;

    fn name(&self) -> &'static str {
        "MIS"
    }

    fn needs_undirected(&self) -> bool {
        true
    }

    fn init(&self, _v: VertexId, _out_degree: u64) -> (u32, bool) {
        (UNDECIDED, false)
    }

    fn scatter(
        &self,
        v: VertexId,
        state: &(u32, bool),
        edge: &Edge,
        _iter: u32,
    ) -> Option<(u64, u64)> {
        if edge.src == edge.dst {
            return None; // Self-loops never constrain MIS membership.
        }
        match self.phase {
            Phase::Select => (state.0 == UNDECIDED)
                .then(|| (luby_priority(v, self.round, self.seed), u64::from(v))),
            Phase::Notify => (state.0 == IN && state.1).then_some((0, u64::from(v))),
        }
    }

    fn gather(
        &self,
        acc: &mut MisAccum,
        _dst: VertexId,
        dst_state: &(u32, bool),
        payload: &(u64, u64),
    ) {
        if dst_state.0 != UNDECIDED {
            return;
        }
        match self.phase {
            Phase::Select => {
                let rival = Some(*payload);
                if acc.min_rival.is_none() || rival < acc.min_rival {
                    acc.min_rival = rival;
                }
            }
            Phase::Notify => acc.blocked = true,
        }
    }

    fn merge(&self, into: &mut MisAccum, from: &MisAccum) {
        if into.min_rival.is_none() || (from.min_rival.is_some() && from.min_rival < into.min_rival)
        {
            into.min_rival = from.min_rival;
        }
        into.blocked |= from.blocked;
    }

    fn apply(&self, v: VertexId, state: &mut (u32, bool), acc: &MisAccum, _iter: u32) -> bool {
        match self.phase {
            Phase::Select => {
                if state.0 != UNDECIDED {
                    return false;
                }
                let mine = (luby_priority(v, self.round, self.seed), u64::from(v));
                let wins = match acc.min_rival {
                    None => true,
                    Some(rival) => mine < rival,
                };
                if wins {
                    *state = (IN, true);
                    true
                } else {
                    false
                }
            }
            Phase::Notify => {
                if state.0 == IN && state.1 {
                    state.1 = false; // No longer fresh.
                }
                if state.0 == UNDECIDED && acc.blocked {
                    state.0 = OUT;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn activity(&self) -> ActivityModel {
        ActivityModel::Shrinking
    }

    fn is_active(&self, _v: VertexId, state: &(u32, bool), _iter: u32) -> bool {
        match self.phase {
            Phase::Select => state.0 == UNDECIDED,
            Phase::Notify => state.0 == IN && state.1,
        }
    }

    fn edge_dead(&self, _v: VertexId, state: &(u32, bool), edge: &Edge, _iter: u32) -> bool {
        // OUT vertices never speak again; IN vertices speak exactly once
        // (the notify right after joining, while `fresh`). Self-loops
        // never constrain membership.
        edge.src == edge.dst || state.0 == OUT || (state.0 == IN && !state.1)
    }

    fn shrinks_now(&self, _iter: u32) -> bool {
        true
    }

    fn scatter_chunk<S: UpdateSink<(u64, u64)>>(
        &self,
        base: VertexId,
        states: &[(u32, bool)],
        edges: &[Edge],
        _iter: u32,
        out: &mut S,
    ) {
        // Phase test hoisted; the per-edge Luby hash stays (it is the
        // message payload).
        match self.phase {
            Phase::Select => {
                for e in edges {
                    if e.src != e.dst && states[(e.src - base) as usize].0 == UNDECIDED {
                        let priority = luby_priority(e.src, self.round, self.seed);
                        out.push(e.dst, (priority, u64::from(e.src)));
                    }
                }
            }
            Phase::Notify => {
                for e in edges {
                    let s = &states[(e.src - base) as usize];
                    if e.src != e.dst && s.0 == IN && s.1 {
                        out.push(e.dst, (0, u64::from(e.src)));
                    }
                }
            }
        }
    }

    fn gather_chunk(
        &self,
        base: VertexId,
        states: &[(u32, bool)],
        accums: &mut [MisAccum],
        updates: &[Update<(u64, u64)>],
    ) {
        match self.phase {
            Phase::Select => {
                for u in updates {
                    let off = (u.dst - base) as usize;
                    if states[off].0 != UNDECIDED {
                        continue;
                    }
                    let acc = &mut accums[off];
                    let rival = Some(u.payload);
                    if acc.min_rival.is_none() || rival < acc.min_rival {
                        acc.min_rival = rival;
                    }
                }
            }
            Phase::Notify => {
                for u in updates {
                    let off = (u.dst - base) as usize;
                    if states[off].0 == UNDECIDED {
                        accums[off].blocked = true;
                    }
                }
            }
        }
    }

    fn aggregate(&self, state: &(u32, bool)) -> [f64; 4] {
        [
            if state.0 == UNDECIDED { 1.0 } else { 0.0 },
            if state.0 == IN { 1.0 } else { 0.0 },
            0.0,
            0.0,
        ]
    }

    fn end_iteration(&mut self, _iter: u32, agg: &IterationAggregates) -> Control {
        match self.phase {
            Phase::Select => {
                self.phase = Phase::Notify;
                Control::Continue
            }
            Phase::Notify => {
                self.phase = Phase::Select;
                self.round += 1;
                if agg.custom[0] as u64 == 0 {
                    Control::Done
                } else {
                    Control::Continue
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_gas::run_sequential;
    use chaos_graph::reference::{is_maximal_independent_set, luby_mis};
    use chaos_graph::{builder, RmatConfig};

    fn check(g: &chaos_graph::InputGraph, seed: u64) {
        let res = run_sequential(Mis::new(seed), g, 10_000);
        let got: Vec<bool> = res.states.iter().map(|s| s.0 == IN).collect();
        assert!(
            res.states.iter().all(|s| s.0 != UNDECIDED),
            "all vertices decided"
        );
        assert!(is_maximal_independent_set(g, &got));
        assert_eq!(got, luby_mis(g, seed), "must match the oracle exactly");
    }

    #[test]
    fn matches_oracle_on_cliques() {
        check(&builder::complete(7).to_undirected(), 3);
        check(&builder::two_cliques(5), 4);
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        for seed in 0..4 {
            check(&builder::gnm(80, 300, false, seed).to_undirected(), seed + 10);
        }
        check(&RmatConfig::paper(7).generate().to_undirected(), 2);
    }

    #[test]
    fn empty_graph_takes_all() {
        let g = chaos_graph::InputGraph::new(6, vec![], false);
        let res = run_sequential(Mis::new(1), &g, 10);
        assert!(res.states.iter().all(|s| s.0 == IN));
    }
}
