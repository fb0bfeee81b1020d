//! In-memory span recorder for the traced run.
//!
//! A span holds a name, start and end (ns since the recorder was made),
//! its parent span and the cell it belongs to. Spans stay in memory and
//! are written out once, when the benchmark ends; self time is a span's
//! duration minus the time its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `cluster.run`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the workload cell, for spans inside one.
    pub cell: Option<usize>,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans when enabled; every call is a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span ([`Tracer::exit`] closes it).
#[must_use]
#[derive(Debug)]
pub struct Open(Option<usize>);

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, cell: Option<usize>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            cell,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::enter`].
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of nesting order.
    pub fn exit(&mut self, span: Open) {
        if let Some(id) = span.0 {
            assert_eq!(
                self.open.pop(),
                Some(id),
                "spans must close innermost first"
            );
            self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Closes every span left open after a panic unwound past its
    /// `exit` call, back to `depth` open spans.
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            let id = self.open.pop().expect("checked non-empty");
            self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Number of spans currently open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .sum::<f64>()
            + 0.0 // An empty sum is -0.0.
    }

    /// Self time of every span: duration minus its children's durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// The spans as JSON: one object per span plus per-name totals.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let own = self.self_ns();
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |x: Option<usize>| x.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {}, \"parent\": {}, \"cell\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                own[i],
                opt(s.parent),
                opt(s.cell),
                if i + 1 < self.spans.len() { "," } else { "" },
            );
        }
        out.push_str("], \"by_name\": {\n");
        let mut names: Vec<&str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        for (i, name) in names.iter().enumerate() {
            let (mut total, mut own_total, mut count) = (0u64, 0u64, 0u64);
            for (s, o) in self.spans.iter().zip(&own) {
                if s.name == *name {
                    total += s.dur_ns();
                    own_total += o;
                    count += 1;
                }
            }
            let _ = writeln!(
                out,
                "  \"{name}\": {{\"count\": {count}, \"total_ns\": {total}, \"self_ns\": {own_total}}}{}",
                if i + 1 < names.len() { "," } else { "" },
            );
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", None);
        let inner = t.enter("inner", Some(0));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let own = t.self_ns();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(own[0] + own[1], t.spans()[0].dur_ns());
        assert!(t.to_json("w", 1).contains("\"inner\": {\"count\": 1"));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.enter("x", None);
        t.exit(s);
        assert!(t.spans().is_empty());
    }
}
