//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded by the benchmark around its calls into each
//! crate's public API (the program itself carries no instrumentation):
//! name, start, end and parent. They stay in memory until the pass
//! ends; [`Tracer::finish`] then derives per-span self time — the
//! span's duration minus the part of it covered by its children.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One recorded span; times are seconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `core.controller.conn_create`.
    pub name: &'static str,
    /// Start time.
    pub start: f64,
    /// End time (`start` while the span is open).
    pub end: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
}

impl Span {
    /// Wall duration.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans against one monotonic clock.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let start = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span. Returns its
    /// duration.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order.
    pub fn end(&mut self, id: SpanId) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        let end = self.now();
        let span = &mut self.spans[id];
        span.end = end;
        span.duration()
    }

    /// Runs `f` inside a span named `name`, returning its result.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Records an already-measured interval as a closed child of the
    /// innermost open span (for intervals timed on another thread).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let start = start.saturating_duration_since(self.t0).as_secs_f64();
        let end = end.saturating_duration_since(self.t0).as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.open.last().copied(),
        });
    }

    /// Ends the pass: every span with its self time.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open.
    pub fn finish(self) -> Trace {
        assert!(self.open.is_empty(), "trace finished with open spans");
        let self_s = self_times(&self.spans);
        Trace {
            spans: self.spans,
            self_s,
        }
    }
}

/// A finished pass.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Spans in start order.
    pub spans: Vec<Span>,
    /// Self time of each span, aligned with `spans`.
    pub self_s: Vec<f64>,
}

/// Per-name aggregate of a [`Trace`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameStats {
    /// Spans with this name.
    pub count: usize,
    /// Sum of their durations.
    pub total_s: f64,
    /// Sum of their self times.
    pub self_s: f64,
}

impl Trace {
    /// Durations of every span named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Self times of every span named `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(&self.self_s)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| t)
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameStats> {
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (s, &own) in self.spans.iter().zip(&self.self_s) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += s.duration();
            e.self_s += own;
        }
        out
    }

    /// Share of the root spans' wall time not covered by any child
    /// span: time the trace cannot attribute to a layer.
    pub fn unaccounted_frac(&self) -> f64 {
        let (mut wall, mut own) = (0.0, 0.0);
        for (s, &t) in self.spans.iter().zip(&self.self_s) {
            if s.parent.is_none() {
                wall += s.duration();
                own += t;
            }
        }
        if wall > 0.0 {
            own / wall
        } else {
            0.0
        }
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent. Overlapping
/// children (e.g. intervals timed on two client threads) are counted
/// once.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| (s.duration() - covered(kids)).max(0.0))
        .collect()
}

/// Length of the union of `intervals` (sorted in place).
fn covered(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(a, b) in intervals.iter() {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("a.inner", 2.0, 3.0, Some(1)),
            span("b", 5.0, 6.0, Some(0)),
        ];
        let own = self_times(&spans);
        assert!(close(own[0], 6.0), "{own:?}");
        assert!(close(own[1], 2.0), "{own:?}");
        assert!(close(own[2], 1.0), "{own:?}");
        assert!(close(own[3], 1.0), "{own:?}");
    }

    #[test]
    fn overlapping_children_count_their_union() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("c1", 1.0, 5.0, Some(0)),
            span("c2", 3.0, 7.0, Some(0)),
            span("c3", 6.5, 8.0, Some(0)),
            // Sticks out past the parent: only the inside part counts.
            span("c4", 9.0, 12.0, Some(0)),
        ];
        let own = self_times(&spans);
        // Union inside the root: [1, 8] ∪ [9, 10] = 8.
        assert!(close(own[0], 2.0), "{own:?}");
        assert!(close(own[4], 3.0), "{own:?}");
    }

    #[test]
    fn tracer_records_parents_and_aggregates() {
        let mut t = Tracer::new();
        let root = t.begin("root");
        t.span("layer", || std::hint::black_box(1 + 1));
        let inner = t.begin("layer");
        t.span("leaf", || ());
        t.end(inner);
        t.end(root);
        let trace = t.finish();
        assert_eq!(trace.spans.len(), 4);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[3].parent, Some(2));
        let by = trace.by_name();
        assert_eq!(by["layer"].count, 2);
        assert_eq!(by["leaf"].count, 1);
        let f = trace.unaccounted_frac();
        assert!((0.0..=1.0).contains(&f), "{f}");
        for (s, own) in trace.spans.iter().zip(&trace.self_s) {
            assert!(*own <= s.duration() + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn out_of_order_close_panics() {
        let mut t = Tracer::new();
        let a = t.begin("a");
        let _b = t.begin("b");
        t.end(a);
    }
}
