//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Spans are kept in memory and written out once the run ends, so recording
//! one costs two clock reads and a push. Nothing inside the compiler or the
//! engine is instrumented; the program-reported per-operator times are
//! attached to the `engine.run` span as attributes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    /// Layer boundary the span wraps.
    pub name: &'static str,
    /// Job the span belongs to (`None` for per-run work such as setup).
    pub job: Option<u64>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Seconds since the tracer was created.
    pub start_s: f64,
    /// Seconds since the tracer was created.
    pub end_s: f64,
    /// Named values attached while the span was open.
    pub attrs: Vec<(String, f64)>,
}

impl Span {
    /// Wall seconds the span covers.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records spans while enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or not.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        job: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            job,
            parent: self.open.last().copied(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            attrs: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Attaches a value to the innermost open span.
    pub fn annotate(&mut self, key: impl Into<String>, value: f64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].attrs.push((key.into(), value));
        }
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the time its children
    /// cover (children of one parent never overlap).
    pub fn self_times(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::duration_s).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.duration_s();
            }
        }
        out
    }

    /// Self times grouped by span name.
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            by_name.entry(s.name).or_default().push(t);
        }
        by_name
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, (s, self_s)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"job\": {}, \"parent\": {}, \"start_s\": {}, \"end_s\": {}, \"self_s\": {self_s}, \"attrs\": {{",
                s.name,
                s.job.map_or("null".to_string(), |j| j.to_string()),
                opt(s.parent),
                s.start_s,
                s.end_s,
            );
            for (k, (key, v)) in s.attrs.iter().enumerate() {
                let sep = if k == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}\"{key}\": {v}");
            }
            out.push_str("}}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("outer", None, |t| {
            t.span("inner", Some(1), |t| t.annotate("k", 2.0));
            t.span("inner", Some(2), |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].attrs, vec![("k".to_string(), 2.0)]);
        let selfs = t.self_times();
        let children = spans[1].duration_s() + spans[2].duration_s();
        assert!((selfs[0] - (spans[0].duration_s() - children)).abs() < 1e-12);
        assert!(selfs.iter().all(|s| *s >= -1e-12));
        assert_eq!(t.to_json_lines().lines().count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", None, |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
