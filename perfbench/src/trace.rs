//! Spans recorded around calls into the repository's public functions:
//! name, start, end and parent, kept in memory until the run ends.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ms: f64,
    pub end_ms: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ms(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_ms = self.now_ms();
        self.spans.push(Span {
            name: name.to_string(),
            start_ms,
            end_ms: start_ms,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ms = self.now_ms();
        out
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed duration of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.named(name).map(Span::ms).sum()
    }

    /// Durations of the spans named `name`, in the order they opened.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::ms).collect()
    }

    /// Summed duration of the spans without a parent.
    pub fn top_level_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::ms)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }

    #[test]
    fn nested_spans_are_not_top_level() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            busy(5);
            t.span("inner", |_| busy(20));
        });
        t.span("inner", |_| busy(1));
        let outer = t.total_ms("outer");
        let inner = t.durations("inner");
        assert_eq!(inner.len(), 2);
        assert!(inner[0] >= 20.0 && outer >= inner[0] + 5.0);
        assert_eq!(t.top_level_ms(), outer + inner[1]);
    }
}
