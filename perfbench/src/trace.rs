//! In-memory spans around the benchmark's calls into each layer's public
//! functions, written out once the run ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One timed call. Spans of one pass share `pass`; the pass's own span
/// (`name == "pass"`) is the parent of the others.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub pass: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// A count recorded at the same boundary (bytes written, for example).
    pub value: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn record(
        &mut self,
        name: &'static str,
        pass: u32,
        start: Instant,
        end: Instant,
        value: u64,
    ) {
        let span = Span {
            name,
            pass,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            value,
        };
        self.spans.push(span);
    }

    /// Spans named `name` whose pass satisfies `keep`.
    pub fn spans<'a>(
        &'a self,
        name: &'a str,
        keep: impl Fn(u32) -> bool + 'a,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name && keep(s.pass))
    }

    /// Writes one JSON object per span.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 80);
        for s in &self.spans {
            writeln!(
                text,
                "{{\"name\":\"{}\",\"pass\":{},\"start_ns\":{},\"end_ns\":{},\"value\":{}}}",
                s.name, s.pass, s.start_ns, s.end_ns, s.value
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, text)
    }
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The 99th percentile when at least ten samples lie beyond it, otherwise
/// the maximum.
pub fn p99_or_max(values: &[f64]) -> f64 {
    if values.len() >= 1_000 {
        quantile(values, 0.99)
    } else {
        quantile(values, 1.0)
    }
}
