//! Minimal, offline stand-in for the [`criterion`] API subset this workspace
//! uses: `criterion_group!` / `criterion_main!`, benchmark groups with
//! `sample_size` and `throughput`, `bench_function` / `bench_with_input`, and
//! `black_box`.
//!
//! The build environment has no network access, so the real crate cannot be
//! fetched. This shim measures wall-clock time per iteration (after a short
//! warm-up), reports mean / best times and derived throughput, and prints a
//! plain-text table; its JSON report adds the median and the 10th / 90th
//! percentiles of the samples. There is no statistical outlier analysis,
//! HTML report, or baseline comparison.
//!
//! [`criterion`]: https://crates.io/crates/criterion

#![deny(missing_docs)]

use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished benchmark, as recorded for the machine-readable report.
#[derive(Debug, Clone)]
struct BenchRecord {
    group: String,
    label: String,
    mean_ns: u128,
    best_ns: u128,
    samples: usize,
    /// Median, 10th and 90th percentile of the samples.
    median_ns: u128,
    p10_ns: u128,
    p90_ns: u128,
    throughput: Option<Throughput>,
}

/// The `q`-quantile of ascending `sorted_ns`, interpolated linearly between
/// the closest ranks (the NumPy / R default), rounded to whole nanoseconds.
fn quantile_ns(sorted_ns: &[u128], q: f64) -> u128 {
    let pos = q * (sorted_ns.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let (a, b) = (sorted_ns[lo] as f64, sorted_ns[hi] as f64);
    (a + (b - a) * (pos - lo as f64)).round() as u128
}

/// Process-wide registry of finished benchmarks, drained by
/// [`write_json_report`] at the end of the bench binary.
static RECORDS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Writes every benchmark recorded so far to `BENCH_<name>.json` in the
/// working directory (or `$OPTWIN_BENCH_JSON_DIR` when set), so the perf
/// trajectory can be tracked across revisions. Called automatically by the
/// [`criterion_main!`] expansion; harmless to call with no records.
pub fn write_json_report(name: &str) {
    let records = RECORDS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if records.is_empty() {
        return;
    }
    let dir = std::env::var("OPTWIN_BENCH_JSON_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join(format!("BENCH_{name}.json"));
    let mut body = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in records.iter().enumerate() {
        let mean_secs = r.mean_ns as f64 / 1e9;
        let mut entry = format!(
            "    {{\"group\": \"{}\", \"name\": \"{}\", \"mean_ns\": {}, \"best_ns\": {}, \"samples\": {}, \"median_ns\": {}, \"p10_ns\": {}, \"p90_ns\": {}",
            json_escape(&r.group),
            json_escape(&r.label),
            r.mean_ns,
            r.best_ns,
            r.samples,
            r.median_ns,
            r.p10_ns,
            r.p90_ns
        );
        match r.throughput {
            Some(Throughput::Elements(n)) => {
                let rate = if mean_secs > 0.0 {
                    n as f64 / mean_secs
                } else {
                    0.0
                };
                entry.push_str(&format!(", \"elements\": {n}, \"elem_per_sec\": {rate:.1}"));
            }
            Some(Throughput::Bytes(n)) => {
                let rate = if mean_secs > 0.0 {
                    n as f64 / mean_secs
                } else {
                    0.0
                };
                entry.push_str(&format!(", \"bytes\": {n}, \"bytes_per_sec\": {rate:.1}"));
            }
            None => {}
        }
        entry.push('}');
        if i + 1 < records.len() {
            entry.push(',');
        }
        entry.push('\n');
        body.push_str(&entry);
    }
    body.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("machine-readable report: {}", path.display());
    }
}

/// Opaque black box preventing the optimiser from deleting a computation.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Work-per-iteration annotation used to derive throughput numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// The benchmark processes this many logical elements per iteration.
    Elements(u64),
    /// The benchmark processes this many bytes per iteration.
    Bytes(u64),
}

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Creates an id from a function name and a parameter.
    pub fn new(name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        Self {
            label: format!("{name}/{parameter}"),
        }
    }

    /// Creates an id from a parameter alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self {
            label: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        Self { label: s }
    }
}

/// Drives the timed iterations of one benchmark.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Runs `routine` repeatedly, recording one wall-clock sample per run.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: fill caches and trigger lazy initialisation.
        for _ in 0..2 {
            black_box(routine());
        }
        self.samples.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            black_box(routine());
            self.samples.push(start.elapsed());
        }
    }
}

fn format_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.3} s", nanos as f64 / 1e9)
    }
}

fn report(group: &str, label: &str, samples: &[Duration], throughput: Option<Throughput>) {
    if samples.is_empty() {
        println!("{group}/{label}: no samples recorded");
        return;
    }
    let total: Duration = samples.iter().sum();
    let mean = total / samples.len() as u32;
    let best = *samples.iter().min().expect("non-empty");
    let mut line = format!(
        "{group}/{label}: mean {} (best {}, {} samples)",
        format_duration(mean),
        format_duration(best),
        samples.len()
    );
    if let Some(tp) = throughput {
        let per_sec = |units: u64| {
            let secs = mean.as_secs_f64();
            if secs > 0.0 {
                units as f64 / secs
            } else {
                f64::INFINITY
            }
        };
        match tp {
            Throughput::Elements(n) => {
                line.push_str(&format!(", {:.3} Melem/s", per_sec(n) / 1e6));
            }
            Throughput::Bytes(n) => {
                line.push_str(&format!(", {:.3} MiB/s", per_sec(n) / (1024.0 * 1024.0)));
            }
        }
    }
    println!("{line}");
    let mut sorted_ns: Vec<u128> = samples.iter().map(Duration::as_nanos).collect();
    sorted_ns.sort_unstable();
    RECORDS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push(BenchRecord {
            group: group.to_string(),
            label: label.to_string(),
            mean_ns: mean.as_nanos(),
            best_ns: best.as_nanos(),
            samples: samples.len(),
            median_ns: quantile_ns(&sorted_ns, 0.5),
            p10_ns: quantile_ns(&sorted_ns, 0.1),
            p90_ns: quantile_ns(&sorted_ns, 0.9),
            throughput,
        });
}

/// A named collection of related benchmarks sharing settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declares the per-iteration work for throughput reporting.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut bencher);
        report(&self.name, &id.label, &bencher.samples, self.throughput);
        self
    }

    /// Runs one parameterised benchmark in this group.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut bencher, input);
        report(&self.name, &id.label, &bencher.samples, self.throughput);
        self
    }

    /// Ends the group (kept for API parity; prints a separator).
    pub fn finish(&mut self) {
        println!();
    }
}

/// Top-level benchmark driver.
pub struct Criterion {
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            default_sample_size: 10,
        }
    }
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = self.default_sample_size;
        BenchmarkGroup {
            name: name.into(),
            sample_size,
            throughput: None,
            _criterion: self,
        }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.benchmark_group("bench").bench_function(id, f);
        self
    }
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark binary's `main`, mirroring criterion's macro.
///
/// On top of running the groups, the expansion writes every recorded result
/// to `BENCH_<crate name>.json` (for a `[[bench]]` target the crate name *is*
/// the bench name), giving each bench binary a machine-readable twin of its
/// text report.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::write_json_report(env!("CARGO_CRATE_NAME"));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_group_runs_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("smoke");
        group.sample_size(3).throughput(Throughput::Elements(100));
        let mut runs = 0u32;
        group.bench_function("count", |b| {
            b.iter(|| {
                runs += 1;
                black_box(runs)
            });
        });
        group.bench_with_input(BenchmarkId::from_parameter(7), &7u32, |b, &x| {
            b.iter(|| black_box(x * 2));
        });
        group.finish();
        // 2 warm-up + 3 timed iterations.
        assert_eq!(runs, 5);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(Duration::from_nanos(500)), "500 ns");
        assert!(format_duration(Duration::from_micros(12)).contains("µs"));
        assert!(format_duration(Duration::from_millis(12)).contains("ms"));
        assert!(format_duration(Duration::from_secs(2)).ends_with(" s"));
    }

    #[test]
    fn benchmark_ids() {
        assert_eq!(BenchmarkId::new("f", 32).label, "f/32");
        assert_eq!(BenchmarkId::from_parameter("x").label, "x");
        assert_eq!(BenchmarkId::from("abc").label, "abc");
    }

    #[test]
    fn json_report_written_with_rates() {
        let dir = std::env::temp_dir().join("criterion_shim_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("OPTWIN_BENCH_JSON_DIR", &dir);
        report(
            "g",
            "fast \"path\"",
            &[Duration::from_micros(10), Duration::from_micros(20)],
            Some(Throughput::Elements(1_500)),
        );
        report(
            "g",
            "bytes",
            &[Duration::from_micros(10)],
            Some(Throughput::Bytes(4_096)),
        );
        write_json_report("unit_test");
        std::env::remove_var("OPTWIN_BENCH_JSON_DIR");
        let body = std::fs::read_to_string(dir.join("BENCH_unit_test.json")).unwrap();
        assert!(body.contains("\"group\": \"g\""));
        assert!(body.contains("fast \\\"path\\\""));
        assert!(body.contains("\"elements\": 1500"));
        assert!(body.contains("\"elem_per_sec\""));
        assert!(body.contains("\"bytes_per_sec\""));
        // The mean of 10 µs and 20 µs is 15 µs -> 1e8 elem/s.
        assert!(body.contains("\"mean_ns\": 15000"));
        // Percentiles interpolate between the two samples; a single sample
        // is its own median and percentiles.
        assert!(body.contains(
            "\"samples\": 2, \"median_ns\": 15000, \"p10_ns\": 11000, \"p90_ns\": 19000"
        ));
        assert!(body.contains(
            "\"samples\": 1, \"median_ns\": 10000, \"p10_ns\": 10000, \"p90_ns\": 10000"
        ));
    }
}
