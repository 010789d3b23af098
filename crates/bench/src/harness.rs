//! Minimal benchmark harness: warmup, auto-calibrated batching, and
//! min/median/mean reporting — dependency-free so the bench targets build
//! in hermetic environments.
//!
//! Fast operations (µs-scale) are batched so each sample spans at least a
//! millisecond; slow ones (the end-to-end optimizer) time single calls.
//! Where `/proc/self/stat` is readable, each row also records the minor
//! page faults per iteration, so a timing change can be told apart from a
//! change in how the heap lays out.

use ampsinf_model::json::Json;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One benchmark's timing summary, in seconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark id, e.g. `optimize/vgg16/threads=2`.
    pub name: String,
    /// Timed samples collected.
    pub samples: usize,
    /// Iterations per sample (batched for fast operations).
    pub inner_iters: usize,
    /// Fastest sample.
    pub min_s: f64,
    /// Median sample.
    pub median_s: f64,
    /// Mean over all samples.
    pub mean_s: f64,
    /// Work items (e.g. simulated requests) each iteration processes;
    /// 0 when the benchmark has no natural item count.
    pub items: usize,
    /// Minor page faults per timed iteration, process-wide; `None` when
    /// `/proc/self/stat` is unreadable.
    pub minflt_per_iter: Option<f64>,
}

impl BenchResult {
    /// Items per second at the median, when `items` is set.
    pub fn throughput_req_s(&self) -> Option<f64> {
        (self.items > 0 && self.median_s > 0.0).then(|| self.items as f64 / self.median_s)
    }
}

/// Collects benchmark results and renders them.
#[derive(Debug, Default)]
pub struct Bencher {
    results: Vec<BenchResult>,
}

impl Bencher {
    /// Creates an empty bencher.
    pub fn new() -> Self {
        Bencher {
            results: Vec::new(),
        }
    }

    /// Times `f`, collecting `samples` measurements after one warmup call.
    /// The warmup also calibrates batching: calls faster than ~1 ms are
    /// repeated until each sample spans at least that long.
    pub fn bench<T>(&mut self, name: &str, samples: usize, f: impl FnMut() -> T) {
        self.bench_items(name, samples, 0, f);
    }

    /// [`bench`](Bencher::bench) for throughput benchmarks: `items` is
    /// how many work items (requests, images, …) one iteration
    /// processes, and the report derives `throughput_req_s` =
    /// `items / median_s` from it.
    pub fn bench_items<T>(
        &mut self,
        name: &str,
        samples: usize,
        items: usize,
        mut f: impl FnMut() -> T,
    ) {
        assert!(samples > 0, "need at least one sample");
        let warm = Instant::now();
        black_box(f());
        let once = warm.elapsed();
        let floor = Duration::from_millis(1);
        let inner_iters = if once < floor {
            (floor.as_nanos() / once.as_nanos().max(1) + 1) as usize
        } else {
            1
        };
        let mut times = Vec::with_capacity(samples);
        let faults_before = minor_faults();
        for _ in 0..samples {
            let t = Instant::now();
            for _ in 0..inner_iters {
                black_box(f());
            }
            times.push(t.elapsed().as_secs_f64() / inner_iters as f64);
        }
        let minflt_per_iter = faults_before
            .zip(minor_faults())
            .map(|(before, after)| (after - before) as f64 / (samples * inner_iters) as f64);
        times.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let result = BenchResult {
            name: name.to_string(),
            samples,
            inner_iters,
            min_s: times[0],
            median_s: times[times.len() / 2],
            mean_s: times.iter().sum::<f64>() / times.len() as f64,
            items,
            minflt_per_iter,
        };
        let throughput = match result.throughput_req_s() {
            Some(t) => format!("  {:>10.0} req/s", t),
            None => String::new(),
        };
        let faults = match result.minflt_per_iter {
            Some(f) => format!("  {f:>8.1} flt/it"),
            None => String::new(),
        };
        println!(
            "{:<44} min {:>10}  median {:>10}  mean {:>10}  ({} x {}){throughput}{faults}",
            result.name,
            fmt_time(result.min_s),
            fmt_time(result.median_s),
            fmt_time(result.mean_s),
            result.samples,
            result.inner_iters,
        );
        self.results.push(result);
    }

    /// All collected results.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Renders results as a JSON document (median is the headline number).
    pub fn to_json(&self) -> String {
        let entries: Vec<Json> = self
            .results
            .iter()
            .map(|r| {
                let mut fields = vec![
                    ("name".into(), Json::from(r.name.as_str())),
                    ("samples".into(), Json::from(r.samples)),
                    ("inner_iters".into(), Json::from(r.inner_iters)),
                    ("min_s".into(), Json::Num(r.min_s)),
                    ("median_s".into(), Json::Num(r.median_s)),
                    ("mean_s".into(), Json::Num(r.mean_s)),
                ];
                if let Some(t) = r.throughput_req_s() {
                    fields.push(("items".into(), Json::from(r.items)));
                    fields.push(("throughput_req_s".into(), Json::Num(t)));
                }
                if let Some(f) = r.minflt_per_iter {
                    fields.push(("minflt_per_iter".into(), Json::Num(f)));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![("benchmarks".into(), Json::Arr(entries))]).render_pretty()
    }

    /// Compares collected medians against a previously recorded report (the
    /// format written by [`to_json`](Bencher::to_json)), printing the
    /// per-benchmark speedup factor. The baseline path comes from the
    /// `BENCH_BASELINE` environment variable, falling back to `default_path`;
    /// a missing or unreadable baseline silently skips the comparison.
    /// Returns whether a comparison was printed.
    pub fn compare_with_baseline(&self, default_path: &str) -> bool {
        let path = std::env::var("BENCH_BASELINE").unwrap_or_else(|_| default_path.to_string());
        let Ok(text) = std::fs::read_to_string(&path) else {
            return false;
        };
        let Ok(doc) = Json::parse(&text) else {
            println!("baseline {path}: unparseable, skipping comparison");
            return false;
        };
        let mut prior: Vec<(String, f64)> = Vec::new();
        if let Some(entries) = doc.get("benchmarks").and_then(Json::as_array) {
            for e in entries {
                if let (Some(name), Some(median)) = (
                    e.get("name").and_then(Json::as_str),
                    e.get("median_s").and_then(Json::as_f64),
                ) {
                    prior.push((name.to_string(), median));
                }
            }
        }
        if prior.is_empty() {
            return false;
        }
        println!("\nvs baseline {path} (median, baseline -> current):");
        for r in &self.results {
            match prior.iter().find(|(n, _)| *n == r.name) {
                Some((_, old)) if *old > 0.0 && r.median_s > 0.0 => {
                    println!(
                        "{:<44} {:>10} -> {:>10}  {:>8.2}x",
                        r.name,
                        fmt_time(*old),
                        fmt_time(r.median_s),
                        old / r.median_s
                    );
                }
                _ => println!("{:<44} (no baseline entry)", r.name),
            }
        }
        true
    }

    /// Writes the JSON report to the path named by the `BENCH_OUT`
    /// environment variable, if set. Returns whether a file was written.
    pub fn write_json_if_requested(&self) -> bool {
        match std::env::var_os("BENCH_OUT") {
            Some(path) => {
                std::fs::write(&path, self.to_json()).expect("write BENCH_OUT");
                println!("wrote {}", path.to_string_lossy());
                true
            }
            None => false,
        }
    }
}

/// The process's minor page faults so far: field 10 of
/// `/proc/self/stat`, counted after the parenthesized command name (which
/// may itself hold spaces). `None` where the file is unreadable.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let (_, fields) = stat.rsplit_once(')')?;
    fields.split_whitespace().nth(7)?.parse().ok()
}

/// Human-friendly duration formatting.
fn fmt_time(s: f64) -> String {
    if s < 1e-6 {
        format!("{:.1}ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.2}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.3}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_collects_sane_stats() {
        let mut b = Bencher::new();
        let mut counter = 0u64;
        b.bench("noop", 5, || {
            counter += 1;
            counter
        });
        let r = &b.results()[0];
        assert_eq!(r.samples, 5);
        assert!(r.inner_iters >= 1);
        assert!(r.min_s <= r.median_s && r.median_s <= r.mean_s * 5.0);
        assert!(r.min_s > 0.0);
    }

    #[test]
    fn json_shape() {
        let mut b = Bencher::new();
        b.bench("x", 2, || 1 + 1);
        let j = b.to_json();
        assert!(j.contains("\"benchmarks\""));
        assert!(j.contains("\"median_s\""));
        // No item count → no derived throughput field.
        assert!(!j.contains("throughput_req_s"));
    }

    #[test]
    fn item_benchmarks_derive_throughput() {
        let mut b = Bencher::new();
        b.bench_items("tp", 3, 1000, || std::hint::black_box(7u64 * 6));
        let r = &b.results()[0];
        assert_eq!(r.items, 1000);
        let t = r.throughput_req_s().expect("items set");
        assert!((t - 1000.0 / r.median_s).abs() < 1e-9);
        let j = b.to_json();
        assert!(j.contains("\"items\""));
        assert!(j.contains("\"throughput_req_s\""));
    }

    #[test]
    fn baseline_comparison_round_trips() {
        let mut b = Bencher::new();
        b.bench("roundtrip", 2, || 1 + 1);
        let path = std::env::temp_dir().join("ampsinf_bench_baseline_test.json");
        std::fs::write(&path, b.to_json()).unwrap();
        assert!(b.compare_with_baseline(path.to_str().unwrap()));
        std::fs::remove_file(&path).ok();
        assert!(!b.compare_with_baseline("/nonexistent/baseline.json"));
    }

    #[test]
    fn rows_record_minor_faults_when_proc_is_readable() {
        let mut b = Bencher::new();
        b.bench("faults", 2, || vec![1u8; 1 << 20].len());
        let r = &b.results()[0];
        match minor_faults() {
            Some(_) => {
                assert!(r.minflt_per_iter.is_some_and(|f| f >= 0.0));
                assert!(b.to_json().contains("\"minflt_per_iter\""));
            }
            None => {
                assert!(r.minflt_per_iter.is_none());
                assert!(!b.to_json().contains("minflt_per_iter"));
            }
        }
    }

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_time(2.5e-9), "2.5ns");
        assert_eq!(fmt_time(2.5e-6), "2.50us");
        assert_eq!(fmt_time(2.5e-3), "2.50ms");
        assert_eq!(fmt_time(2.5), "2.500s");
    }
}
