//! `ampsbench`: the end-to-end benchmark of AMPS-Inf planning and serving.
//!
//! ```text
//! ampsbench [run] --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//!                 [--out <run.json>] [--spans <spans.json>]
//! ampsbench compare <parent-runs-dir> <change-runs-dir>
//! ```
//!
//! A run sets its workload up several times (`setup_s` is the median),
//! then repeats the workload's operation for `--seconds` and prints every
//! end-to-end metric; with `--trace 1` it instead replays each layer inside
//! spans and prints every per-layer metric. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The process exits non-zero when any output check fails.

mod calib;
mod compare;
mod layers;
mod metrics;
mod stats;
mod sut;
mod trace;
mod workload;

use stats::{median, percentile};
use std::path::PathBuf;
use std::time::Instant;
use sut::Json;
use trace::Tracer;
use workload::{Kind, OpOut, Sizes, Workload};

const USAGE: &str = "usage:
  ampsbench [run] --workload <plan-mix|serve-chain|serve-dag|adaptive-faults> --seed <n>
                  [--seconds <s>] [--trace 0|1] [--out <run.json>] [--spans <spans.json>]
  ampsbench compare <parent-runs-dir> <change-runs-dir>";

/// Seconds measured when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

/// The tail percentile `op_ms_p95` reports: fixed, so that a faster
/// build, which fits more operations into a run, reports the same
/// percentile. The workload sizes leave at least ten operations beyond
/// it in a 20-second run on a machine at 60% of reference speed.
const TAIL_PERCENTILE: f64 = 95.0;

/// Share of `--seconds` a traced run spends on each of its two timed
/// loops (untraced, then traced); the layer replays take the rest.
const TRACED_LOOP_SHARE: f64 = 0.3;

/// Operations of the first pass re-run on every core to
/// check the determinism contract.
const THREAD_CHECK_OPS: usize = 4;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        _ => run_main(&args),
    };
    std::process::exit(code);
}

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
    pub spans: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let args = match args.first().map(String::as_str) {
        Some("run") => &args[1..],
        _ => args,
    };
    let mut kind = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut out = None;
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(|| bad("unknown workload"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                    .ok_or_else(|| bad("expected seconds in [0, 3600]"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out,
        spans,
    })
}

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct RunResult {
    pub cores: usize,
    /// Timed operations' milliseconds at reference speed, in run order.
    pub samples_ms: Vec<f64>,
    /// Median reference-task time of the run: the machine's speed.
    pub reference_ms: f64,
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    pub spans: Option<Json>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.metrics.iter().all(|(_, v)| v.is_finite())
    }
}

fn run_main(args: &[String]) -> i32 {
    let a = match parse_run(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    };
    let r = match run(&a, &Sizes::FULL) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    for e in &r.errors {
        eprintln!("check failed: {e}");
    }
    let (ops, tail) = (r.samples_ms.len(), TAIL_PERCENTILE);
    println!(
        "# ampsbench workload={} seed={} cores={} threads=1 reference_ms={:.3} trace={} ops={} \
         tail=p{tail} ({} ops beyond; highest supported {}) attempted={} failed={}",
        a.kind.name(),
        a.seed,
        r.cores,
        r.reference_ms,
        u8::from(a.trace),
        ops,
        stats::beyond(ops, tail),
        stats::highest_supported_percentile(ops).map_or("none".into(), |p| format!("p{p}")),
        r.attempted,
        r.failed,
    );
    if let Some(spans) = &r.spans {
        let path = a.spans.clone().unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("spans-{}-seed{}.json", a.kind.name(), a.seed))
        });
        if let Err(e) = write_json(&path, spans) {
            eprintln!("error: {e}");
            return 1;
        }
        println!("# spans: {}", path.display());
    }
    if let Some(path) = &a.out {
        if let Err(e) = write_json(path, &run_record(&a, &r)) {
            eprintln!("error: {e}");
            return 1;
        }
    }
    println!("{}", result_line(&r));
    i32::from(!r.correct())
}

fn write_json(path: &std::path::Path, j: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, j.render_pretty() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// The last line of standard output.
fn result_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|&(name, v)| {
            let unit = metrics::unit_of(name).unwrap_or("");
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// A metric value with all its digits (JSON has no NaN or infinity).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The `--out` record `compare` reads.
fn run_record(a: &RunArgs, r: &RunResult) -> Json {
    let num = |x: f64| Json::Num(x);
    Json::Obj(vec![
        ("workload".into(), Json::Str(a.kind.name().into())),
        ("seed".into(), num(a.seed as f64)),
        ("seconds".into(), num(a.seconds)),
        ("trace".into(), Json::Bool(a.trace)),
        ("cores".into(), num(r.cores as f64)),
        ("threads".into(), num(1.0)),
        ("reference_ms".into(), num(r.reference_ms)),
        ("correct".into(), Json::Bool(r.correct())),
        ("attempted".into(), num(r.attempted as f64)),
        ("failed".into(), num(r.failed as f64)),
        (
            "errors".into(),
            Json::Arr(r.errors.iter().map(|e| Json::Str(e.clone())).collect()),
        ),
        (
            "samples_ms".into(),
            Json::Arr(r.samples_ms.iter().map(|&x| num(x)).collect()),
        ),
        (
            "metrics".into(),
            Json::Obj(
                r.metrics
                    .iter()
                    .map(|&(k, v)| (k.to_string(), num(v)))
                    .collect(),
            ),
        ),
    ])
}

/// `VmRSS`, `VmHWM`, ... of this process from `/proc/self/status`, in KB.
pub fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Seconds `f` takes, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Operations of one timed loop: milliseconds at reference speed and
/// checked outputs.
struct Loop {
    ms: Vec<f64>,
    /// Reference-task milliseconds, one before the first operation and
    /// one after each.
    reference_ms: Vec<f64>,
    outs: Vec<Result<OpOut, String>>,
}

/// Runs operations for at least `seconds`, stopping only at a pass
/// boundary and never before two whole passes, so every input of the
/// pass is measured equally often and repeats at least once. The
/// reference task runs between operations, and each operation's time is
/// normalised by the mean of the runs on either side of it.
fn measure(w: &Workload, seconds: f64, mut tracer: Option<&mut Tracer>) -> Loop {
    let pass = w.pass_len();
    let start = Instant::now();
    let mut l = Loop {
        ms: Vec::new(),
        reference_ms: vec![calib::reference_ms()],
        outs: Vec::new(),
    };
    let mut i = 0;
    while i < 2 * pass || i % pass != 0 || start.elapsed().as_secs_f64() < seconds {
        let (out, secs) = match tracer.as_deref_mut() {
            Some(t) => t.span("op", "workload", 0, i, |_| timed(|| w.run_op(i)).0),
            None => timed(|| w.run_op(i)),
        };
        let before = l.reference_ms[i];
        let after = calib::reference_ms();
        l.reference_ms.push(after);
        l.ms.push(calib::normalise(secs * 1e3, (before + after) / 2.0));
        l.outs.push(out.and_then(|o| w.check_op(i, &o)));
        i += 1;
    }
    l
}

/// Tallies a loop's outputs into `r` and checks that each pass repeats
/// the first bit for bit. Returns the first pass's outputs.
fn check_loop(w: &Workload, l: &Loop, r: &mut RunResult) -> Vec<OpOut> {
    let pass = w.pass_len();
    r.attempted += l.outs.len();
    let mut first = Vec::with_capacity(pass);
    for (i, out) in l.outs.iter().enumerate() {
        match out {
            Err(e) => {
                r.failed += 1;
                r.errors.push(format!("operation {i}: {e}"));
            }
            Ok(o) if i < pass => first.push(*o),
            Ok(o) => {
                let reference = l.outs[i % pass].as_ref().ok().map(|f| f.digest);
                if reference != Some(o.digest) {
                    r.failed += 1;
                    r.errors.push(format!(
                        "operation {i} differs from operation {} on the same inputs",
                        i % pass
                    ));
                }
            }
        }
    }
    first
}

/// Re-runs the first operations with the planner and the serving engine
/// on every core and checks they reproduce the one-thread outputs bit for
/// bit: the determinism contract.
fn check_thread_invariance(w: &Workload, first: &[OpOut], cores: usize, r: &mut RunResult) {
    let twin = w.on_cores(cores);
    for (i, reference) in first.iter().enumerate().take(THREAD_CHECK_OPS) {
        r.attempted += 1;
        match twin.run_op(i).and_then(|o| twin.check_op(i, &o)) {
            Ok(o) if o.digest == reference.digest => {}
            Ok(_) => {
                r.failed += 1;
                r.errors
                    .push(format!("operation {i} differs on {cores} threads"));
            }
            Err(e) => {
                r.failed += 1;
                r.errors
                    .push(format!("operation {i} on {cores} threads: {e}"));
            }
        }
    }
}

/// One run: set up, measure, check.
pub fn run(a: &RunArgs, sizes: &Sizes) -> Result<RunResult, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut tracer = Tracer::default();
    let mut setups = Vec::with_capacity(sizes.setup_reps);
    let mut w = None;
    for rep in 0..sizes.setup_reps.max(1) {
        let setup = || workload::setup(a.kind, a.seed, sizes);
        let (built, secs) = if a.trace {
            tracer.span("setup", "workload", rep, 0, |_| setup())
        } else {
            timed(setup)
        };
        w = Some(built?);
        setups.push(calib::normalise(secs, calib::reference_ms()));
    }
    let w = w.expect("at least one set-up ran");
    let mut r = RunResult {
        cores,
        samples_ms: Vec::new(),
        reference_ms: f64::NAN,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        metrics: Vec::new(),
        spans: None,
    };
    if !a.trace {
        let l = measure(&w, a.seconds, None);
        let first = check_loop(&w, &l, &mut r);
        check_thread_invariance(&w, &first, cores, &mut r);
        let (usd_per_1k, latency_mean) = workload::sim_metrics(&first);
        let hwm_kb = proc_status_kb("VmHWM").ok_or("no VmHWM in /proc/self/status")?;
        r.metrics = vec![
            ("setup_s", median(&setups).unwrap_or(f64::NAN)),
            ("op_ms_p50", median(&l.ms).unwrap_or(f64::NAN)),
            (
                "op_ms_p95",
                percentile(&l.ms, TAIL_PERCENTILE).unwrap_or(f64::NAN),
            ),
            ("peak_rss_mb", hwm_kb as f64 / 1024.0),
            ("sim_usd_per_1k", usd_per_1k),
            ("sim_latency_s_mean", latency_mean),
        ];
        r.reference_ms = median(&l.reference_ms).unwrap_or(f64::NAN);
        r.samples_ms = l.ms;
    } else {
        // End-to-end numbers always come from untraced loops; the traced
        // loop only measures what recording spans costs.
        let loop_s = a.seconds * TRACED_LOOP_SHARE;
        let plain = measure(&w, loop_s, None);
        let traced = measure(&w, loop_s, Some(&mut tracer));
        let first = check_loop(&w, &plain, &mut r);
        check_loop(&w, &traced, &mut r);
        check_thread_invariance(&w, &first, cores, &mut r);
        r.samples_ms = [&plain.ms[..], &traced.ms[..]].concat();
        let refs = [&plain.reference_ms[..], &traced.reference_ms[..]].concat();
        r.reference_ms = median(&refs).unwrap_or(f64::NAN);
        r.metrics = layers::replay(&w, a.seed, sizes, cores, &mut tracer)?;
        let overhead = median(&traced.ms)
            .zip(median(&plain.ms))
            .map_or(f64::NAN, |(t, p)| t / p - 1.0);
        r.metrics.push(("trace_overhead_frac", overhead));
        r.spans = Some(trace::to_json(a.kind.name(), a.seed, tracer.spans()));
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_run(kind: Kind, trace: bool) -> RunResult {
        let a = RunArgs {
            kind,
            seed: 1,
            seconds: 0.0,
            trace,
            out: None,
            spans: None,
        };
        run(&a, &Sizes::TINY).expect("run completes")
    }

    fn assert_complete(r: &RunResult, names: &[&str]) {
        assert!(r.correct(), "checks failed: {:?}", r.errors);
        assert_eq!(r.failed, 0);
        assert!(r.attempted >= 2);
        let got: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
        assert_eq!(got, names);
        let line = result_line(r);
        let parsed = Json::parse(&line).expect("result line is JSON");
        assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
    }

    fn tiny_workload(kind: Kind) {
        let e2e: Vec<&str> = metrics::END_TO_END.iter().map(|m| m.name).collect();
        assert_complete(&tiny_run(kind, false), &e2e);
        let per_layer: Vec<&str> = metrics::PER_LAYER.iter().map(|m| m.0).collect();
        let traced = tiny_run(kind, true);
        assert_complete(&traced, &per_layer);
        assert!(traced.spans.is_some());
    }

    #[test]
    fn tiny_plan_mix_passes_every_check() {
        tiny_workload(Kind::PlanMix);
    }

    #[test]
    fn tiny_serve_chain_passes_every_check() {
        tiny_workload(Kind::ServeChain);
    }

    #[test]
    fn tiny_serve_dag_passes_every_check() {
        tiny_workload(Kind::ServeDag);
    }

    #[test]
    fn tiny_adaptive_faults_passes_every_check() {
        tiny_workload(Kind::AdaptiveFaults);
    }

    #[test]
    fn run_arguments_are_validated() {
        let parse =
            |s: &str| parse_run(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload serve-dag --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::ServeDag, 3, 10.0, true)
        );
        assert!(parse("run --workload plan-mix --seed 1").is_ok());
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload plan-mix").is_err());
        assert!(parse("--workload plan-mix --seed 1 --trace 2").is_err());
        assert!(parse("--workload plan-mix --seed 1 --seconds -1").is_err());
        assert!(parse("--workload plan-mix --seed").is_err());
    }
}
