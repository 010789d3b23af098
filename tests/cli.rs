//! Smoke tests for the `ampsinf` CLI binary.

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_ampsinf"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn models_lists_zoo() {
    let (stdout, _, ok) = run(&["models"]);
    assert!(ok);
    for name in [
        "mobilenet",
        "resnet50",
        "inception_v3",
        "xception",
        "bert_base",
    ] {
        assert!(stdout.contains(name), "missing {name}:\n{stdout}");
    }
    assert!(stdout.contains("25636712")); // ResNet50 params, exact
}

#[test]
fn summary_renders() {
    let (stdout, _, ok) = run(&["summary", "mobilenet"]);
    assert!(ok);
    assert!(stdout.contains("Total params: 4253864"));
    assert!(stdout.contains("conv_dw_1 (DepthwiseConv2D)"));
}

#[test]
fn plan_mobilenet_and_json_output() {
    let dir = std::env::temp_dir().join("ampsinf-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("plan.json");
    let json_str = json.to_str().unwrap();
    let (stdout, stderr, ok) = run(&["plan", "mobilenet", "--json", json_str]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("lambda(s)"), "{stdout}");
    assert!(stdout.contains("exhaustive optimum"), "{stdout}");
    let plan =
        amps_inf::core::ExecutionPlan::from_json(&std::fs::read_to_string(&json).unwrap()).unwrap();
    assert_eq!(plan.model, "mobilenet");
    assert!(plan.num_lambdas() >= 1);
}

#[test]
fn plan_with_quantization() {
    let (stdout, _, ok) = run(&["plan", "bert_base", "--quantize", "1"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("quantized weights to 8 bits"));
    assert!(stdout.contains("lambda(s)"));
}

#[test]
fn serve_runs_end_to_end() {
    let (stdout, stderr, ok) = run(&["serve", "mobilenet", "--images", "2"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("2 image(s)"), "{stdout}");
    assert!(stdout.contains('$'));
}

#[test]
fn unknown_model_fails_cleanly() {
    let (_, stderr, ok) = run(&["plan", "alexnet-9000"]);
    assert!(!ok);
    assert!(stderr.contains("unknown model"));
}

#[test]
fn bad_flag_value_fails_cleanly() {
    let (_, stderr, ok) = run(&["plan", "mobilenet", "--slo", "banana"]);
    assert!(!ok);
    assert!(stderr.contains("bad --slo"));
}

#[test]
fn unknown_and_valueless_flags_fail_cleanly() {
    // Each of these used to exit 0 with the flag ignored.
    let serve = ["serve", "mobilenet", "--requests", "10", "--rate", "2"];
    let flaky = [&serve[..], &["--flaky", "1.5"]].concat();
    let stray = [&serve[..], &["bogus"]].concat();
    let sweep = ["sweep", "mobilenet", "--slo-from", "2", "--slo-to", "20"];
    let sweep_pipelined = [&sweep[..], &["--points", "2", "--pipeline"]].concat();
    let sweep_dag_pipelined = [&sweep_pipelined[..], &["--dag"]].concat();
    let sweep_slo = [&sweep[..], &["--points", "2", "--slo", "5"]].concat();
    let cases: [(&[&str], &str); 9] = [
        (&["plan", "mobilenet", "--sol", "5"], "unknown flag --sol"),
        (&["plan", "mobilenet", "--batch"], "--batch needs a value"),
        (&flaky, "unknown flag --flaky"),
        (&stray, "unexpected argument bogus"),
        (&["plan", "mobilenet", "extra"], "unexpected argument extra"),
        (
            &["plan", "mobilenet", "--slo", "5", "--slo", "9"],
            "--slo given more than once",
        ),
        (
            &sweep_pipelined,
            "sweep plans no pipelined grid; plan --pipeline",
        ),
        (
            &sweep_dag_pipelined,
            "sweep plans no pipelined grid; plan --pipeline",
        ),
        (&sweep_slo, "sweep takes its SLOs from --slo-from/--slo-to"),
    ];
    for (args, msg) in cases {
        let (stdout, stderr, ok) = run(args);
        let label = args.join(" ");
        assert!(!ok, "{label} should fail");
        assert!(
            stderr.contains(&format!("error: {msg}")),
            "{label}: {stderr}"
        );
        assert!(stdout.is_empty(), "{label}: {stdout}");
    }
}

#[test]
fn out_of_range_planning_flags_fail_cleanly() {
    // Each of these used to reach a library assert or an empty winner
    // set and panic; they must be rejected up front with a clear error.
    let cases = [
        ("--batch", "0"),
        ("--tolerance", "-1"),
        ("--tolerance", "nan"),
        ("--tolerance", "inf"),
        ("--slo", "0"),
        ("--slo", "-5"),
        ("--slo", "nan"),
        ("--slo", "inf"),
        ("--quantize", "0"),
        ("--quantize", "5"),
    ];
    // `--backoff` only shapes serve's retries, which need faults.
    let faulty = ["--inject-faults", "0.1"];
    let backoff = [
        ("--backoff", "nan"),
        ("--backoff", "-5"),
        ("--backoff", "inf"),
    ];
    let runs = ["plan", "serve"]
        .into_iter()
        .flat_map(|cmd| cases.iter().map(move |&c| (cmd, c, &[][..])))
        .chain(backoff.iter().map(|&c| ("serve", c, &faulty[..])));
    for (cmd, (flag, value), extra) in runs {
        let (_, stderr, ok) = run(&[&[cmd, "mobilenet", flag, value][..], extra].concat());
        let label = format!("{cmd} {flag} {value}");
        assert!(!ok, "{label} should fail");
        assert!(
            stderr.contains(&format!("bad {flag} value")),
            "{label}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{label}: {stderr}");
    }
}

#[test]
fn bad_rates_fail_cleanly() {
    // `--rate inf` used to reach the arrival generator's assert.
    for rate in ["inf", "nan", "0", "-2", "banana"] {
        let (_, stderr, ok) = run(&["serve", "mobilenet", "--requests", "5", "--rate", rate]);
        assert!(!ok, "--rate {rate} should fail");
        assert!(
            stderr.contains("bad --rate value"),
            "--rate {rate}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "--rate {rate}: {stderr}");
    }
}

#[test]
fn serve_dag_runs_every_serving_mode() {
    // `--dag` only picks the planner: every batch and load mode serves
    // the chosen plan on the one engine and prints its summary line.
    let cases: [(&[&str], &str); 6] = [
        (&[], "1 image(s):"),
        (&["--images", "3"], "batch: 3 succeeded, 0 failed"),
        (&["--images", "3", "--parallel"], "3 image(s) in parallel:"),
        (
            &["--images", "3", "--pipeline"],
            "pipeline: 3 succeeded, 0 failed",
        ),
        (&["--requests", "20"], "latency: p50"),
        (
            &["--requests", "20", "--adaptive", "--slo-tiers", "9,30"],
            "plan cache:",
        ),
    ];
    for (extra, summary) in cases {
        let mut args = vec!["serve", "mobilenet", "--dag"];
        args.extend_from_slice(extra);
        let (stdout, stderr, ok) = run(&args);
        let label = args.join(" ");
        assert!(ok, "{label}: {stderr}");
        assert!(stdout.contains(summary), "{label}: {stdout}");
        assert!(stdout.contains('$'), "{label}: {stdout}");
    }
}

#[test]
fn load_mode_counts_the_sandboxes_the_busiest_function_created() {
    // Pools never drop a sandbox, so the count is the busiest function's
    // cold starts plus its pre-warmed instances, not a peak of live ones.
    let (stdout, stderr, ok) = run(&[
        "serve",
        "mobilenet",
        "--requests",
        "10",
        "--rate",
        "2",
        "--policy",
        "prewarm:3",
    ]);
    assert!(ok, "{stderr}");
    let line = stdout
        .lines()
        .find(|l| l.starts_with("platform: "))
        .unwrap_or_else(|| panic!("no platform line: {stdout}"));
    assert!(!line.contains("peak"), "{line}");
    let created: usize = line
        .split("busiest function created ")
        .nth(1)
        .and_then(|l| l.strip_suffix(" sandbox(es)"))
        .unwrap_or_else(|| panic!("no sandbox count: {line}"))
        .parse()
        .expect("count");
    assert!(created >= 3, "3 pre-warmed sandboxes: {line}");
}

#[test]
fn adaptive_fallback_solves_the_unconstrained_plan_once() {
    // No plan meets 1 ns: both epochs probe the tier (hits), then fall
    // back to the unconstrained plan, solved on the first probe only.
    for dag in [false, true] {
        let mut args = vec!["serve", "mobilenet", "--requests", "10", "--rate", "2"];
        args.extend(["--adaptive", "--slo-tiers", "1e-9"]);
        if dag {
            args.push("--dag");
        }
        let (stdout, stderr, ok) = run(&args);
        assert!(ok, "--dag {dag}: {stderr}");
        assert!(
            stdout.contains("plan cache: 1 hit(s), 1 miss(es), 0 re-plan(s)"),
            "--dag {dag}: {stdout}"
        );
    }
}

#[test]
fn in_range_planning_flags_still_plan() {
    for (flag, value) in [("--tolerance", "0"), ("--batch", "2"), ("--slo", "30")] {
        let (stdout, stderr, ok) = run(&["plan", "mobilenet", flag, value]);
        assert!(ok, "{flag} {value}: {stderr}");
        assert!(stdout.contains("lambda(s)"), "{flag} {value}: {stdout}");
    }
}

#[test]
fn no_args_prints_usage() {
    let (_, stderr, ok) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
    // Options sit two columns in, and a wrapped description continues
    // under its first line's description column.
    let lines: Vec<&str> = stderr.lines().collect();
    let slo = lines
        .iter()
        .position(|l| l.starts_with("  --slo <seconds>"))
        .unwrap_or_else(|| panic!("--slo is not indented:\n{stderr}"));
    let dag = lines
        .iter()
        .position(|l| l.starts_with("  --dag "))
        .unwrap_or_else(|| panic!("--dag is not indented:\n{stderr}"));
    let column = lines[dag].rfind("  ").map(|i| i + 2).expect("description");
    let next = lines[dag + 1];
    assert!(
        next.len() > column && next[..column].trim().is_empty() && !next[column..].starts_with(' '),
        "continuation {next:?} does not line up under column {column}:\n{stderr}"
    );
    assert!(lines[slo].find("response-time SLO") == Some(column));
}

#[test]
fn model_file_round_trip_through_cli() {
    // Serialize a zoo model to a file and plan from the file.
    let g = amps_inf::model::zoo::tiny_cnn();
    let dir = std::env::temp_dir().join("ampsinf-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny.json");
    std::fs::write(&path, amps_inf::model::serialize::to_json(&g)).unwrap();
    let (stdout, stderr, ok) = run(&["plan", path.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("tiny_cnn"));
}

#[test]
fn split_model_file_plans_as_a_dag() {
    // VGG16's fc1 fits no lambda; split into a fork/join region and saved
    // as a model file, it plans through the ordinary `--dag` path.
    let g = amps_inf::model::zoo::vgg16();
    let split = amps_inf::core::cuts::split_oversized(&g, &Default::default()).unwrap();
    let dir = std::env::temp_dir().join("ampsinf-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("vgg16-split.json");
    std::fs::write(&path, amps_inf::model::serialize::to_json(&split)).unwrap();
    let (stdout, stderr, ok) = run(&["plan", path.to_str().unwrap(), "--dag"]);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("dag plan: vgg16: 7 node(s), width 5"),
        "{stdout}"
    );
    assert!(stdout.contains("1 of 1 region(s) parallelized"), "{stdout}");
    assert!(stdout.contains("predicted 52.24s / $0.00203"), "{stdout}");
    let (_, stderr, ok) = run(&["plan", "vgg16"]);
    assert!(!ok && stderr.contains("error:"), "{stderr}");
}

#[test]
fn malformed_model_file_fails_cleanly() {
    // A Dense fed by a spatial map used to panic inside validation.
    let g = amps_inf::model::zoo::tiny_cnn();
    let good = amps_inf::model::serialize::to_json(&g);
    let pool = g.find("pool").unwrap();
    let last = g.num_layers() - 1;
    let marker = format!("\"inputs\": [\n        {}\n      ]", last - 1);
    assert!(good.contains(&marker), "fixture layout changed:\n{good}");
    let bad = good.replace(&marker, &format!("\"inputs\": [{pool}]"));
    let dir = std::env::temp_dir().join("ampsinf-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tiny-bad.json");
    std::fs::write(&path, bad).unwrap();
    for cmd in ["summary", "plan"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ampsinf"))
            .args([cmd, path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(
            stderr
                .lines()
                .any(|l| l.starts_with("error:") && l.contains("flat input")),
            "{cmd}: {stderr}"
        );
    }
}

#[test]
fn images_flag_rejects_garbage() {
    // Regression: malformed --images used to silently fall back to 1.
    for bad in ["banana", "0", "-3", "1.5"] {
        let (_, stderr, ok) = run(&["serve", "mobilenet", "--images", bad]);
        assert!(!ok, "--images {bad} should fail");
        assert!(stderr.contains("bad --images"), "{stderr}");
    }
}

#[test]
fn sweep_prints_frontier_table() {
    let (stdout, stderr, ok) = run(&[
        "sweep",
        "mobilenet",
        "--slo-from",
        "2",
        "--slo-to",
        "20",
        "--points",
        "4",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("sweep: 4 point(s)"), "{stdout}");
    assert!(
        stdout.contains("pareto") || stdout.contains("knee"),
        "{stdout}"
    );
    assert!(stdout.contains("cache hits"), "{stdout}");

    // `--batch` is the grid's batch when `--batches` is absent.
    let (stdout, stderr, ok) = run(&[
        "sweep",
        "mobilenet",
        "--batch",
        "8",
        "--slo-from",
        "20",
        "--slo-to",
        "60",
        "--points",
        "2",
    ]);
    assert!(ok, "stderr: {stderr}");
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .filter(|w| w.len() > 2 && w[0].parse::<usize>().is_ok())
        .collect();
    assert_eq!(rows.len(), 2, "{stdout}");
    assert!(rows.iter().all(|w| w[1] == "8"), "{stdout}");

    // `--quantize` plans the narrowed model: fp32 BERT-Base fits no
    // lambda, its int8 form does.
    let (stdout, stderr, ok) = run(&[
        "sweep",
        "bert_base",
        "--quantize",
        "1",
        "--slo-from",
        "40",
        "--slo-to",
        "40",
        "--points",
        "1",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("quantized weights to 8 bits"), "{stdout}");
    assert!(
        stdout.contains("sweep: 1 point(s) (1 SLO x 1 batch), 1 solved"),
        "{stdout}"
    );
}

#[test]
fn verbose_plan_and_sweep_report_knapsack_counters() {
    // A binding SLO (MobileNet's unconstrained plan takes ~8.1 s) makes
    // pass 2 solve knapsacks, and no branch-and-bound counter is printed.
    let (stdout, stderr, ok) = run(&["plan", "mobilenet", "--slo", "6.5", "--verbose"]);
    assert!(ok, "stderr: {stderr}");
    let line = stdout
        .lines()
        .find(|l| l.starts_with("solver: "))
        .unwrap_or_else(|| panic!("no solver line: {stdout}"));
    assert!(line.contains("exact knapsack solve(s)"), "{line}");
    assert!(line.contains("pruned on the LP bound"), "{line}");
    assert!(
        !line.contains("solver: 0 exact"),
        "binding SLO solved nothing: {line}"
    );
    // Stage 1 ranks only the cheapest of the searched cuts.
    let searched = stdout
        .lines()
        .find_map(|l| l.strip_prefix("searched "))
        .and_then(|l| l.split(' ').next())
        .unwrap_or_else(|| panic!("no stats line: {stdout}"));
    let ranked: Vec<usize> = line
        .split(", ranked ")
        .nth(1)
        .and_then(|l| l.strip_suffix(" cuts by cost"))
        .unwrap_or_else(|| panic!("no ranked count: {line}"))
        .split(" of ")
        .map(|n| n.parse().expect("count"))
        .collect();
    assert_eq!(ranked.len(), 2, "{line}");
    assert_eq!(ranked[1].to_string(), searched, "{line}");
    assert!(0 < ranked[0] && ranked[0] < ranked[1], "{line}");
    assert!(!stdout.contains("b&b"), "{stdout}");

    let (stdout, stderr, ok) = run(&[
        "sweep",
        "mobilenet",
        "--slo-from",
        "6.5",
        "--slo-to",
        "8",
        "--points",
        "3",
        "--verbose",
    ]);
    assert!(ok, "stderr: {stderr}");
    let solver_lines: Vec<&str> = stdout
        .lines()
        .filter(|l| l.trim_start().starts_with("solver: "))
        .collect();
    assert_eq!(solver_lines.len(), 3, "{stdout}");
    assert!(
        solver_lines
            .iter()
            .all(|l| l.contains("knapsack solve(s)") && l.contains("LP-pruned")),
        "{stdout}"
    );
    assert!(!stdout.contains("b&b"), "{stdout}");
}

#[test]
fn dag_sweep_prints_chain_vs_dag_table() {
    let (stdout, stderr, ok) = run(&[
        "sweep",
        "inception_v3",
        "--dag",
        "--slo-from",
        "22",
        "--slo-to",
        "40",
        "--points",
        "3",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("dag sweep: 3 point(s)"), "{stdout}");
    assert!(stdout.contains("chain($)"), "{stdout}");
    assert!(
        stdout.contains("pareto") || stdout.contains("knee"),
        "{stdout}"
    );
    assert!(stdout.contains("dag memos:"), "{stdout}");
}

#[test]
fn verbose_dag_plan_and_sweep_report_polish_steps() {
    let (stdout, stderr, ok) = run(&[
        "plan",
        "inception_v3",
        "--dag",
        "--batch",
        "64",
        "--slo",
        "636.5",
        "--verbose",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("dag search:") && l.contains("polish step(s)")),
        "{stdout}"
    );
    let (stdout, stderr, ok) = run(&[
        "sweep",
        "inception_v3",
        "--dag",
        "--batches",
        "64",
        "--slo-from",
        "600",
        "--slo-to",
        "700",
        "--points",
        "2",
        "--verbose",
    ]);
    assert!(ok, "stderr: {stderr}");
    let search: Vec<&str> = stdout
        .lines()
        .filter(|l| l.trim_start().starts_with("search:"))
        .collect();
    assert_eq!(search.len(), 2, "{stdout}");
    assert!(
        search.iter().all(|l| l.contains("polish step(s)")),
        "{stdout}"
    );
}

#[test]
fn dag_sweep_shares_grid_validation_with_chain_sweep() {
    let (_, stderr, ok) = run(&["sweep", "inception_v3", "--dag"]);
    assert!(!ok);
    assert!(stderr.contains("requires --slo-from"), "{stderr}");
}

#[test]
fn sweep_requires_grid_flags() {
    let (_, stderr, ok) = run(&["sweep", "mobilenet"]);
    assert!(!ok);
    assert!(stderr.contains("requires --slo-from"), "{stderr}");
    let (_, stderr, ok) = run(&["sweep", "mobilenet", "--slo-from", "2", "--slo-to", "20"]);
    assert!(!ok);
    assert!(stderr.contains("requires --points"), "{stderr}");
}

#[test]
fn sweep_rejects_bad_grid_values() {
    let (_, stderr, ok) = run(&[
        "sweep",
        "mobilenet",
        "--slo-from",
        "20",
        "--slo-to",
        "2",
        "--points",
        "4",
    ]);
    assert!(!ok);
    assert!(stderr.contains("bad --slo-to"), "{stderr}");
    let (_, stderr, ok) = run(&[
        "sweep",
        "mobilenet",
        "--slo-from",
        "2",
        "--slo-to",
        "20",
        "--points",
        "4",
        "--batches",
        "1,zero",
    ]);
    assert!(!ok);
    assert!(stderr.contains("bad --batches"), "{stderr}");
}

/// The flags each command line accepts, written out from the usage text
/// by hand: `(command line, flags it reads besides those already on it)`.
/// `serve` has a row per mode, and `--requests` picks the mode.
const ROWS: [(&[&str], &[&str]); 6] = [
    (&["models"], &[]),
    (&["summary", "MODEL"], &[]),
    (
        &["plan", "MODEL"],
        &[
            "--slo",
            "--batch",
            "--tolerance",
            "--threads",
            "--quota-2021",
            "--quantize",
            "--dag",
            "--verbose",
            "--json",
            "--pipeline",
        ],
    ),
    (
        &[
            "sweep",
            "MODEL",
            "--slo-from",
            "6",
            "--slo-to",
            "8",
            "--points",
            "2",
        ],
        &[
            "--batches",
            "--batch",
            "--tolerance",
            "--threads",
            "--quota-2021",
            "--quantize",
            "--dag",
            "--verbose",
        ],
    ),
    (
        &["serve", "MODEL", "--images", "2"],
        &[
            "--parallel",
            "--slo",
            "--batch",
            "--tolerance",
            "--threads",
            "--quota-2021",
            "--quantize",
            "--dag",
            "--pipeline",
            "--pipe-depth",
            "--inject-faults",
            "--fault-seed",
            "--flaky-store",
            "--retries",
            "--backoff",
        ],
    ),
    (
        &["serve", "MODEL", "--requests", "5"],
        &[
            "--rate",
            "--shape",
            "--policy",
            "--lanes",
            "--adaptive",
            "--slo-tiers",
            "--epoch",
            "--verbose",
            "--slo",
            "--batch",
            "--tolerance",
            "--threads",
            "--quota-2021",
            "--quantize",
            "--dag",
            "--pipeline",
            "--pipe-depth",
            "--inject-faults",
            "--fault-seed",
            "--flaky-store",
            "--retries",
            "--backoff",
        ],
    ),
];

/// `flag` with a valid value, plus any flag it needs beside it.
fn with_valid_value(flag: &str) -> Vec<&str> {
    let value = match flag {
        "--adaptive" => return vec![flag, "--slo-tiers", "5,9"],
        "--slo-tiers" => return vec![flag, "5,9", "--adaptive"],
        "--epoch" => return vec![flag, "4", "--adaptive", "--slo-tiers", "5,9"],
        "--pipe-depth" => return vec![flag, "2", "--pipeline"],
        "--fault-seed" | "--retries" => return vec![flag, "4", "--inject-faults", "0.1"],
        "--backoff" => return vec![flag, "0.1", "--flaky-store", "0.1"],
        "--dag" | "--parallel" | "--pipeline" | "--quota-2021" | "--verbose" => return vec![flag],
        "--slo" | "--rate" | "--slo-from" | "--requests" => "5",
        "--batch" | "--quantize" | "--images" | "--points" => "2",
        "--tolerance" | "--inject-faults" | "--flaky-store" => "0.1",
        "--threads" => "1",
        "--lanes" => "4",
        "--slo-to" => "9",
        "--batches" => "1,2",
        "--shape" => "spike",
        "--policy" => "zero",
        "--json" => "oracle-plan.json",
        other => panic!("no valid value written for {other}"),
    };
    vec![flag, value]
}

/// Every `--flag` the usage text documents.
fn documented_flags() -> Vec<String> {
    let (_, usage, _) = run(&[]);
    let mut flags: Vec<String> = usage
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|w| w.len() > 2 && w.starts_with("--"))
        .map(str::to_string)
        .collect();
    flags.sort();
    flags.dedup();
    flags
}

#[test]
fn each_command_accepts_exactly_the_flags_it_reads() {
    // With a model that does not exist, a flag the command reads gets as
    // far as loading the model; any other flag must stop the command
    // before it does anything.
    let documented = documented_flags();
    for (line, reads) in ROWS {
        let base: Vec<&str> = line
            .iter()
            .map(|&w| if w == "MODEL" { "no-such-model" } else { w })
            .collect();
        for flag in &documented {
            if line.contains(&flag.as_str()) {
                continue;
            }
            let args = [&base[..], &with_valid_value(flag)].concat();
            let label = args.join(" ");
            let (stdout, stderr, ok) = run(&args);
            assert!(!ok, "{label} should fail");
            assert!(stdout.is_empty(), "{label}: {stdout}");
            assert!(stderr.starts_with("error: "), "{label}: {stderr}");
            let reached_model = stderr.contains("unknown model 'no-such-model'");
            assert_eq!(
                reached_model,
                reads.contains(&flag.as_str()),
                "{label}: {stderr}"
            );
        }
    }
}

#[test]
fn flags_a_command_does_not_read_fail_cleanly() {
    // Each of these used to exit 0 with the flag ignored.
    let json = std::env::temp_dir().join("ampsinf-cli-test-ignored.json");
    let json = json.to_str().unwrap();
    let sweep = ["sweep", "mobilenet", "--slo-from", "6", "--slo-to", "8"];
    let cases: [&[&str]; 14] = [
        &[&sweep[..], &["--points", "2", "--json", json]].concat(),
        &["serve", "mobilenet", "--images", "2", "--adaptive"],
        &[
            "serve",
            "mobilenet",
            "--images",
            "2",
            "--adaptive",
            "--slo-tiers",
            "5,9",
        ],
        &["models", "--dag"],
        &["plan", "mobilenet", "--lanes", "4"],
        &["summary", "mobilenet", "--slo", "5"],
        &["serve", "mobilenet", "--images", "2", "--verbose"],
        &["serve", "mobilenet", "--requests", "5", "--epoch", "4"],
        &["serve", "mobilenet", "--images", "2", "--rate", "5"],
        &[&sweep[..], &["--points", "2", "--retries", "5"]].concat(),
        &["plan", "mobilenet", "--flaky-store", "0.5"],
        &["plan", "mobilenet", "--inject-faults", "0.1"],
        &["serve", "mobilenet", "--images", "2", "--retries", "3"],
        &["serve", "mobilenet", "--requests", "5", "--backoff", "0.2"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_ampsinf"))
            .args(args)
            .output()
            .expect("binary runs");
        let label = args.join(" ");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{label}: {stderr}");
        assert!(stderr.starts_with("error: "), "{label}: {stderr}");
        assert!(out.stdout.is_empty(), "{label}");
    }
    assert!(!std::path::Path::new(json).exists());
}

#[test]
fn fault_seed_requires_inject_faults() {
    // The seed only seeds injected faults; alone it used to be parsed
    // and dropped.
    let args = ["serve", "mobilenet", "--images", "2", "--fault-seed", "7"];
    let out = Command::new(env!("CARGO_BIN_EXE_ampsinf"))
        .args(args)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(
        stderr.trim_end(),
        "error: --fault-seed requires --inject-faults"
    );
    assert!(out.stdout.is_empty());
}

#[test]
fn serve_quantizes_the_model() {
    // fp32 BERT-Base fits no lambda; `--quantize 1` used to be dropped by
    // `serve`.
    let (stdout, stderr, ok) = run(&["serve", "bert_base", "--quantize", "1"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("quantized weights to 8 bits"), "{stdout}");
    assert!(stdout.contains("1 image(s):"), "{stdout}");
}

#[test]
fn closed_stdout_ends_without_a_panic() {
    use std::io::BufRead;
    use std::process::Stdio;
    // The reader goes away before the first line (`models`) or after it
    // (`plan ... | head -1`); `println!` used to panic with exit 101.
    for (args, lines_read) in [
        (&["models"][..], 0),
        (&["plan", "bert_base", "--quantize", "1"][..], 1),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ampsinf"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        let mut reader = std::io::BufReader::new(child.stdout.take().unwrap());
        for _ in 0..lines_read {
            reader.read_line(&mut String::new()).unwrap();
        }
        drop(reader);
        let out = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let label = args.join(" ");
        assert_ne!(out.status.code(), Some(101), "{label}: {stderr}");
        assert!(!stderr.contains("panicked"), "{label}: {stderr}");
    }
}
