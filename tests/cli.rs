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
    ];
    for cmd in ["plan", "serve"] {
        for (flag, value) in cases {
            let (_, stderr, ok) = run(&[cmd, "mobilenet", flag, value]);
            let label = format!("{cmd} {flag} {value}");
            assert!(!ok, "{label} should fail");
            assert!(
                stderr.contains(&format!("bad {flag} value")),
                "{label}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{label}: {stderr}");
        }
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
    assert!(stdout.contains("bound-seeded"), "{stdout}");
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
