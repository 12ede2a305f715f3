//! End-to-end smoke tests of the `pmm` binary: exit codes are part of
//! the CLI contract (scripts and CI gate on them), so they are asserted
//! here against the real executable, not the library functions.

use std::io::Write;
use std::process::{Command, Output, Stdio};

fn pmm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pmm")).args(args).output().expect("pmm binary runs")
}

fn pmm_with_stdin(args: &[&str], input: &[u8]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pmm"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("pmm binary spawns");
    child.stdin.take().expect("piped stdin").write_all(input).expect("write stdin");
    child.wait_with_output().expect("pmm binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn simulate_verified_product_exits_zero() {
    let out = pmm(&["simulate", "--dims", "24x12x18", "--procs", "4", "--seed", "3"]);
    let text = stdout(&out);
    assert!(out.status.success(), "exit: {:?}\n{text}", out.status);
    assert!(text.contains("correct ✓"), "{text}");
}

#[test]
fn simulate_with_faults_recovers_and_exits_zero() {
    let out = pmm(&[
        "simulate",
        "--dims",
        "24x24x24",
        "--procs",
        "9",
        "--seed",
        "7",
        "--faults",
        "drop=0.05,kill=4@5,seed=0xFA",
    ]);
    let text = stdout(&out);
    assert!(out.status.success(), "exit: {:?}\n{text}", out.status);
    assert!(text.contains("correct ✓"), "{text}");
    assert!(text.contains("rank 4"), "must report the killed rank: {text}");
    assert!(text.contains("kill=4@5"), "must name the fault-plan entry: {text}");
}

#[test]
fn simulate_with_multi_fault_partition_plan_recovers_and_exits_zero() {
    // The full fault grammar in one plan: two deaths (a pinned kill and
    // a cascade triggered by it), a healing partition, and a straggler
    // storm. Recovery must re-plan onto the survivors and still verify.
    let out = pmm(&[
        "simulate",
        "--dims",
        "24x24x24",
        "--procs",
        "10",
        "--seed",
        "7",
        "--faults",
        "drop=0.03,kill=4@5,cascade=9@1,part=0+1@2..20#2,storm=0.2x2.0,seed=0xFA",
    ]);
    let text = stdout(&out);
    assert!(out.status.success(), "exit: {:?}\n{text}", out.status);
    assert!(text.contains("correct ✓"), "{text}");
    assert!(text.contains("survivors"), "must report the survivor set: {text}");
    assert!(text.contains("attempt(s)"), "must report the attempt count: {text}");
}

#[test]
fn simulate_unrecoverable_fault_exits_nonzero() {
    // Zero retransmissions under heavy drop: the first lost copy
    // exhausts the sender's budget and the run must fail with a report
    // naming the message and plan, not hang or exit 0.
    let out = pmm(&[
        "simulate",
        "--dims",
        "12x12x12",
        "--procs",
        "4",
        "--faults",
        "drop=0.95,retries=0,seed=1",
    ]);
    let text = stdout(&out);
    assert!(!out.status.success(), "a hopeless fault plan must fail\n{text}");
    assert!(text.contains("UNRECOVERED"), "{text}");
    assert!(text.contains("exhausted"), "must report retry exhaustion: {text}");
}

#[test]
fn bad_faults_spec_exits_two() {
    let out = pmm(&["simulate", "--dims", "8x8x8", "--procs", "2", "--faults", "nonsense"]);
    assert_eq!(out.status.code(), Some(2), "parse errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("--faults"), "{err}");
}

#[test]
fn bad_pmm_kernel_exits_two() {
    let simulate = |kernel: &str| {
        Command::new(env!("CARGO_BIN_EXE_pmm"))
            .args(["simulate", "--dims", "8x8x8", "--procs", "2"])
            .env("PMM_KERNEL", kernel)
            .output()
            .expect("pmm binary runs")
    };
    for kernel in ["parallel", "tiled", "fused"] {
        let out = simulate(kernel);
        assert_eq!(out.status.code(), Some(2), "PMM_KERNEL={kernel} must be a usage error");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(err.contains("PMM_KERNEL") && err.contains("naive|blocked|auto"), "{err}");
    }
    let out = simulate("blocked");
    assert!(out.status.success(), "PMM_KERNEL=blocked: {}", stdout(&out));
}

#[test]
fn help_covers_every_command_and_exits_zero() {
    let out = pmm(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for cmd in
        ["bound", "grid", "advise", "simulate", "trace", "sweep", "serve", "--faults", "--out"]
    {
        assert!(text.contains(cmd), "help must mention {cmd}");
    }
}

#[test]
fn serve_oneshot_valid_query_exits_zero() {
    let out = pmm_with_stdin(&["serve", "--oneshot"], b"ADVISE 96 24 6 36 inf\n");
    let text = stdout(&out);
    assert!(out.status.success(), "exit: {:?}\n{text}", out.status);
    assert!(text.starts_with("OK advise case=2D"), "{text}");
    assert!(text.contains("algo="), "{text}");
    assert_eq!(text.matches('\n').count(), 1, "exactly one response line: {text:?}");
}

#[test]
fn serve_oneshot_malformed_query_exits_nonzero_with_structured_error() {
    let out = pmm_with_stdin(&["serve", "--oneshot"], b"ADVISE banana\n");
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(1), "malformed request exits 1\n{text}");
    assert!(text.starts_with("ERR parse:"), "{text}");

    let out = pmm_with_stdin(&["serve", "--oneshot"], b"ADVISE 0 8 8 4 inf\n");
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(1), "invalid query exits 1\n{text}");
    assert!(text.starts_with("ERR advisor:"), "{text}");

    let out = pmm_with_stdin(&["serve", "--oneshot"], b"");
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(1), "empty stdin exits 1\n{text}");
    assert!(text.starts_with("ERR empty:"), "{text}");
}

#[test]
fn serve_stdio_answers_each_line_and_drains_at_eof() {
    let out = pmm_with_stdin(&["serve"], b"PING\nADVISE 96 24 6 36 inf\nSTATS\n");
    let text = stdout(&out);
    assert!(out.status.success(), "exit: {:?}\n{text}", out.status);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "one response per request: {text:?}");
    assert_eq!(lines[0], "OK pong");
    assert!(lines[1].starts_with("OK advise case=2D"), "{text}");
    assert!(lines[2].starts_with("OK stats received="), "{text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("drained"), "graceful drain is reported: {err}");
}

#[test]
fn trace_writes_chrome_json_and_exits_zero() {
    let path = std::env::temp_dir().join("pmm-smoke-trace.json");
    let out = pmm(&[
        "trace",
        "--dims",
        "96x24x12",
        "--procs",
        "8",
        "--seed",
        "3",
        "--out",
        path.to_str().expect("utf-8 temp path"),
    ]);
    let text = stdout(&out);
    assert!(out.status.success(), "exit: {:?}\n{text}", out.status);
    assert!(text.contains("correct ✓"), "{text}");
    assert!(text.contains("all phases match the prediction exactly"), "{text}");
    let json = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    assert!(json.contains("\"ph\":\"B\"") && json.contains("\"ph\":\"X\""), "{json}");
}

#[test]
fn trace_unwritable_out_exits_nonzero() {
    let out =
        pmm(&["trace", "--dims", "8x8x8", "--procs", "2", "--out", "/nonexistent-dir/run.json"]);
    assert!(!out.status.success(), "unwritable --out must fail");
    assert!(stdout(&out).contains("FAILED to write"), "{}", stdout(&out));
}
