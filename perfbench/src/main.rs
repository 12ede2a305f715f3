//! Command line of the benchmark:
//!
//! ```text
//! pmm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! Prints a host fingerprint, report lines, one line per metric, and as
//! the last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics untraced, per-layer metrics traced).

use std::process::ExitCode;

use pmm_perfbench::alg1::{shape_of, Which};
use pmm_perfbench::common::{host_fingerprint, json_str, spans_json, Opts};
use pmm_perfbench::layers::{END_TO_END, PER_LAYER};

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "error: {msg}\nusage: pmm-perfbench --workload <{}> --seed <n> --seconds <s> \
         --trace <0|1> [--out-dir <dir>]",
        pmm_perfbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts { seed: 0, seconds: 10.0, trace: false, tiny: false, corrupt: false };
    let (mut workload, mut out_dir) = (None, None);
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).cloned().unwrap_or_default();
        match args[i].as_str() {
            "--workload" => workload = Some(value),
            "--seed" => match value.parse() {
                Ok(v) => opts.seed = v,
                Err(_) => return usage("--seed takes an unsigned integer"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v.is_finite() => opts.seconds = v,
                _ => return usage("--seconds takes a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => opts.trace = false,
                "1" => opts.trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            "--out-dir" => out_dir = Some(value),
            other => return usage(&format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    let Some(workload) = workload else { return usage("--workload is required") };

    let auto = shape_of(Which::BigBlocks, false).resolved_kernel();
    let host = host_fingerprint(&auto.to_string());
    println!("host {host}");
    let Some(outcome) = pmm_perfbench::run(&workload, &opts) else {
        return usage(&format!("unknown workload {workload:?}"));
    };
    for line in &outcome.notes {
        println!("{line}");
    }
    for f in &outcome.failures {
        println!("FAILED: {f}");
    }

    // Exactly the catalogue's metrics, in catalogue order: a layer the
    // workload does not exercise reports 0.
    let catalogue: Vec<(&str, &'static str)> = if opts.trace {
        PER_LAYER.iter().map(|l| (l.name, l.unit)).collect()
    } else {
        END_TO_END.to_vec()
    };
    let metrics: Vec<(&str, f64, &str)> = catalogue
        .into_iter()
        .map(|(name, unit)| {
            (name, outcome.get(name).filter(|v| v.is_finite()).unwrap_or(0.0), unit)
        })
        .collect();
    if opts.trace {
        for ((name, value, unit), l) in metrics.iter().zip(PER_LAYER) {
            println!(
                "layer {name:<34} {value:>16.4} {unit:<8} -> {} | not: {}",
                l.moves, l.not_moves
            );
        }
    } else {
        for (name, value, unit) in &metrics {
            println!("metric {name:<14} {value:>16.4} {unit}");
        }
    }
    if let Some(dir) = out_dir.filter(|_| opts.trace) {
        let path = format!("{dir}/spans-{workload}-seed{}.json", opts.seed);
        let body = format!(
            "{{\"workload\":{},\"seed\":{},\"host\":{host},\"spans\":{}}}\n",
            json_str(&workload),
            opts.seed,
            spans_json(&outcome.spans)
        );
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("{}: {{\"value\": {value:?}, \"unit\": {}}}", json_str(name), json_str(unit))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
