//! Command line:
//!
//! ```text
//! dlp-benchmark [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! dlp-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! dlp-benchmark compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! Without `--workload`, every workload runs in a child process of its
//! own, so its peak memory and cold caches belong to it alone; the
//! command prints one `workload metric value unit` line per metric and
//! writes `out/result.json`. With `--trace 1` it runs every workload a
//! second time, traced, and writes `out/TRACE_<workload>.json`. With
//! `--workload` the one workload runs in this process and the last line
//! of output is its result as one JSON object. The exit code is non-zero
//! when any output is wrong.

use std::process::{Command, ExitCode};

use dlp_benchmark::{compare, out_dir, run_workload, DEFAULT_SEED, WORKLOADS};
use dlp_core::ckpt::render;
use dlp_core::obs::Json;

/// Measured seconds per workload run (`run_seconds` in `BENCHMARK.json`).
const SECONDS: f64 = 20.0;

/// Seconds of serve-mix in the `--smoke` profile.
const SMOKE_SERVE_SECONDS: f64 = 3.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: String,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: SECONDS,
        trace: false,
        smoke: false,
        out: format!("{}/result.json", out_dir()),
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn write(path: &str, doc: &Json) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, render(doc) + "\n").map_err(|e| format!("{path}: {e}"))
}

/// Runs one workload here and prints its result line last.
fn one(a: &Args, name: &str) -> Result<bool, String> {
    let out = run_workload(name, a.seed, a.seconds, a.trace)
        .ok_or_else(|| format!("unknown workload {name}; one of {WORKLOADS:?}"))?;
    write(&format!("{}/run-{name}.json", out_dir()), &out.to_json())?;
    if let Some(trace) = &out.trace {
        write(&format!("{}/TRACE_{name}.json", out_dir()), trace)?;
    }
    println!("{}", out.result_line(a.trace));
    Ok(out.correct)
}

/// Runs `name` in a child process and reads back its full result.
fn child(a: &Args, name: &str, seconds: f64, trace: bool) -> Result<Json, String> {
    let path = format!("{}/run-{name}.json", out_dir());
    let _ = std::fs::remove_file(&path);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["--workload", name, "--seed", &a.seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("{name}: {e}"))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if !status.success() {
        eprintln!("{name}: exited with {status}");
    }
    Ok(doc)
}

fn print_rows(name: &str, doc: &Json, sections: &[&str]) {
    for section in sections {
        for (metric, v) in doc.get(section).and_then(Json::as_object).unwrap_or(&[]) {
            let num = |k: &str| v.get(k).and_then(Json::as_f64);
            let mut line = format!(
                "{name} {metric} {} {}",
                num("value").map_or("null".to_string(), |x| x.to_string()),
                v.get("unit").and_then(Json::as_str).unwrap_or("")
            );
            if let (Some(n), Some(b)) = (num("samples"), num("beyond")) {
                line.push_str(&format!(" (n={n}, {b} beyond)"));
            }
            if let Some(note) = v.get("note").and_then(Json::as_str) {
                line.push_str(&format!(" ({note})"));
            }
            println!("{line}");
        }
    }
}

/// Runs every workload (or the smoke profile) in child processes.
fn all(a: &Args) -> Result<bool, String> {
    let plan: Vec<(&str, f64)> = if a.smoke {
        vec![("flow-smoke", 0.1), ("serve-smoke", SMOKE_SERVE_SECONDS)]
    } else {
        WORKLOADS.iter().map(|&w| (w, a.seconds)).collect()
    };
    let mut ok = true;
    let mut results = Vec::new();
    for &(name, seconds) in &plan {
        let doc = child(a, name, seconds, false)?;
        ok &= doc.get("correct") == Some(&Json::Bool(true));
        let failed = doc.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let attempted = doc
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        println!(
            "{name} digest {} ({failed} of {attempted} ops failed)",
            doc.get("digest").and_then(Json::as_str).unwrap_or("none")
        );
        print_rows(name, &doc, &["metrics", "details"]);
        results.push((name.to_string(), doc));
    }
    if a.trace {
        for &(name, seconds) in &plan {
            let doc = child(a, name, seconds, true)?;
            ok &= doc.get("correct") == Some(&Json::Bool(true));
            print_rows(name, &doc, &["layers", "layer_details"]);
            println!("{name} trace {}/TRACE_{name}.json", out_dir());
        }
    }
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    write(
        &a.out,
        &Json::Object(vec![
            ("seed".to_string(), Json::Number(a.seed as f64)),
            ("cpus".to_string(), Json::Number(cpus as f64)),
            ("correct".to_string(), Json::Bool(ok)),
            ("workloads".to_string(), Json::Object(results)),
        ]),
    )?;
    println!("wrote {}", a.out);
    Ok(ok)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let result = if argv.peek().map(String::as_str) == Some("compare") {
        let dirs: Vec<String> = argv.skip(1).collect();
        match dirs.as_slice() {
            [parent, change] => compare::compare(parent, change).map(|(report, regressed)| {
                print!("{report}");
                !regressed
            }),
            _ => Err("usage: compare PARENT_DIR CHANGE_DIR".to_string()),
        }
    } else {
        parse(argv).and_then(|a| match &a.workload {
            Some(name) => one(&a, name),
            None => all(&a),
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
