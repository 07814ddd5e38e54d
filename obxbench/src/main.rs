//! The obx benchmark: one command, three seeded workloads, six end-to-end
//! metrics each, every output checked against the in-process oracle, and a
//! traced mode that splits each request across obx's layers.
//!
//! ```text
//! cargo run --release --quiet --manifest-path obxbench/Cargo.toml -- \
//!     --workload explain-uniform|serve-zipf|powerlaw-1m --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root. The last line of standard output is
//! the result; the line before it is the host header. See `README.md`.

mod calib;
mod check;
mod host;
mod http;
mod inproc;
mod load;
mod prepare;
mod report;
mod requests;
mod rng;
mod serve;
mod split;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// The command-line arguments.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["explain-uniform", "serve-zipf", "powerlaw-1m"];

/// Every `OBX_*` variable switches a measured code path (threads, guided
/// evaluation, incremental scoring, observability), so none may be set.
fn check_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("OBX_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: each OBX_* variable switches the measured code path",
            set.join(", ")
        ))
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} must be a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? == 1,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(args)
}

/// Builds the release `obx` binary of this checkout and returns its path.
fn build_obx() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "obx-cli",
            "--bin",
            "obx",
        ])
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building obx failed: {status}"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_owned());
    Ok(Path::new(&target).join("release").join("obx"))
}

/// Requests generated for an in-process run: 50 per second of the window.
/// A stream whose distinct requests run out starts over (see
/// `requests::blocked_stream`), and the timed loop cycles through the
/// stream, so even faster requests fill the window.
fn stream_len(args: &Args) -> usize {
    50 * args.seconds as usize + 100
}

/// Runs one workload: prepare (own process, once), measure, check, report.
fn run(args: &Args) -> Result<bool, String> {
    if !Path::new("crates").is_dir() || !Path::new("Cargo.toml").is_file() {
        return Err("run from the root of an obx checkout".to_owned());
    }
    let obx = if args.workload == "serve-zipf" {
        Some(build_obx()?)
    } else {
        None
    };
    // Everything kept between runs lives under a directory named by the
    // digest of the sources, so no commit reuses another's data or oracle.
    let digest = host::source_digest();
    let work = Path::new(".bench_work").join(&digest);
    let trace_out = work.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    let data = prepared(&work, &args.workload)?;
    let memo = check::Memo::new(data.join("oracle"))?;
    let steal = host::cpu_ticks();
    let outcome = match args.workload.as_str() {
        // 150–215 samples in a 30 s run: p90 is the highest tail with ten
        // samples beyond it in every run (p95 would need 200).
        "explain-uniform" => {
            let reqs = requests::uniform_stream(args.seed, stream_len(args));
            inproc::run(&data.join("uniform"), &memo, &reqs, 0.90, args, &trace_out)?
        }
        // 160–275 samples in a 30 s run: p90 (p95 would have ten samples
        // beyond it only on a fast host).
        "powerlaw-1m" => {
            let reqs = requests::powerlaw_stream(args.seed, stream_len(args));
            inproc::run(&data.join("powerlaw"), &memo, &reqs, 0.90, args, &trace_out)?
        }
        _ => serve::run(
            obx.as_deref().ok_or("obx binary")?,
            &data,
            &memo,
            args,
            &trace_out,
        )?,
    };
    println!(
        "{}",
        host::header(&args.workload, args.seed, &digest, steal)
    );
    println!("{}", outcome.result_line(args.trace));
    Ok(outcome.correct)
}

/// The workload's data directory, made by the prepare step in its own
/// process. The data does not depend on `--seed` (see `prepare.rs`), so
/// it is made once per source digest (`work`) and reused by later runs.
fn prepared(work: &Path, workload: &str) -> Result<PathBuf, String> {
    let data = work.join(format!("data-{workload}"));
    if data.join("ready").exists() {
        return Ok(data);
    }
    let tmp = work.join(format!("tmp-{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).map_err(|e| e.to_string())?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["prepare", workload])
        .arg(&tmp)
        .status()
        .map_err(|e| e.to_string())?;
    if !status.success() {
        let _ = std::fs::remove_dir_all(&tmp);
        return Err(format!("prepare step failed: {status}"));
    }
    std::fs::write(tmp.join("ready"), "").map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&data);
    std::fs::rename(&tmp, &data).map_err(|e| e.to_string())?;
    Ok(data)
}

fn main() -> ExitCode {
    let started = std::time::Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = check_environment() {
        eprintln!("obxbench: {e}");
        return ExitCode::from(2);
    }
    let result = match argv.first().map(String::as_str) {
        // Internal steps, each in its own process.
        Some("probe") if argv.len() == 1 => calib::serve_probes().map(|()| true),
        Some("prepare") if argv.len() == 3 => {
            prepare::prepare(&argv[1], Path::new(&argv[2])).map(|()| true)
        }
        Some("setup-probe") if argv.len() == 2 => obx_core::scenario::load_dir(Path::new(&argv[1]))
            .map_err(|e| e.to_string())
            .and_then(|sc| inproc::first_prepare(&sc))
            .map(|_| {
                println!("ready {}", started.elapsed().as_secs_f64());
                true
            }),
        _ => parse_args(&argv).and_then(|args| run(&args)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("obxbench: output check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("obxbench: {e}");
            ExitCode::from(2)
        }
    }
}
