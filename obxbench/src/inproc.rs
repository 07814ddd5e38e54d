//! The in-process workloads (explain-uniform, powerlaw-1m): one caller in
//! a closed loop against a scenario loaded in this process.

use crate::calib::Probe;
use crate::check::{check, Expected, Memo};
use crate::host;
use crate::load::repeat_share;
use crate::report::{at_reference, set_latency, Outcome};
use crate::requests::body;
use crate::split::{self, Layers};
use crate::stats::{mean, median};
use crate::trace::Trace;
use crate::Args;
use obx_core::explain::{ExplainTask, SearchLimits};
use obx_core::scenario::{load_dir, LoadedScenario};
use obx_core::service::ExplainRequest;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Repeats a set-up measurement (in seconds) at least 5 and at most 51
/// times, stopping after 3 s once it has 5, with three host-speed probes
/// after each. Returns `setup_s`: the median at reference speed.
/// Cheap set-ups (a few ms) so get 51 samples, dear ones (0.2 s) about 15.
pub fn setup_s(mut once: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut probe = Probe::start()?;
    while samples.len() < 5 || (samples.len() < 51 && start.elapsed() < Duration::from_secs(3)) {
        samples.push(once()?);
        probe.run_n(3);
    }
    let slowdown = probe.slowdown()?;
    eprintln!(
        "setup: median {:.4} s over {} samples, host slowdown {slowdown:.3}",
        median(&samples),
        samples.len(),
    );
    Ok(median(&samples) / slowdown)
}

/// The first border preparation on a freshly loaded scenario — part of
/// set-up, because it materializes the lazy indexes every later request
/// uses. Returns its wall time in ms.
pub fn first_prepare(sc: &LoadedScenario) -> Result<f64, String> {
    let req = ExplainRequest::default();
    let scoring = req.scoring_for(&sc.labels);
    let t = Instant::now();
    ExplainTask::new(
        &sc.system,
        &sc.labels,
        req.radius,
        &scoring,
        SearchLimits::default(),
    )
    .map_err(|e| e.to_string())?;
    Ok(t.elapsed().as_secs_f64() * 1e3)
}

/// One `setup_s` sample: a fresh process loads the scenario and makes its
/// first prepare, timed by the process itself from the start of `main` to
/// its `ready` line. Spawning the process is left out: for the small
/// scenario it was most of the time and moved by a fifth between runs.
fn setup_once(dir: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(&exe)
        .arg("setup-probe")
        .arg(dir)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    let mut line = String::new();
    if let Some(out) = child.stdout.take() {
        BufReader::new(out)
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    match line.trim().strip_prefix("ready ").map(str::parse::<f64>) {
        Some(Ok(secs)) if status.success() => Ok(secs),
        _ => Err(format!("setup probe failed: {status}")),
    }
}

/// One executed request of the timed window.
struct Done {
    idx: usize,
    ms: f64,
    got: Result<Expected, String>,
    /// Traced runs only: the split run of the same request.
    split: Option<Result<(Expected, Layers), String>>,
}

pub fn run(
    dir: &Path,
    memo: &Memo,
    requests: &[ExplainRequest],
    tail: f64,
    args: &Args,
    trace_out: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.set("setup_s", setup_s(|| setup_once(dir))?);

    let mut load_ms = Vec::new();
    let mut loaded = None;
    for _ in 0..if args.trace { 3 } else { 1 } {
        let t = Instant::now();
        loaded = Some(load_dir(dir).map_err(|e| e.to_string())?);
        load_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let sc = loaded.ok_or("no scenario loaded")?;
    let first_prepare_ms = first_prepare(&sc)?;

    let steal = host::cpu_ticks();
    let mut probe = Probe::start()?;
    let mut probing = Duration::ZERO;
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs(args.seconds);
    let mut done = Vec::new();
    // The loop cycles through `requests`, so the window always lasts
    // `--seconds`, however fast the requests are. A host-speed probe runs
    // before each request; its time is not part of the window.
    for (idx, req) in requests.iter().enumerate().cycle() {
        if Instant::now() >= until {
            break;
        }
        let t = Instant::now();
        probe.run();
        probing += t.elapsed();
        let plain = || {
            let t = Instant::now();
            let got = split::explain(&sc.system, &sc.labels, req);
            (t.elapsed().as_secs_f64() * 1e3, got)
        };
        if !args.trace {
            let (ms, got) = plain();
            done.push(Done {
                idx,
                ms,
                got,
                split: None,
            });
            continue;
        }
        // Alternate which runs first, so neither the plain nor the split
        // call is always the one that finds caches warm.
        let (ms, got, split) = if idx % 2 == 0 {
            let s = split::explain_split(&sc.system, &sc.labels, req);
            let (ms, got) = plain();
            (ms, got, s)
        } else {
            let (ms, got) = plain();
            (ms, got, split::explain_split(&sc.system, &sc.labels, req))
        };
        done.push(Done {
            idx,
            ms,
            got,
            split: Some(split),
        });
    }
    let window_s = (t0.elapsed() - probing).as_secs_f64();
    out.set("peak_rss_mb", host::peak_rss_mib("self"));
    out.set("host.steal_pct", host::steal_pct(steal, host::cpu_ticks()));
    out.set(
        "serve.repeat_share",
        repeat_share(done.iter().map(|d| body(None, &requests[d.idx]))),
    );

    // The check, outside the timed window. Untraced runs compare every
    // answer with the oracle: `run_explain` on a freshly loaded copy of
    // the scenario (memoized by request), so state the timed loop
    // accumulated cannot hide in both sides. Traced runs compare the split
    // calls with `run_explain`.
    out.attempted = done.len();
    let mut fresh: Option<LoadedScenario> = None;
    let mut oracle = |req: &ExplainRequest| -> Result<Expected, String> {
        let key = body(None, req);
        if let Some(e) = memo.get(&key) {
            return Ok(e);
        }
        if fresh.is_none() {
            fresh = Some(load_dir(dir).map_err(|e| e.to_string())?);
        }
        let sc = fresh.as_ref().ok_or("no scenario")?;
        let e = split::explain(&sc.system, &sc.labels, req)?;
        memo.put(&key, &e)?;
        Ok(e)
    };
    let mut failures = 0;
    let mut latencies = Vec::new();
    for d in &done {
        let verdict = match (&d.got, &d.split) {
            (Err(e), _) => Err(e.clone()),
            (Ok(got), None) => oracle(&requests[d.idx]).and_then(|want| {
                check(
                    200,
                    Some(&got.exit_code.to_string()),
                    got.stdout.as_bytes(),
                    &want,
                )
            }),
            (Ok(got), Some(Ok((split, _)))) => check(
                200,
                Some(&split.exit_code.to_string()),
                split.stdout.as_bytes(),
                got,
            ),
            (Ok(_), Some(Err(e))) => Err(e.clone()),
        };
        match verdict {
            Ok(()) => latencies.push(d.ms),
            Err(e) => {
                failures += 1;
                latencies.push(f64::MAX);
                if failures <= 3 {
                    eprintln!(
                        "request {} failed: {e}\n  request: {}",
                        d.idx,
                        body(None, &requests[d.idx])
                    );
                }
            }
        }
    }
    out.failed = failures;
    out.correct = failures == 0 && !done.is_empty();
    let ok = done.len() - failures;
    set_latency(&mut out, &latencies, tail);
    out.set("throughput_rps", ok as f64 / window_s);
    out.set("success_rate", ok as f64 / done.len().max(1) as f64);
    at_reference(&mut out, probe.slowdown()?);
    eprintln!(
        "{} requests in {window_s:.1} s, {failures} failed; tail p{:.0} has {} samples beyond",
        done.len(),
        tail * 100.0,
        crate::stats::beyond(done.len(), tail)
    );

    if args.trace {
        let splits: Vec<(usize, &Layers)> = done
            .iter()
            .filter_map(|d| match &d.split {
                Some(Ok((_, l))) => Some((d.idx, l)),
                _ => None,
            })
            .collect();
        let mut trace = Trace::new(t0);
        for &(idx, l) in &splits {
            if let (Some(s), Some(p), Some(q), Some(r)) =
                (l.start, l.prepared, l.searched, l.rendered)
            {
                trace.push(idx, "request", None, s, r);
                trace.push(idx, "srcdb.prepare", Some("request"), s, p);
                trace.push(idx, "core.search", Some("request"), p, q);
                trace.push(idx, "core.render", Some("request"), q, r);
            }
        }
        std::fs::write(trace_out, trace.to_jsonl()).map_err(|e| e.to_string())?;
        let self_ms = trace.self_ms();
        let totals: Vec<f64> = splits.iter().map(|(_, l)| l.total_ms()).collect();
        let plain: Vec<f64> = done.iter().map(|d| d.ms).collect();
        out.set_layers(
            &splits
                .iter()
                .map(|(_, l)| ((*l).clone(), 1.0))
                .collect::<Vec<_>>(),
        );
        out.set("srcdb.load_ms", median(&load_ms));
        let snapshot = dir.join("data.obxsnap");
        if snapshot.exists() {
            let mut read_ms = Vec::new();
            for _ in 0..3 {
                let t = Instant::now();
                obx_srcdb::read_snapshot(&snapshot).map_err(|e| e.to_string())?;
                read_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            out.set("srcdb.snapshot_read_ms", median(&read_ms));
        }
        let r1: Vec<f64> = splits
            .iter()
            .filter(|(idx, _)| requests[*idx].radius == 1)
            .map(|(_, l)| l.prepare_ms())
            .collect();
        if !r1.is_empty() {
            out.set("srcdb.lazy_index_ms", first_prepare_ms - median(&r1));
        }
        out.set(
            "trace.overhead_pct",
            100.0 * (median(&totals) / median(&plain) - 1.0),
        );
        out.set(
            "trace.unaccounted_pct",
            100.0 * self_ms.get("request").copied().unwrap_or(0.0) / mean(&totals),
        );
        eprintln!("self time per request (ms): {self_ms:?}");
    }
    Ok(out)
}
