//! serve-zipf: an `obx serve` child process with three tenants, driven
//! over keep-alive connections by a seeded Zipf-ordered request catalog —
//! open-loop slices at a fixed Poisson rate for latency, alternating with
//! closed-loop slices for capacity, and seeded reloads of one tenant
//! throughout.

use crate::calib::Probe;
use crate::check::{check, Expected, Memo};
use crate::host;
use crate::http::Conn;
use crate::load::{
    closed_loop, on_clock, open_loop, poisson_schedule, repeat_share, zipf_sends, Record,
};
use crate::report::{at_reference, set_latency, Outcome};
use crate::requests::{catalog, Item};
use crate::rng::Rng;
use crate::split;
use crate::stats::{mean, median, percentile, sorted};
use crate::trace::Trace;
use crate::Args;
use obx_core::scenario::{load_dir, LoadedScenario};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered open-loop rate (requests per second), fixed so every commit is
/// offered the same load. On one connection the open loop is a single
/// queue: at the 2-core host's mean service time (~39 ms: 77% of sends
/// take ~20 ms, the `audit` 23% ~100 ms) 5.5 rps keeps the share of sends
/// that wait behind another near 0.2, so the median stays among the
/// cheap sends that did not wait. At 9 rps that share was 0.36–0.40,
/// the median sat on the edge of the waiting sends, and it moved from 25
/// to 46 ms between seeds.
pub const OPEN_RATE: f64 = 5.5;
/// Rate of the plain-client stream: Poisson sends over one more
/// connection, with ordinary delayed ACKs ([`Conn::plain`]), alongside the
/// open loop. Its replies are checked like every other, but its latencies
/// stay out of the end-to-end metrics: the server's two-write replies stall
/// such a client for ~40 ms on some connections and not on others, which
/// put serve p50 at 82–142 ms between runs when all traffic went this way.
/// The stall it sees is reported per layer (`serve.stall_share`,
/// `serve.plain_p50_ms`), so a server-side fix shows there.
const PLAIN_RATE: f64 = 1.0;
/// A plain-client reply whose body came over 30 ms after its first byte
/// counts as stalled.
const STALL_MS: f64 = 30.0;
/// The run is cut into this many cycles, each an open-loop slice followed
/// by a capacity slice, so both phases sample host speed across the whole
/// run. With one open phase and then one 6 s capacity phase, throughput
/// moved by ±20% between consecutive runs on a shared 2-core host while
/// the open-loop median held within 10%. Ten cycles of a 30 s run leave
/// the capacity connections idle for 2.4 s between slices, under the
/// 4 s after which a connection is replaced.
const CYCLES: u32 = 10;
/// Share of each cycle spent in the open loop; the rest measures capacity
/// (about 230 sends in all in a 30 s run).
const OPEN_SHARE: f64 = 0.8;
/// A capacity slice sends no new request in its last 150 ms. Its
/// in-flight requests end in that time, and host-speed probes (see
/// `calib.rs`) fill the rest while the server is idle, before the next
/// open-loop slice begins. Its length counts up to its last reply, so
/// the guard does not bias throughput.
const CAPACITY_GUARD: Duration = Duration::from_millis(150);
/// Host-speed probes after each capacity slice: at least this many, and
/// more while the guard lasts.
const MIN_PROBES: usize = 3;
/// Zipf exponent of the catalog order.
const ZIPF_ALPHA: f64 = 1.0;
/// Mean gap between reloads of the `uniform` tenant, in seconds.
const RELOAD_MEAN_S: f64 = 2.0;
/// Tail percentile of the open-loop phase: about 130 samples at a 30 s
/// run, so p90 is the highest with ten samples beyond.
pub const TAIL: f64 = 0.90;
const TENANTS: [&str; 3] = ["uniform", "skewed", "audit"];
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawns `obx serve` and waits until it answers `/readyz`.
    fn start(obx: &Path, data: &Path) -> Result<Server, String> {
        let mut cmd = Command::new(obx);
        cmd.arg("serve");
        for t in TENANTS {
            cmd.arg("--mount")
                .arg(format!("{t}={}", data.join(t).display()));
        }
        let mut child = cmd
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", obx.display()))?;
        let stderr = child.stderr.take().ok_or("server stderr")?;
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on http://").nth(1) {
                    let _ = tx.send(rest.split_whitespace().next().unwrap_or("").to_owned());
                } else {
                    eprintln!("obx serve: {line}");
                }
            }
        });
        let addr = rx
            .recv_timeout(Duration::from_secs(60))
            .map_err(|_| "obx serve did not start listening")?;
        let mut server = Server {
            child,
            addr: addr
                .parse()
                .map_err(|e| format!("listen address {addr}: {e}"))?,
        };
        let mut conn = Conn::new(server.addr, CLIENT_TIMEOUT);
        match conn.request("GET", "/readyz", "") {
            Ok(r) if r.status == 200 => Ok(server),
            other => {
                server.stop();
                Err(format!("obx serve not ready: {other:?}"))
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGTERM (the server drains), then waits for it to exit; kills it
    /// if it has not exited within 20 s. Returns whether it drained.
    fn stop(&mut self) -> bool {
        let _ = Command::new("kill")
            .args(["-TERM", &self.pid().to_string()])
            .status();
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return status.success();
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        false
    }
}

/// A run that ends early on an error still leaves no server behind.
impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The counters this benchmark reads from `/metrics`.
#[derive(Debug, Default, Clone, Copy)]
struct Metrics {
    request_us_count: f64,
    request_us_sum: f64,
    shed: f64,
    bad_requests: f64,
    cpu_ms: f64,
}

/// The number following `"key":` in `json`, or 0 when absent.
fn json_num_after(json: &str, key: &str) -> f64 {
    json.split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit() && c != '.').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0.0)
}

fn scrape(addr: SocketAddr, pid: u32) -> Metrics {
    let body = Conn::new(addr, CLIENT_TIMEOUT)
        .request("GET", "/metrics", "")
        .map(|r| String::from_utf8_lossy(&r.body).into_owned())
        .unwrap_or_default();
    let hist = body.split("\"serve/request_us\":").nth(1).unwrap_or("");
    Metrics {
        request_us_count: json_num_after(hist, "count"),
        request_us_sum: json_num_after(hist, "sum"),
        shed: json_num_after(&body, "serve/requests_shed"),
        bad_requests: json_num_after(&body, "serve/bad_requests"),
        cpu_ms: host::cpu_ms(pid),
    }
}

/// What one explain send returned.
#[derive(Debug)]
struct Sent {
    item: usize,
    verdict: Result<(), String>,
    written: Instant,
    first_byte: Instant,
    epoch: u64,
    degraded: bool,
    traced: bool,
}

/// One reload of the `uniform` tenant.
struct Reload {
    ms: f64,
    verdict: Result<u64, String>,
}

pub fn run(
    obx: &Path,
    data: &Path,
    memo: &Memo,
    args: &Args,
    trace_out: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let items = catalog(args.seed);

    // The oracle for every catalog entry, outside the timed phases:
    // `run_explain` in this process on a fresh load of the tenant's
    // directory (memoized by request). Reloads re-read the same unchanged
    // directories, so one oracle answer holds for every epoch. Traced runs
    // also replay each entry as split calls for the in-process layers.
    let mut load_ms = 0.0;
    let mut oracle = Vec::with_capacity(items.len());
    let mut layers = vec![None; items.len()];
    let mut loaded: Vec<(&str, LoadedScenario)> = Vec::new();
    for (i, item) in items.iter().enumerate() {
        let memoized = memo.get(&item.body);
        if memoized.is_some() && !args.trace {
            oracle.extend(memoized);
            continue;
        }
        if !loaded.iter().any(|(t, _)| *t == item.tenant) {
            let start = Instant::now();
            let sc = load_dir(&data.join(item.tenant)).map_err(|e| e.to_string())?;
            load_ms += start.elapsed().as_secs_f64() * 1e3;
            loaded.push((item.tenant, sc));
        }
        let sc = &loaded
            .iter()
            .find(|(t, _)| *t == item.tenant)
            .ok_or("no scenario")?
            .1;
        let want = match memoized {
            Some(e) => e,
            None => {
                let e = split::explain(&sc.system, &sc.labels, &item.req)?;
                memo.put(&item.body, &e)?;
                e
            }
        };
        if args.trace {
            let (got, l) = split::explain_split(&sc.system, &sc.labels, &item.req)?;
            check(
                200,
                Some(&got.exit_code.to_string()),
                got.stdout.as_bytes(),
                &want,
            )
            .map_err(|e| format!("split calls differ from run_explain: {e}"))?;
            layers[i] = Some(l);
        }
        oracle.push(want);
    }

    // Start-ups are measured on servers that are stopped again; the
    // measured phases run on one more.
    let setup = crate::inproc::setup_s(|| {
        let t = Instant::now();
        let mut s = Server::start(obx, data)?;
        let secs = t.elapsed().as_secs_f64();
        s.stop();
        Ok(secs)
    })?;
    out.set("setup_s", setup);
    let mut server = Server::start(obx, data)?;
    let (addr, pid) = (server.addr, server.pid());
    // Host-speed probes on the idle server before the run, and after
    // every capacity slice.
    let mut probe = Probe::start()?;
    probe.run_n(20);

    let conns = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cycle = Duration::from_secs_f64(args.seconds as f64 / f64::from(CYCLES));
    let open_slice = cycle.mul_f64(OPEN_SHARE);
    let capacity_slice = cycle - open_slice;
    // Arrivals over the open-loop time of all cycles, placed on the run's
    // clock inside the open-loop slices.
    let open_schedule = |stream: &str, rate: f64| -> Vec<Duration> {
        poisson_schedule(&mut Rng::new(args.seed, stream), rate, open_slice * CYCLES)
            .into_iter()
            .map(|t| on_clock(t, open_slice, cycle))
            .collect()
    };
    let schedule = open_schedule("arrivals", OPEN_RATE);
    let sends = zipf_sends(
        &mut Rng::new(args.seed, "sends"),
        items.len(),
        ZIPF_ALPHA,
        schedule.len() + 100_000,
    );
    let plain_schedule = open_schedule("plain-arrivals", PLAIN_RATE);
    let plain_sends = zipf_sends(
        &mut Rng::new(args.seed, "plain-sends"),
        items.len(),
        ZIPF_ALPHA,
        plain_schedule.len(),
    );
    let trace = std::sync::Mutex::new(Trace::new(Instant::now()));
    // Open-loop and plain sends share this lock; a capacity slice holds it
    // alone, so the phases never overlap: open-loop latency never includes
    // contention from capacity sends, nor capacity from open-loop ones. An
    // open-loop send kept waiting by a slice is charged that wait.
    let phase = std::sync::RwLock::new(());
    // Stream 0 is the open loop (from offset 0) and then the capacity
    // slices (from the end of the schedule); stream 1 is the plain-client
    // stream.
    let streams: [(&[usize], &[Duration]); 2] =
        [(&sends, &schedule), (&plain_sends, &plain_schedule)];
    // `open_start` is the open loop's start (requests are due on the
    // schedule), or `None` in the closed loop (due when sent).
    let exec = |stream: usize, offset: usize, open_start: Option<Instant>| {
        let (items, oracle, trace, phase): (&[Item], &[Expected], _, _) =
            (&items, &oracle, &trace, &phase);
        let (sends, schedule) = streams[stream];
        move |conn: &mut Conn, i: usize| -> Sent {
            let item = sends[offset + i];
            let _open = open_start.map(|_| phase.read().unwrap_or_else(|e| e.into_inner()));
            let start = Instant::now();
            let sent = match conn.request("POST", "/explain", &items[item].body) {
                Ok(r) => Sent {
                    item,
                    verdict: check(r.status, r.header("x-obx-exit"), &r.body, &oracle[item]),
                    written: r.written,
                    first_byte: r.first_byte,
                    epoch: r
                        .header("x-obx-epoch")
                        .and_then(|e| e.parse().ok())
                        .unwrap_or(0),
                    degraded: r.header("x-obx-exit") == Some("2"),
                    traced: args.trace && stream == 0 && (offset + i) % 2 == 1,
                },
                Err(e) => Sent {
                    item,
                    verdict: Err(format!("client: {e}")),
                    written: start,
                    first_byte: start,
                    epoch: 0,
                    degraded: false,
                    traced: false,
                },
            };
            // Traced runs record spans for every other send, from the
            // sending thread, so the two halves measure tracing's cost.
            if sent.traced {
                let done = Instant::now();
                let due = open_start.map_or(start, |t0| t0 + schedule[i]);
                let req = offset + i;
                let mut t = trace.lock().unwrap_or_else(|e| e.into_inner());
                t.push(req, "serve.request", None, due, done);
                for (name, from, to) in [
                    ("serve.wait", due, start),
                    ("serve.write", start, sent.written),
                    ("serve.ttfb", sent.written, sent.first_byte),
                    ("serve.download", sent.first_byte, done),
                ] {
                    t.push(req, name, Some("serve.request"), from, to);
                }
            }
            sent
        }
    };

    // Seeded reloads of one tenant throughout.
    let stop_reloads = AtomicBool::new(false);
    let steal = host::cpu_ticks();
    let m0 = scrape(addr, pid);
    let (open, plain, closed, m1, reloads, closed_s) = std::thread::scope(|s| {
        let reloader = s.spawn(|| {
            let mut rng = Rng::new(args.seed, "reloads");
            let mut done = Vec::new();
            let mut next = Instant::now() + Duration::from_secs_f64(rng.exp(RELOAD_MEAN_S));
            while !stop_reloads.load(Ordering::Relaxed) {
                if Instant::now() < next {
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                }
                // A fresh connection per reload: the server closes keep-alive
                // connections idle for longer than its read timeout (5 s).
                let t = Instant::now();
                let verdict = match Conn::new(addr, CLIENT_TIMEOUT).request(
                    "POST",
                    "/reload",
                    r#"{"scenario":"uniform"}"#,
                ) {
                    Ok(r) if r.status == 200 => r
                        .header("x-obx-epoch")
                        .and_then(|e| e.parse().ok())
                        .ok_or_else(|| "reload reply without epoch".to_owned()),
                    Ok(r) => Err(format!(
                        "reload status {}: {}",
                        r.status,
                        String::from_utf8_lossy(&r.body)
                    )),
                    Err(e) => Err(format!("reload: {e}")),
                };
                done.push(Reload {
                    ms: t.elapsed().as_secs_f64() * 1e3,
                    verdict,
                });
                next += Duration::from_secs_f64(rng.exp(RELOAD_MEAN_S));
            }
            done
        });
        let t0 = Instant::now();
        let (exec, plain_schedule, phase) = (&exec, &plain_schedule, &phase);
        let plain = s.spawn(move || {
            open_loop(
                &mut [Conn::plain(addr, CLIENT_TIMEOUT)],
                t0,
                plain_schedule,
                exec(1, 0, Some(t0)),
            )
        });
        let open_offset = schedule.len();
        let probe = &mut probe;
        let capacity = s.spawn(move || {
            let mut clients: Vec<Conn> = (0..conns)
                .map(|_| Conn::new(addr, CLIENT_TIMEOUT))
                .collect();
            let (mut records, mut busy) = (Vec::new(), Duration::ZERO);
            for k in 1..=CYCLES {
                let end = t0 + cycle * k;
                if let Some(wait) = (end - capacity_slice).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let _slice = phase.write().unwrap_or_else(|e| e.into_inner());
                let start = Instant::now();
                let slice = closed_loop(
                    &mut clients,
                    end - CAPACITY_GUARD,
                    exec(0, open_offset + records.len(), None),
                );
                busy += slice.iter().map(|r| r.done).max().unwrap_or(start) - start;
                records.extend(slice);
                // The slice's sends are all answered and the lock keeps
                // open-loop sends back: probe until the cycle ends.
                let mut n = 0;
                while n < MIN_PROBES || Instant::now() + Duration::from_millis(10) < end {
                    probe.run();
                    n += 1;
                }
            }
            (records, busy)
        });
        // One connection: with one per core, whether a cheap request
        // happened to overlap another on the two cores decided the median,
        // which then moved by 18% between runs (6% over one connection).
        let open = open_loop(
            &mut [Conn::new(addr, CLIENT_TIMEOUT)],
            t0,
            &schedule,
            exec(0, 0, Some(t0)),
        );
        let plain = plain.join().unwrap_or_default();
        let (closed, closed_s) = capacity.join().unwrap_or_default();
        let m1 = scrape(addr, pid);
        stop_reloads.store(true, Ordering::Relaxed);
        let reloads = reloader.join().unwrap_or_default();
        (open, plain, closed, m1, reloads, closed_s.as_secs_f64())
    });
    out.set("peak_rss_mb", host::peak_rss_mib(&pid.to_string()));
    out.set("host.steal_pct", host::steal_pct(steal, host::cpu_ticks()));
    let drained = server.stop();

    // End to end.
    let all: Vec<&Record<Sent>> = open.iter().chain(&plain).chain(&closed).collect();
    let failed: Vec<&Record<Sent>> = all
        .iter()
        .copied()
        .filter(|r| r.out.verdict.is_err())
        .collect();
    for r in failed.iter().take(3) {
        eprintln!(
            "send failed: {}\n  body: {}",
            r.out.verdict.as_ref().unwrap_err(),
            items[r.out.item].body
        );
    }
    let reload_failures: Vec<&String> = reloads
        .iter()
        .filter_map(|r| r.verdict.as_ref().err())
        .collect();
    for e in reload_failures.iter().take(3) {
        eprintln!("reload failed: {e}");
    }
    let epochs: Vec<u64> = reloads
        .iter()
        .filter_map(|r| r.verdict.as_ref().ok().copied())
        .collect();
    let epochs_increase = epochs.windows(2).all(|w| w[0] < w[1]);
    if !drained {
        eprintln!("warning: obx serve did not drain cleanly on SIGTERM");
    }
    out.attempted = all.len();
    out.failed = failed.len();
    out.correct = failed.is_empty()
        && reload_failures.is_empty()
        && epochs_increase
        && !open.is_empty()
        && !closed.is_empty();
    let open_ms: Vec<f64> = open
        .iter()
        .map(|r| {
            if r.out.verdict.is_ok() {
                r.latency().as_secs_f64() * 1e3
            } else {
                f64::MAX
            }
        })
        .collect();
    set_latency(&mut out, &open_ms, TAIL);
    let closed_ok = closed.iter().filter(|r| r.out.verdict.is_ok()).count();
    out.set("throughput_rps", closed_ok as f64 / closed_s.max(1e-9));
    out.set(
        "success_rate",
        (all.len() - failed.len()) as f64 / all.len().max(1) as f64,
    );
    at_reference(&mut out, probe.slowdown()?);
    eprintln!(
        "open loop: {} sends at {OPEN_RATE} rps on 1 connection, {} at {PLAIN_RATE} rps on a plain one; capacity: {} sends on {conns} in {closed_s:.1} s; {} reloads; {} failed",
        open.len(),
        plain.len(),
        closed.len(),
        reloads.len(),
        failed.len()
    );

    // Per layer.
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let repeat = repeat_share(all.iter().map(|r| (r.out.epoch, r.out.item)));
    out.set("serve.repeat_share", repeat);
    if args.trace {
        let mut weights = vec![0.0; items.len()];
        for r in &all {
            weights[r.out.item] += 1.0;
        }
        let samples: Vec<_> = layers
            .into_iter()
            .zip(weights)
            .filter_map(|(l, w)| l.map(|l| (l, w)))
            .collect();
        out.set_layers(&samples);
        out.set(
            "core.degraded_share",
            all.iter().filter(|r| r.out.degraded).count() as f64 / all.len().max(1) as f64,
        );
        out.set("srcdb.load_ms", load_ms);
        let d = (
            m1.request_us_sum - m0.request_us_sum,
            m1.request_us_count - m0.request_us_count,
        );
        // `serve/request_us` is recorded with `record_duration`, which
        // stores nanoseconds whatever the name says.
        out.set("serve.server_ms_mean", d.0 / d.1.max(1.0) / 1e6);
        out.set(
            "serve.send_wait_ms",
            mean(
                &open
                    .iter()
                    .map(|r| ms(r.out.written - r.due))
                    .collect::<Vec<_>>(),
            ),
        );
        out.set(
            "serve.ttfb_ms",
            mean(
                &open
                    .iter()
                    .map(|r| ms(r.out.first_byte - r.out.written))
                    .collect::<Vec<_>>(),
            ),
        );
        out.set(
            "serve.cpu_ms_per_req",
            (m1.cpu_ms - m0.cpu_ms) / all.len().max(1) as f64,
        );
        out.set(
            "serve.reload_ms",
            median(&reloads.iter().map(|r| r.ms).collect::<Vec<_>>()),
        );
        let plain_ok: Vec<&Record<Sent>> = plain.iter().filter(|r| r.out.verdict.is_ok()).collect();
        out.set(
            "serve.stall_share",
            plain_ok
                .iter()
                .filter(|r| ms(r.done - r.out.first_byte) > STALL_MS)
                .count() as f64
                / plain_ok.len().max(1) as f64,
        );
        out.set(
            "serve.plain_p50_ms",
            median(&plain_ok.iter().map(|r| ms(r.latency())).collect::<Vec<_>>()),
        );
        out.set("serve.shed", m1.shed - m0.shed);
        out.set("serve.bad_requests", m1.bad_requests - m0.bad_requests);
        out.set(
            "gen.lag_ms",
            percentile(
                &sorted(&open.iter().map(|r| ms(r.lag())).collect::<Vec<_>>()),
                0.99,
            ),
        );
        let p50 = |traced: bool| {
            let v: Vec<f64> = open
                .iter()
                .filter(|r| r.out.traced == traced)
                .map(|r| ms(r.latency()))
                .collect();
            median(&v)
        };
        out.set("trace.overhead_pct", 100.0 * (p50(true) / p50(false) - 1.0));
        let trace = trace.into_inner().unwrap_or_else(|e| e.into_inner());
        let self_ms = trace.self_ms();
        let sends_ms: Vec<f64> = trace
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.ms())
            .collect();
        out.set(
            "trace.unaccounted_pct",
            100.0 * self_ms.get("serve.request").copied().unwrap_or(0.0)
                / mean(&sends_ms).max(1e-9),
        );
        std::fs::write(trace_out, trace.to_jsonl()).map_err(|e| e.to_string())?;
        eprintln!("self time per send (ms): {self_ms:?}");
    }
    eprintln!("repeat share {repeat:.3}");
    Ok(out)
}
