//! Host facts from `/proc`, and the header every result carries.

use std::path::Path;
use std::process::Command;

/// `(steal, total)` CPU ticks from the first line of `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Steal ticks as a percentage of all ticks between two [`cpu_ticks`].
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User plus system CPU time of a process, in ms (`/proc/<pid>/stat`
/// ticks are 10 ms on Linux).
pub fn cpu_ms(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // utime and stime are fields 14 and 15; the text after the
    // parenthesised command name starts at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|x| x.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 * 10.0
}

/// The git commit of the checkout, when it is a git repository.
pub fn git_head() -> Option<String> {
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// A digest of the sources under test: the workspace manifest and
/// lockfile, every file under `crates/`, and the benchmark's own sources.
/// Unlike the git commit it also covers uncommitted changes, so it keys
/// everything the benchmark keeps between runs (prepared data, oracle
/// answers): a change to the program or its data generators starts afresh.
pub fn source_digest() -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut files = Vec::new();
    collect_files(Path::new("crates"), &mut files);
    collect_files(Path::new("obxbench/src"), &mut files);
    files.extend(
        ["Cargo.toml", "Cargo.lock", "obxbench/Cargo.toml"]
            .into_iter()
            .map(std::path::PathBuf::from),
    );
    files.sort();
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-{h:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else {
            out.push(p);
        }
    }
}

/// The host header: what the numbers were measured on.
pub fn header(workload: &str, seed: u64, digest: &str, steal_start: (u64, u64)) -> String {
    let nproc = Command::new("nproc")
        .output()
        .ok()
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .trim()
                .parse::<usize>()
                .ok()
        })
        .unwrap_or(0);
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        concat!(
            r#"{{"host":{{"workload":"{}","seed":{},"commit":{},"source_digest":"{}","nproc":{},"#,
            r#""available_parallelism":{},"engine_workers":{},"border_workers":{},"#,
            r#""steal_ticks_start":{},"steal_ticks_end":{},"total_ticks":{}}}}}"#
        ),
        workload,
        seed,
        git_head().map_or_else(|| "null".to_owned(), |c| format!("\"{c}\"")),
        digest,
        nproc,
        parallelism,
        obx_core::ScoringEngine::new().threads(),
        obx_srcdb::border_workers(),
        steal_start.0,
        cpu_ticks().0,
        cpu_ticks().1.saturating_sub(steal_start.1),
    )
}
