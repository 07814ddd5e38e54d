//! Host-speed calibration.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by a third and more over minutes: the same requests took 103 to 165 ms
//! at the median in sets of runs an hour apart, and process CPU time per
//! request moved as much as wall time. No run length averages that out.
//! So every run also times a fixed piece of work that shares no code with
//! obx (the probe) next to its own work, and reports times at reference
//! speed: a time `t` measured while the probe took `p` ms at the median is
//! reported as `t · REFERENCE_MS / p`. A change to obx moves `t` and not
//! `p`; a slower host moves both.
//!
//! The probe runs on every core at once and takes as long as its slowest
//! copy, as obx's scoring pool and server threads wait for their slowest
//! worker. On a noisy host, in eight runs of each workload, explain-uniform
//! p50 at reference speed spread by 0.19 of its median with a probe on one
//! core and by 0.14 with one on every core (0.31 as measured); serve-zipf
//! p50 by 0.16 and 0.09 (0.15 as measured).

use crate::stats::median;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// What the probe takes at reference speed, in ms: about its median on
/// a 2-vCPU Xeon guest, so reported times read close to wall times there.
pub const REFERENCE_MS: f64 = 3.0;

const KEYS: usize = 1 << 15;
const SLOTS: usize = 1 << 17;
const TABLE: usize = 1 << 20;

/// The host-speed probe of a run. The work runs in a child process of its
/// own (`obxbench probe`), so its 5 MiB of buffers per core stay out of
/// the peak resident set the in-process workloads report; the child times
/// the work itself, so the pipe round trip is not part of a probe's time.
pub struct Probe {
    child: Child,
    to: Option<ChildStdin>,
    from: BufReader<ChildStdout>,
    /// Every probe time of the run, in ms.
    samples: Vec<f64>,
    /// The first failure to get a probe time, if any.
    failed: Option<String>,
}

impl Probe {
    pub fn start() -> Result<Probe, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("probe")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("probe process: {e}"))?;
        let to = child.stdin.take();
        let from = child.stdout.take().map(BufReader::new);
        match from {
            Some(from) if to.is_some() => Ok(Probe {
                child,
                to,
                from,
                samples: Vec::new(),
                failed: None,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err("probe process without pipes".to_owned())
            }
        }
    }

    /// Times the probe once and records the time.
    pub fn run(&mut self) {
        match self.ask() {
            Ok(ms) => self.samples.push(ms),
            Err(e) => {
                self.failed.get_or_insert(e);
            }
        }
    }

    fn ask(&mut self) -> Result<f64, String> {
        let to = self.to.as_mut().ok_or("probe process closed")?;
        to.write_all(b"\n")
            .and_then(|()| to.flush())
            .map_err(|e| format!("probe process: {e}"))?;
        let mut line = String::new();
        self.from
            .read_line(&mut line)
            .map_err(|e| format!("probe process: {e}"))?;
        line.trim()
            .parse()
            .map_err(|_| format!("probe process answered {line:?}"))
    }

    /// Times the probe `n` times.
    pub fn run_n(&mut self, n: usize) {
        for _ in 0..n {
            self.run();
        }
    }

    /// The run's host speed: how many times slower than reference speed
    /// the median probe was. An error when a probe failed or none ran.
    pub fn slowdown(&self) -> Result<f64, String> {
        match &self.failed {
            Some(e) => Err(e.clone()),
            None if self.samples.is_empty() => Err("no host-speed probe ran".to_owned()),
            None => Ok(slowdown(&self.samples)),
        }
    }
}

impl Drop for Probe {
    /// Closing the pipe ends the child's loop; waits for it to exit.
    fn drop(&mut self) {
        drop(self.to.take());
        let _ = self.child.wait();
    }
}

/// Median probe time over reference: how many times slower than
/// reference speed the host ran.
pub fn slowdown(samples: &[f64]) -> f64 {
    median(samples) / REFERENCE_MS
}

/// The body of `obxbench probe`: per line read from standard input, runs
/// one copy of the work on each core at once and answers with the time
/// until the last copy ended, in ms, until the input closes.
pub fn serve_probes() -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut works: Vec<Work> = (0..cores).map(|_| Work::default()).collect();
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        line.map_err(|e| e.to_string())?;
        let t = Instant::now();
        std::thread::scope(|s| {
            let (first, rest) = works.split_at_mut(1);
            for w in rest {
                s.spawn(move || std::hint::black_box(w.run(std::hint::black_box(0x9e37_79b9))));
            }
            std::hint::black_box(first[0].run(std::hint::black_box(0x9e37_79b9)));
        });
        writeln!(out, "{}", t.elapsed().as_secs_f64() * 1e3)
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The probe's buffers, allocated once, so the probe does not depend on
/// the allocator and costs the same every time.
struct Work {
    keys: Vec<u64>,
    sorted: Vec<u64>,
    slots: Vec<u64>,
    table: Vec<u32>,
}

impl Default for Work {
    fn default() -> Self {
        Work {
            keys: vec![0; KEYS],
            sorted: vec![0; KEYS],
            slots: vec![0; SLOTS],
            table: vec![0; TABLE],
        }
    }
}

impl Work {
    /// A fixed mix shaped like obx's inner loops: hashing into an
    /// open-addressing table, a sort, a 4 MiB table write and a chain of
    /// dependent reads through it. Returns a checksum so the optimizer
    /// keeps the work.
    fn run(&mut self, seed: u64) -> u64 {
        let mut x = seed | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for k in &mut self.keys {
            *k = next() % (KEYS as u64 * 4) + 1;
        }
        self.slots.fill(0);
        let mask = SLOTS - 1;
        for &k in &self.keys {
            let mut at = (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as usize & mask;
            while self.slots[at] != 0 && self.slots[at] != k {
                at = (at + 1) & mask;
            }
            self.slots[at] = k;
        }
        let mut hits = 0u64;
        for _ in 0..KEYS {
            let k = next() % (KEYS as u64 * 4) + 1;
            let mut at = (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as usize & mask;
            while self.slots[at] != 0 {
                if self.slots[at] == k {
                    hits += 1;
                    break;
                }
                at = (at + 1) & mask;
            }
        }
        self.sorted.copy_from_slice(&self.keys);
        self.sorted.sort_unstable();
        for (i, t) in self.table.iter_mut().enumerate() {
            *t = (i as u32).wrapping_mul(2_654_435_761);
        }
        let mut acc = 0u64;
        let mut at = 0usize;
        for _ in 0..(1 << 18) {
            at = (at + self.table[at] as usize) & (TABLE - 1);
            acc = acc.wrapping_add(u64::from(self.table[at]));
        }
        hits ^ acc ^ self.sorted[KEYS / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_work_is_fixed_and_slowdown_is_the_median_over_reference() {
        let mut w = Work::default();
        let a = w.run(5);
        assert_eq!(w.run(5), a, "the probe does the same work every time");
        let r = REFERENCE_MS;
        assert_eq!(slowdown(&[2.0 * r, 0.5 * r, r]), 1.0);
        assert_eq!(slowdown(&[2.0 * r, 0.5 * r, r, 3.0 * r, 2.5 * r]), 2.0);
    }
}
