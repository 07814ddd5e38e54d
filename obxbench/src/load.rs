//! Load generation: seeded arrival schedules and catalog orders, and the
//! open and closed loops that time each request.
//!
//! The loops are generic over the per-connection client `C` and the
//! exchange `exec`, so the timing rules are tested without a server.

use crate::rng::{Rng, Zipf};
use std::collections::HashSet;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Seeded Poisson arrivals at `rate` per second over `duration`, as
/// offsets from the phase start.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, duration: Duration) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut t = rng.exp(1.0 / rate);
    while t < duration.as_secs_f64() {
        out.push(Duration::from_secs_f64(t));
        t += rng.exp(1.0 / rate);
    }
    out
}

/// Places `t`, an offset in open-loop time, on a clock whose cycles each
/// start with an open-loop slice of length `open` and end with a
/// capacity slice (the rest of `cycle`): the offset moves past the
/// capacity slices of the cycles before it.
pub fn on_clock(t: Duration, open: Duration, cycle: Duration) -> Duration {
    let before = (t.as_secs_f64() / open.as_secs_f64()).floor() as u32;
    t + (cycle - open) * before
}

/// `n` catalog indices in Zipf order: catalog entry `k` has popularity
/// rank `k`. Ranks are drawn at the quantiles of a golden-ratio sequence
/// from a seeded start, not independently: every stretch of sends then
/// holds each rank close to its Zipf share, so the cost of the mix in a
/// phase does not swing with sampling noise, while the order still
/// follows the seed.
pub fn zipf_sends(rng: &mut Rng, catalog_len: usize, alpha: f64, n: usize) -> Vec<usize> {
    const GOLDEN: f64 = 0.618_033_988_749_894_9;
    let zipf = Zipf::new(catalog_len, alpha);
    let start = rng.unit();
    (0..n)
        .map(|k| zipf.at((start + k as f64 * GOLDEN).fract()))
        .collect()
}

/// Share of `keys` equal to an earlier key in the sequence: the part of
/// the traffic a result cache could answer.
pub fn repeat_share<K: Hash + Eq>(keys: impl IntoIterator<Item = K>) -> f64 {
    let mut seen = HashSet::new();
    let (mut n, mut repeats) = (0usize, 0usize);
    for k in keys {
        n += 1;
        if !seen.insert(k) {
            repeats += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        repeats as f64 / n as f64
    }
}

/// The timing of one request. `due` is when it was scheduled, `taken`
/// when a connection became free for it, `started` when the generator
/// actually began to send it, `done` when the reply was complete.
#[derive(Debug, Clone)]
pub struct Record<R> {
    pub idx: usize,
    pub due: Instant,
    pub taken: Instant,
    pub started: Instant,
    pub done: Instant,
    pub out: R,
}

impl<R> Record<R> {
    /// Latency from the scheduled send time: a stall delays every request
    /// due during it, and that wait is charged to them.
    pub fn latency(&self) -> Duration {
        self.done - self.due
    }

    /// How late the generator itself sent: time between the request being
    /// both due and sendable and the send starting.
    pub fn lag(&self) -> Duration {
        self.started
            .saturating_duration_since(self.due.max(self.taken))
    }
}

/// Open loop: request `i` is due at `start + schedule[i]` whatever the
/// state of earlier requests. Each client (one connection) sends the
/// earliest unsent request as soon as it is free and the request is due,
/// so at most `clients.len()` requests are outstanding and the rest wait,
/// on the clock, in arrival order.
pub fn open_loop<C: Send, R: Send>(
    clients: &mut [C],
    start: Instant,
    schedule: &[Duration],
    exec: impl Fn(&mut C, usize) -> R + Sync,
) -> Vec<Record<R>> {
    let next = AtomicUsize::new(0);
    drive(clients, &exec, || {
        let idx = next.fetch_add(1, Ordering::Relaxed);
        let due = start + *schedule.get(idx)?;
        let taken = Instant::now();
        if let Some(wait) = due.checked_duration_since(taken) {
            std::thread::sleep(wait);
        }
        Some((idx, due, taken))
    })
}

/// Closed loop: each client sends its next request as soon as its
/// previous one completes, until `until`.
pub fn closed_loop<C: Send, R: Send>(
    clients: &mut [C],
    until: Instant,
    exec: impl Fn(&mut C, usize) -> R + Sync,
) -> Vec<Record<R>> {
    let next = AtomicUsize::new(0);
    drive(clients, &exec, || {
        let now = Instant::now();
        (now < until).then(|| (next.fetch_add(1, Ordering::Relaxed), now, now))
    })
}

/// Runs one worker thread per client; `take` blocks until the worker's
/// next request may start and returns `(idx, due, taken)`, or `None` when
/// the phase is over. Records come back sorted by request index.
fn drive<C: Send, R: Send>(
    clients: &mut [C],
    exec: &(impl Fn(&mut C, usize) -> R + Sync),
    take: impl Fn() -> Option<(usize, Instant, Instant)> + Sync,
) -> Vec<Record<R>> {
    let records = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for client in clients.iter_mut() {
            let (records, take) = (&records, &take);
            s.spawn(move || {
                while let Some((idx, due, taken)) = take() {
                    let started = Instant::now();
                    let out = exec(client, idx);
                    let done = Instant::now();
                    let rec = Record {
                        idx,
                        due,
                        taken,
                        started,
                        done,
                        out,
                    };
                    records.lock().unwrap_or_else(|e| e.into_inner()).push(rec);
                }
            });
        }
    });
    let mut out = records.into_inner().unwrap_or_else(|e| e.into_inner());
    out.sort_by_key(|r| r.idx);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_and_catalog_order_follow_the_seed() {
        let sched =
            |seed| poisson_schedule(&mut Rng::new(seed, "s"), 20.0, Duration::from_secs(10));
        let sends = |seed| zipf_sends(&mut Rng::new(seed, "z"), 40, 1.0, 300);
        assert_eq!(sched(1), sched(1));
        assert_ne!(sched(1), sched(2));
        assert_eq!(sends(1), sends(1));
        assert_ne!(sends(1), sends(2));
        // The serve workload's repeat key is (epoch, entry), and epochs
        // turn over at seeded reload times, so its share follows the seed.
        let share = |seed| {
            let reloads = poisson_schedule(&mut Rng::new(seed, "r"), 0.5, Duration::from_secs(10));
            let epoch = |t: &Duration| reloads.partition_point(|r| r < t);
            repeat_share(
                sched(seed)
                    .iter()
                    .zip(sends(seed))
                    .map(|(t, item)| (epoch(t), item)),
            )
        };
        assert_eq!(share(1), share(1));
        let shares: HashSet<u64> = (1..=6).map(|seed| share(seed).to_bits()).collect();
        assert!(shares.len() > 1, "repeat share varies with the seed");

        // About rate × duration arrivals, strictly increasing, in range.
        let s = sched(5);
        assert!((150..=250).contains(&s.len()), "{} arrivals", s.len());
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|t| *t < Duration::from_secs(10)));
    }

    #[test]
    fn open_loop_time_skips_the_capacity_slices() {
        let ms = Duration::from_millis;
        let place = |t| on_clock(ms(t), ms(800), ms(1000));
        assert_eq!(place(0), ms(0));
        assert_eq!(place(799), ms(799));
        assert_eq!(place(800), ms(1000));
        assert_eq!(place(1700), ms(2100));
        // Every arrival lands in an open-loop slice, in order.
        let s: Vec<Duration> = poisson_schedule(&mut Rng::new(3, "s"), 20.0, ms(4000))
            .into_iter()
            .map(|t| on_clock(t, ms(800), ms(1000)))
            .collect();
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s
            .iter()
            .all(|t| t.as_millis() % 1000 < 800 && *t < ms(5000)));
    }

    #[test]
    fn repeat_share_counts_sends_seen_before() {
        assert_eq!(repeat_share(Vec::<u8>::new()), 0.0);
        assert_eq!(repeat_share([1, 2, 3]), 0.0);
        assert_eq!(repeat_share([1, 1, 2, 1]), 0.5);
        // A Zipf order over a small catalog repeats most sends, and any
        // stretch of it holds rank 0 close to its share (1 / H(20) ≈ 28%).
        let sends = zipf_sends(&mut Rng::new(9, "z"), 20, 1.0, 500);
        assert!(repeat_share(sends.iter()) > 0.9);
        for window in sends.chunks(100) {
            let top = window.iter().filter(|&&r| r == 0).count();
            assert!((25..=31).contains(&top), "{top} of 100");
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_due_during_it() {
        // One connection, a request every 20 ms; request 2 stalls the
        // "server" for 150 ms. Requests 3..=8 fall due during the stall.
        let step = Duration::from_millis(20);
        let schedule: Vec<Duration> = (1..=12).map(|i| step * i).collect();
        let start = Instant::now();
        let recs = open_loop(&mut [()], start, &schedule, |_, idx| {
            let work = if idx == 2 { 150 } else { 2 };
            std::thread::sleep(Duration::from_millis(work));
        });
        assert_eq!(recs.len(), schedule.len());
        let stall_end = recs[2].done;
        for r in &recs[3..=8] {
            // Each waits at least until the stall ends, timed from its due
            // time — not from when the connection freed up.
            assert!(r.due < stall_end);
            assert!(r.latency() >= stall_end - r.due, "request {}", r.idx);
            assert!(r.taken >= stall_end);
            assert!(
                r.lag() < Duration::from_millis(15),
                "lag is the generator's, not the stall's"
            );
        }
        // Requests before the stall are unaffected.
        assert!(recs[1].latency() < Duration::from_millis(15));
        assert!(recs[3].latency() > Duration::from_millis(100));
    }

    #[test]
    fn closed_loop_runs_each_client_until_the_deadline() {
        let until = Instant::now() + Duration::from_millis(60);
        let recs = closed_loop(&mut [0u32, 0u32], until, |n, _| {
            *n += 1;
            std::thread::sleep(Duration::from_millis(5));
        });
        assert!(recs.len() >= 10, "{} requests", recs.len());
        assert!(recs.iter().all(|r| r.taken < until && r.due == r.taken));
        assert!(recs.iter().all(|r| r.lag() < Duration::from_millis(5)));
        let idx: Vec<usize> = recs.iter().map(|r| r.idx).collect();
        assert_eq!(idx, (0..recs.len()).collect::<Vec<_>>());
    }
}
