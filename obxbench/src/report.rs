//! The metric tables and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! unit test keeps the two in step.

use crate::split::Layers;
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by untraced runs (`--trace 0`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by traced runs (`--trace 1`); per request
/// unless the name says otherwise. A layer a workload does not reach
/// reports 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("srcdb.load_ms", "ms"),
    ("srcdb.snapshot_read_ms", "ms"),
    ("srcdb.lazy_index_ms", "ms"),
    ("srcdb.border_ms", "ms"),
    ("srcdb.border_atoms", "count"),
    ("core.search_ms", "ms"),
    ("core.render_ms", "ms"),
    ("core.candidates", "count"),
    ("core.evals", "count"),
    ("core.evals_saved", "count"),
    ("core.pruned", "count"),
    ("core.prune_rate", "ratio"),
    ("core.memo_hit_rate", "ratio"),
    ("core.degraded_share", "ratio"),
    ("core.score_batch_ms", "ms"),
    ("query.join_nodes", "count"),
    ("query.rewrite_ms", "ms"),
    ("query.rewrite_disjuncts", "count"),
    ("mapping.unfold_ms", "ms"),
    ("mapping.src_disjuncts", "count"),
    ("serve.server_ms_mean", "ms"),
    ("serve.send_wait_ms", "ms"),
    ("serve.ttfb_ms", "ms"),
    ("serve.cpu_ms_per_req", "ms"),
    ("serve.reload_ms", "ms"),
    ("serve.stall_share", "ratio"),
    ("serve.plain_p50_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.bad_requests", "count"),
    ("serve.repeat_share", "ratio"),
    ("gen.lag_ms", "ms"),
    ("host.steal_pct", "%"),
    ("host.slowdown", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.unaccounted_pct", "%"),
];

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// False when any output check failed.
    pub correct: bool,
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Per-layer metrics from split requests, each weighted by how often
    /// the request was sent.
    pub fn set_layers(&mut self, samples: &[(Layers, f64)]) {
        let total: f64 = samples.iter().map(|(_, w)| w).sum();
        let mean = |f: &dyn Fn(&Layers) -> f64| {
            if total == 0.0 {
                0.0
            } else {
                samples.iter().map(|(l, w)| f(l) * w).sum::<f64>() / total
            }
        };
        let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
        self.set("srcdb.border_ms", mean(&|l| l.prepare_ms()));
        self.set("srcdb.border_atoms", mean(&|l| l.border_atoms));
        self.set("core.search_ms", mean(&|l| l.search_ms()));
        self.set("core.render_ms", mean(&|l| l.render_ms()));
        let candidates = mean(&|l| l.candidates);
        let pruned = mean(&|l| l.pruned);
        self.set("core.candidates", candidates);
        self.set("core.evals", mean(&|l| l.evals));
        self.set("core.evals_saved", mean(&|l| l.evals_saved));
        self.set("core.pruned", pruned);
        self.set("core.prune_rate", ratio(pruned, pruned + candidates));
        let hits = mean(&|l| l.cache_hits);
        self.set(
            "core.memo_hit_rate",
            ratio(hits, hits + mean(&|l| l.cache_misses)),
        );
        self.set(
            "core.degraded_share",
            mean(&|l| f64::from(u8::from(l.degraded))),
        );
        self.set("core.score_batch_ms", mean(&|l| l.score_batch_ms));
        self.set("query.join_nodes", mean(&|l| l.join_nodes));
        self.set("query.rewrite_ms", mean(&|l| l.rewrite_ms));
        self.set("query.rewrite_disjuncts", mean(&|l| l.rewrite_disjuncts));
        self.set("mapping.unfold_ms", mean(&|l| l.unfold_ms));
        self.set("mapping.src_disjuncts", mean(&|l| l.src_disjuncts));
    }

    /// The result line: the last line the benchmark prints.
    pub fn result_line(&self, traced: bool) -> String {
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                r#"{sep}"{name}": {{"value": {}, "unit": "{unit}"}}"#,
                json_num(value)
            );
        }
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
            self.correct, self.attempted, self.failed
        )
    }
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Puts the window's end-to-end times at reference speed (see
/// `calib.rs`): latencies are divided by the run's host slowdown and
/// throughput is multiplied by it. The measured values go to stderr.
pub fn at_reference(out: &mut Outcome, slowdown: f64) {
    eprintln!(
        "host slowdown {slowdown:.4}; measured p50 {:.3} ms, tail {:.3} ms, throughput {:.4}/s",
        out.values.get("latency_p50_ms").copied().unwrap_or(0.0),
        out.values.get("latency_tail_ms").copied().unwrap_or(0.0),
        out.values.get("throughput_rps").copied().unwrap_or(0.0),
    );
    for name in ["latency_p50_ms", "latency_tail_ms"] {
        if let Some(v) = out.values.get_mut(name) {
            *v /= slowdown;
        }
    }
    if let Some(v) = out.values.get_mut("throughput_rps") {
        *v *= slowdown;
    }
    out.set("host.slowdown", slowdown);
}

/// Latency summary of `ms` samples at the workload's tail percentile.
/// Warns when the run was too short for ten samples beyond the tail.
pub fn set_latency(out: &mut Outcome, ms: &[f64], tail: f64) {
    let sorted = stats::sorted(ms);
    if sorted.is_empty() {
        return;
    }
    if stats::tail_percentile(sorted.len()) != Some(tail) {
        eprintln!(
            "warning: {} samples, {} beyond the reported p{:.0}; the tail rule picks {:?} at this count",
            sorted.len(),
            stats::beyond(sorted.len(), tail),
            tail * 100.0,
            stats::tail_percentile(sorted.len())
        );
    }
    out.set("latency_p50_ms", stats::percentile(&sorted, 0.5));
    out.set("latency_tail_ms", stats::percentile(&sorted, tail));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics this file reports.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\"")
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let s = &entry[entry.find(key).expect("field") + key.len()..];
                        let s = &s[s.find('"').expect("value") + 1..];
                        s[..s.find('"').expect("value end")].to_owned()
                    };
                    (field(":"), field("\"unit\""))
                })
                .collect()
        };
        let code = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), code(&END_TO_END));
        assert_eq!(declared("per_layer"), code(&PER_LAYER));
    }

    #[test]
    fn times_are_put_at_reference_speed() {
        let mut o = Outcome::default();
        o.set("latency_p50_ms", 120.0);
        o.set("latency_tail_ms", 300.0);
        o.set("throughput_rps", 4.0);
        o.set("peak_rss_mb", 20.0);
        at_reference(&mut o, 1.5);
        assert_eq!(o.values["latency_p50_ms"], 80.0);
        assert_eq!(o.values["latency_tail_ms"], 200.0);
        assert_eq!(o.values["throughput_rps"], 6.0);
        assert_eq!(o.values["peak_rss_mb"], 20.0);
        assert_eq!(o.values["host.slowdown"], 1.5);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            failed: 0,
            correct: true,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.set(name, 1.25);
        }
        let line = o.result_line(false);
        assert!(line.starts_with(r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"latency_p50_ms": {"value": 1.25, "unit": "ms"}"#));
        assert_eq!(
            o.result_line(true).matches("\"unit\"").count(),
            PER_LAYER.len()
        );
    }
}
