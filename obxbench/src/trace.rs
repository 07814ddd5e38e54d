//! Spans recorded by the traced run, from the benchmark's own code around
//! its calls into each layer. Spans are kept in memory and written out as
//! JSON lines when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub req: usize,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn push(
        &mut self,
        req: usize,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            req,
            name,
            parent,
            start,
            end,
        });
    }

    /// Mean self time per span name, in ms: each span's duration minus
    /// the part covered by its children (spans of the same request that
    /// name it as parent).
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ms: BTreeMap<(usize, &'static str), f64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ms.entry((s.req, p)).or_default() += s.ms();
            }
        }
        let mut sums: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for s in &self.spans {
            let own = s.ms() - child_ms.get(&(s.req, s.name)).copied().unwrap_or(0.0);
            let e = sums.entry(s.name).or_default();
            e.0 += own;
            e.1 += 1;
        }
        sums.into_iter()
            .map(|(k, (sum, n))| (k, sum / n as f64))
            .collect()
    }

    pub fn to_jsonl(&self) -> String {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                r#"{{"req":{},"name":"{}","parent":{},"start_us":{:.1},"end_us":{:.1}}}"#,
                s.req,
                s.name,
                s.parent.map_or("null".to_owned(), |p| format!("\"{p}\"")),
                us(s.start),
                us(s.end)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let mut t = Trace::new(t0);
        t.push(0, "request", None, at(0), at(100));
        t.push(0, "prepare", Some("request"), at(0), at(30));
        t.push(0, "search", Some("request"), at(30), at(90));
        t.push(1, "request", None, at(100), at(150));
        t.push(1, "search", Some("request"), at(100), at(150));
        let s = t.self_ms();
        assert!((s["request"] - 5.0).abs() < 1e-6, "(10 + 0) / 2");
        assert!((s["search"] - 55.0).abs() < 1e-6);
        assert_eq!(t.to_jsonl().lines().count(), 5);
    }
}
