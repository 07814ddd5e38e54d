//! One explanation request, run either as the product runs it
//! (`run_explain`) or split into the three public calls `run_explain`
//! makes, timed one by one with the program's own per-request profile
//! attached.

use crate::check::Expected;
use obx_core::budget::CancelToken;
use obx_core::explain::{ExplainTask, SearchLimits, Strategy};
use obx_core::labels::Labels;
use obx_core::service::{render_report_text, run_explain, ExplainRequest};
use obx_core::strategies::{BeamSearch, GreedyUcq};
use obx_obdm::ObdmSystem;
use obx_util::obs::Recorder;
use std::time::Instant;

/// `run_explain`, as the product path runs it.
pub fn explain(
    system: &ObdmSystem,
    labels: &Labels,
    req: &ExplainRequest,
) -> Result<Expected, String> {
    run_explain(system, labels, req, req.budget(&CancelToken::new()))
        .map(|o| Expected {
            stdout: o.stdout,
            exit_code: o.exit_code,
        })
        .map_err(|e| e.to_string())
}

/// What one split request measured, per layer.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub start: Option<Instant>,
    pub prepared: Option<Instant>,
    pub searched: Option<Instant>,
    pub rendered: Option<Instant>,
    pub border_atoms: f64,
    pub candidates: f64,
    pub evals: f64,
    pub evals_saved: f64,
    pub pruned: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub score_batch_ms: f64,
    pub rewrite_ms: f64,
    pub rewrite_disjuncts: f64,
    pub unfold_ms: f64,
    pub src_disjuncts: f64,
    pub join_nodes: f64,
    pub degraded: bool,
}

fn ms(a: Option<Instant>, b: Option<Instant>) -> f64 {
    match (a, b) {
        (Some(a), Some(b)) => (b - a).as_secs_f64() * 1e3,
        _ => 0.0,
    }
}

impl Layers {
    pub fn prepare_ms(&self) -> f64 {
        ms(self.start, self.prepared)
    }
    pub fn search_ms(&self) -> f64 {
        ms(self.prepared, self.searched)
    }
    pub fn render_ms(&self) -> f64 {
        ms(self.searched, self.rendered)
    }
    pub fn total_ms(&self) -> f64 {
        ms(self.start, self.rendered)
    }
}

/// The search limits `run_explain` derives from a request.
fn limits(req: &ExplainRequest) -> SearchLimits {
    let mut limits = SearchLimits {
        top_k: req.top,
        ..SearchLimits::default()
    };
    if let Some(n) = req.max_atoms {
        limits.max_atoms = n;
    }
    if let Some(n) = req.beam_width {
        limits.beam_width = n;
    }
    limits
}

/// The request as `run_explain`'s three public calls — border preparation
/// (`ExplainTask::new_with_budget`), search (`explain_with_status`) and
/// rendering (`render_report_text`) — with a recorder on the budget so
/// the program's own profile gives the split below the search. Join
/// nodes come from the process-wide counters, so they are valid only
/// while one request runs at a time.
pub fn explain_split(
    system: &ObdmSystem,
    labels: &Labels,
    req: &ExplainRequest,
) -> Result<(Expected, Layers), String> {
    let strategy: Box<dyn Strategy> = match req.strategy.as_str() {
        "beam" => Box::new(BeamSearch),
        "greedy" => Box::new(GreedyUcq::default()),
        other => return Err(format!("the split covers beam and greedy, not `{other}`")),
    };
    let scoring = req.scoring_for(labels);
    let budget = req
        .budget(&CancelToken::new())
        .with_recorder(Recorder::new());
    let nodes = || {
        let (legacy, guided) = obx_query::eval::node_counts();
        (legacy + guided) as f64
    };
    let nodes_before = nodes();
    let mut l = Layers {
        start: Some(Instant::now()),
        ..Layers::default()
    };
    let task =
        ExplainTask::new_with_budget(system, labels, req.radius, &scoring, limits(req), budget)
            .map_err(|e| format!("task: {e}"))?;
    l.prepared = Some(Instant::now());
    let report = strategy
        .explain_with_status(&task)
        .map_err(|e| format!("explain: {e}"))?;
    l.searched = Some(Instant::now());
    let (stdout, exit_code) =
        render_report_text(&report, system, task.budget().guard_trip(), req.mode);
    l.rendered = Some(Instant::now());
    l.join_nodes = nodes() - nodes_before;

    let prepared = task.prepared();
    l.border_atoms = prepared
        .pos()
        .iter()
        .chain(prepared.neg())
        .map(|(_, border)| border.len() as f64)
        .sum();
    let engine = task.engine();
    l.evals = engine.eval_calls() as f64;
    l.evals_saved = engine.evals_saved() as f64;
    l.cache_hits = engine.cache_hits() as f64;
    l.cache_misses = engine.cache_misses() as f64;
    l.pruned = report.pruned as f64;
    let p = &report.profile;
    let counter = |span: &str, key: &str| p.span(span).map_or(0.0, |s| s.counter(key) as f64);
    l.candidates = counter("score_batch", "candidates");
    l.score_batch_ms = p.wall_ms("score_batch");
    l.rewrite_ms = p.wall_ms("rewrite");
    l.rewrite_disjuncts = counter("rewrite", "disjuncts");
    l.unfold_ms = p.wall_ms("unfold");
    l.src_disjuncts = counter("unfold", "src_disjuncts");
    l.degraded = exit_code == 2;
    Ok((Expected { stdout, exit_code }, l))
}
