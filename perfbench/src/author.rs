//! The author's path: parse a spec, compile it cold, then verify a
//! property set in a tabled `Analyzer` session and re-verify through a
//! loop of one-constraint edits. Every step is a call into a public
//! function of `ctr_parser`, `ctr_workflow` or `ctr`.

use crate::trace;
use crate::util::us_since;
use ctr::apply::{apply_all_with, ChannelAlloc, Parallelism};
use ctr::constraints::Constraint;
use ctr::goal::Goal;
use ctr::memo::Analyzer;
use std::time::Instant;

/// One spec and the queries an author runs on it.
#[derive(Clone)]
pub struct Task {
    pub source: String,
    pub properties: Vec<Constraint>,
    /// One-constraint edits, applied in order: replace constraint
    /// `index % len`, or add when the spec has no constraints.
    pub edits: Vec<(usize, Constraint)>,
}

/// What one pass over a task measured and answered.
pub struct Outcome {
    /// parse + to_goal + unique-event check + Apply + Excise, µs.
    pub compile_us: f64,
    pub parse_us: f64,
    pub to_goal_us: f64,
    pub apply_us: f64,
    pub excise_us: f64,
    pub applied_size: usize,
    pub knots: usize,
    /// Each verify call, µs, in query order.
    pub verify_us: Vec<f64>,
    /// Each verdict (`holds`), in query order.
    pub verdicts: Vec<bool>,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub memo_entries: usize,
    /// The spec constraints and the compiled goal, for the checks made
    /// after timing.
    pub constraints: Vec<Constraint>,
    pub compiled: Goal,
}

pub fn run(task: &Task, req: u64) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let spec = trace::span("parser.parse_spec", req, || {
        ctr_parser::parse_spec(&task.source)
    })
    .map_err(|e| format!("parse: {e}"))?;
    let parse_us = us_since(t0);
    let t1 = Instant::now();
    let goal = trace::span("workflow.to_goal", req, || spec.to_goal());
    let to_goal_us = us_since(t1);
    ctr::check_unique_events(&goal).map_err(|e| format!("unique events: {e}"))?;
    let t2 = Instant::now();
    let applied = trace::span("core.apply", req, || {
        if spec.constraints.is_empty() {
            goal.clone()
        } else {
            let mut channels = ChannelAlloc::fresh_for(&goal);
            apply_all_with(&spec.constraints, &goal, &mut channels, Parallelism::Auto)
        }
    });
    let apply_us = us_since(t2);
    let t3 = Instant::now();
    let excised = trace::span("core.excise", req, || {
        ctr::excise::excise_with_diagnostics_par(&applied, Parallelism::Auto)
    });
    let excise_us = us_since(t3);
    let compile_us = us_since(t0);

    let mut analyzer = Analyzer::new(&goal, &spec.constraints).map_err(|e| e.to_string())?;
    let mut verify_us = Vec::new();
    let mut verdicts = Vec::new();
    let mut verify_all = |analyzer: &mut Analyzer| {
        for p in &task.properties {
            let t = Instant::now();
            let holds = trace::span("core.memo.verify", req, || analyzer.verify(p).holds());
            verify_us.push(us_since(t));
            verdicts.push(holds);
        }
    };
    verify_all(&mut analyzer);
    for (index, c) in &task.edits {
        let n = analyzer.constraints().len();
        if n == 0 {
            analyzer.add_constraint(c.clone());
        } else {
            analyzer.replace_constraint(index % n, c.clone());
        }
        verify_all(&mut analyzer);
    }
    let memo = analyzer.stats();
    Ok(Outcome {
        compile_us,
        parse_us,
        to_goal_us,
        apply_us,
        excise_us,
        applied_size: applied.size(),
        knots: excised.reports.len(),
        verify_us,
        verdicts,
        memo_hits: memo.hits,
        memo_misses: memo.misses,
        memo_entries: memo.entries,
        constraints: spec.constraints,
        compiled: excised.goal,
    })
}

/// The constraint set in force at each verification stage of `task`
/// (the spec's own set, then after each edit).
fn stages(task: &Task, base: &[Constraint]) -> Vec<Vec<Constraint>> {
    let mut current = base.to_vec();
    let mut out = vec![current.clone()];
    for (index, c) in &task.edits {
        if current.is_empty() {
            current.push(c.clone());
        } else {
            let n = current.len();
            current[index % n] = c.clone();
        }
        out.push(current.clone());
    }
    out
}

/// The answers a task must get, computed without the tabled session:
/// the compiled goal from `analysis::compile`, and each verdict from the
/// trace-semantics oracle when the spec is small enough to enumerate,
/// from untabled `analysis::verify` otherwise.
pub struct Reference {
    pub compiled: Goal,
    pub verdicts: Vec<bool>,
    pub by_oracle: bool,
}

pub fn reference(task: &Task, oracle_budget: usize) -> Result<Reference, String> {
    let spec = ctr_parser::parse_spec(&task.source).map_err(|e| format!("parse: {e}"))?;
    let goal = spec.to_goal();
    let compiled = ctr::analysis::compile(&goal, &spec.constraints).map_err(|e| e.to_string())?;
    let small = trace_bound(&goal).1 <= oracle_budget as f64;
    let traces = if small && !compiled.has_conditions {
        ctr::semantics::event_traces(&goal, oracle_budget).ok()
    } else {
        None
    };
    let mut verdicts = Vec::new();
    for stage in stages(task, &spec.constraints) {
        for p in &task.properties {
            verdicts.push(match &traces {
                Some(traces) => traces
                    .iter()
                    .filter(|t| stage.iter().all(|c| ctr::semantics::satisfies(t, c)))
                    .all(|t| ctr::semantics::satisfies(t, p)),
                None => ctr::analysis::verify(&goal, &stage, p)
                    .map_err(|e| e.to_string())?
                    .holds(),
            });
        }
    }
    Ok(Reference {
        compiled: compiled.goal,
        verdicts,
        by_oracle: traces.is_some(),
    })
}

impl Reference {
    /// Whether a timed pass answered exactly this.
    pub fn check(&self, outcome: &Outcome) -> Result<(), String> {
        if outcome.compiled != self.compiled {
            return Err("compiled goal differs from analysis::compile".into());
        }
        if outcome.verdicts != self.verdicts {
            return Err(format!(
                "verdicts {:?} differ from the reference {:?}",
                outcome.verdicts, self.verdicts
            ));
        }
        Ok(())
    }
}

/// An upper bound on a goal's token traces, as (longest trace, trace
/// count), so the enumerating oracle only ever sees goals it can finish.
fn trace_bound(goal: &Goal) -> (f64, f64) {
    fn ln_factorial(n: f64) -> f64 {
        (1..=n as u64).map(|k| (k as f64).ln()).sum()
    }
    match goal {
        Goal::Atom(_) | Goal::Send(_) | Goal::Receive(_) => (1.0, 1.0),
        Goal::Empty => (0.0, 1.0),
        Goal::NoPath => (0.0, 0.0),
        Goal::Isolated(g) | Goal::Possible(g) => trace_bound(g),
        Goal::Seq(gs) => gs
            .iter()
            .map(trace_bound)
            .fold((0.0, 1.0), |(l, c), (gl, gc)| (l + gl, c * gc)),
        Goal::Or(gs) => gs
            .iter()
            .map(trace_bound)
            .fold((0.0, 0.0), |(l, c), (gl, gc)| (l.max(gl), c + gc)),
        Goal::Conc(gs) => {
            let parts: Vec<(f64, f64)> = gs.iter().map(trace_bound).collect();
            let len: f64 = parts.iter().map(|p| p.0).sum();
            let ln_interleavings =
                ln_factorial(len) - parts.iter().map(|p| ln_factorial(p.0)).sum::<f64>();
            let count = parts.iter().map(|p| p.1).product::<f64>() * ln_interleavings.exp();
            (len, count)
        }
    }
}
