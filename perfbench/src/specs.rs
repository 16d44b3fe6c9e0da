//! Seeded workflow specifications and the traces planned over them.
//!
//! Everything here is benchmark input: `.ctr` source text made from the
//! seed, and for served workloads one planned trace per instance. A trace
//! is planned by walking a scratch runtime's observable eligible set with
//! the seeded generator, so it is a legal schedule of the compiled spec;
//! it is then checked against every constraint with the trace semantics,
//! which is independent of the compiler.

use crate::util::Rng;
use ctr::constraints::Constraint;
use ctr::symbol::sym;
use ctr_runtime::{InstanceStatus, SharedRuntime};
use ctr_workflow::WorkflowSpec;
use std::fmt::Write as _;

/// A layered workflow: `layers` sequential stages, each `lanes`
/// concurrent `l/r` choices, with `orders` seeded order constraints of
/// form `form` (`before` or `klein_order`) between lanes of one stage.
/// Each constraint runs from a lower lane to a higher one, so the set is
/// acyclic, and each compiles to a `send`/`receive` channel pair. A
/// `before` makes both its events occur, so every cell has one seeded
/// side that all its constraints name, which keeps the set consistent.
pub fn layered_source(
    name: &str,
    form: &str,
    shape: (usize, usize),
    orders: usize,
    rng: &mut Rng,
) -> String {
    let (layers, lanes) = shape;
    let mut src = format!("workflow {name} {{\n    graph ");
    for i in 0..layers {
        if i > 0 {
            src.push_str(" * ");
        }
        src.push('(');
        for j in 0..lanes {
            if j > 0 {
                src.push_str(" # ");
            }
            let _ = write!(src, "(l{i}_{j} + r{i}_{j})");
        }
        src.push(')');
    }
    src.push_str(";\n");
    let side: Vec<char> = (0..layers * lanes)
        .map(|_| if rng.chance(0.5) { 'l' } else { 'r' })
        .collect();
    for _ in 0..orders {
        let i = rng.below(layers);
        let a = rng.below(lanes - 1);
        let b = a + 1 + rng.below(lanes - a - 1);
        let (mut x, mut y) = (side[i * lanes + a], side[i * lanes + b]);
        if form != "before" {
            x = if rng.chance(0.5) { 'l' } else { 'r' };
            y = if rng.chance(0.5) { 'l' } else { 'r' };
        }
        let _ = writeln!(src, "    constraint {form}({x}{i}_{a}, {y}{i}_{b});");
    }
    src.push('}');
    src
}

/// Renders a generated goal and constraint set as spec source.
pub fn spec_source(name: &str, goal: &ctr::goal::Goal, constraints: &[Constraint]) -> String {
    let mut src = format!("workflow {name} {{\n    graph {goal};\n");
    for c in constraints {
        let _ = writeln!(src, "    constraint {c};");
    }
    src.push('}');
    src
}

/// One planned instance run: the events to fire, the status each fire
/// answers, and the observable eligible set (sorted) before each fire
/// and after the last.
#[derive(Clone, Debug)]
pub struct Plan {
    pub events: Vec<String>,
    pub completed_after: Vec<bool>,
    pub eligible: Vec<Vec<String>>,
}

impl Plan {
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

fn is_tick(name: &str) -> bool {
    ctr::timer::parse_tick(name).is_some()
}

/// The observable eligible set of `id`, ticks removed, sorted.
pub fn eligible_sorted(rt: &SharedRuntime, id: u64) -> Vec<String> {
    let mut names: Vec<String> = rt
        .eligible(id)
        .expect("planning instance exists")
        .into_iter()
        .filter(|n| !is_tick(n))
        .collect();
    names.sort();
    names
}

/// Plans `count` traces of the workflow deployed from `source`, checking
/// each against the spec's constraints. Returns the plans and the parsed
/// spec.
pub fn plan_traces(
    source: &str,
    count: usize,
    rng: &mut Rng,
) -> Result<(WorkflowSpec, Vec<Plan>), String> {
    let spec = ctr_parser::parse_spec(source).map_err(|e| format!("parse: {e}"))?;
    let rt = SharedRuntime::new();
    let name = rt
        .deploy_source(source)
        .map_err(|e| format!("deploy: {e}"))?;
    let mut plans = Vec::with_capacity(count);
    for _ in 0..count {
        let id = rt.start(&name).map_err(|e| format!("start: {e}"))?;
        let mut plan = Plan {
            events: Vec::new(),
            completed_after: Vec::new(),
            eligible: Vec::new(),
        };
        loop {
            let eligible = eligible_sorted(&rt, id);
            plan.eligible.push(eligible.clone());
            if eligible.is_empty() {
                break;
            }
            let event = eligible[rng.below(eligible.len())].clone();
            let status = rt
                .fire(id, &event)
                .map_err(|e| format!("plan fire {event}: {e}"))?;
            plan.events.push(event);
            plan.completed_after
                .push(status == InstanceStatus::Completed);
            if status == InstanceStatus::Completed {
                plan.eligible.push(Vec::new());
                break;
            }
        }
        let trace: Vec<ctr::Symbol> = plan.events.iter().map(|e| sym(e)).collect();
        for c in &spec.constraints {
            if !ctr::semantics::satisfies(&trace, c) {
                return Err(format!("planned trace {:?} violates {c}", plan.events));
            }
        }
        plans.push(plan);
    }
    Ok((spec, plans))
}

/// Properties an author checks on a spec: each of its own constraints
/// (which the compiled spec must satisfy) plus `extra` seeded Klein
/// constraints over its events.
pub fn properties(spec: &WorkflowSpec, extra: usize, rng: &mut Rng) -> Vec<Constraint> {
    let mut props: Vec<Constraint> = spec.constraints.clone();
    let events: Vec<ctr::Symbol> = spec
        .to_goal()
        .events()
        .into_iter()
        .filter(|e| !is_tick(e.as_str()))
        .collect();
    if events.len() >= 2 {
        for _ in 0..extra {
            props.push(random_constraint(&events, rng));
        }
    }
    props
}

/// A seeded Klein order, Klein existence or primitive constraint.
pub fn random_constraint(events: &[ctr::Symbol], rng: &mut Rng) -> Constraint {
    let shape = rng.below(4).saturating_sub(1);
    constraint_of_shape(shape, events, rng)
}

/// A constraint of shape `shape % 3` (Klein order, Klein existence,
/// existence) over seeded distinct events.
pub fn constraint_of_shape(shape: usize, events: &[ctr::Symbol], rng: &mut Rng) -> Constraint {
    let a = events[rng.below(events.len())];
    let mut b = events[rng.below(events.len())];
    while b == a {
        b = events[rng.below(events.len())];
    }
    match shape % 3 {
        0 => Constraint::klein_order(a, b),
        1 => Constraint::klein_exists(a, b),
        _ => Constraint::must(a),
    }
}
