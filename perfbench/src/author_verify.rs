//! `author_verify`: the author's path, in process, with no server.
//!
//! The inputs are the five example specs plus generated layered, Klein,
//! existence and 3-SAT-derived specs, `PER_KIND` small and `PER_KIND`
//! large ones of each kind, so some sit below and some above the size at
//! which compile's `Parallelism::Auto` fans out. The specs and their
//! queries come from one fixed generator seed, so every run meets the
//! same work: how long a compile or verify takes varies far more from
//! one generated spec to the next than from one commit to the next, and
//! a per-run draw would bury the second in the first. The run's seed
//! orders each author thread's sweeps and drives the simulation's walks. Each pass over a spec parses it,
//! compiles it cold, opens an `Analyzer` session, verifies a property
//! set and re-verifies after each of a few one-constraint edits. It then
//! simulates the compiled spec on the scheduler, which is where this
//! workload's start, poll and fire figures come from.

use crate::author::{self, Outcome, Task};
use crate::report::Report;
use crate::specs;
use crate::trace;
use crate::util::{self, median, percentile, us_since, Rng};
use ctr::gen;
use ctr_engine::{Program, Scheduler};
use std::time::Instant;

const EXAMPLES: [&str; 5] = [
    include_str!("../../examples/specs/knot.ctr"),
    include_str!("../../examples/specs/order_fulfilment.ctr"),
    include_str!("../../examples/specs/payment_saga.ctr"),
    include_str!("../../examples/specs/retry_polling.ctr"),
    include_str!("../../examples/specs/trip.ctr"),
];

/// Generated specs per kind and size.
const PER_KIND: usize = 6;
const PROPERTIES: usize = 3;
const OWN_PROPERTIES: usize = 2;
const EDITS: usize = 3;
/// Trace budget of the semantics oracle; larger specs are checked
/// against untabled verification instead.
const ORACLE_BUDGET: usize = 50_000;

/// Seed of the generated spec library.
const LIBRARY_SEED: u64 = 0x5EC5;

/// The spec set with its queries.
fn tasks() -> Result<Vec<Task>, String> {
    let mut rng = Rng::fork(LIBRARY_SEED, 3);
    let mut sources: Vec<String> = EXAMPLES.iter().map(|s| (*s).to_owned()).collect();
    for k in 0..PER_KIND {
        // Layered with Klein orders between lanes.
        sources.push(specs::layered_source(
            &format!("lay_s{k}"),
            "klein_order",
            (2, 3),
            2,
            &mut rng,
        ));
        sources.push(specs::layered_source(
            &format!("lay_l{k}"),
            "klein_order",
            (4, 4),
            4,
            &mut rng,
        ));
        // The Theorem 5.11 shape: a Klein chain across stages.
        for (tag, layers) in [("s", 3), ("l", 6)] {
            let goal = gen::layered_workflow(layers, 2);
            sources.push(specs::spec_source(
                &format!("klein_{tag}{k}"),
                &goal,
                &gen::klein_chain(layers - 1),
            ));
        }
        // Existence constraints over a layered goal. Each names only the
        // seeded side of a cell as what must happen, so the set is
        // consistent and every spec does the same kind of work.
        for (tag, (layers, lanes), count) in [("s", (2, 3), 3), ("l", (4, 4), 6)] {
            let goal = gen::layered_workflow(layers, lanes);
            let side = |rng: &mut Rng| {
                let (l, r) = gen::layered_events(rng.below(layers), rng.below(lanes));
                if rng.chance(0.5) {
                    l
                } else {
                    r
                }
            };
            let mut chosen = Vec::new();
            let constraints: Vec<ctr::Constraint> = (0..count)
                .map(|k| {
                    let a = side(&mut rng);
                    let cell_taken = chosen
                        .iter()
                        .any(|&c: &ctr::Symbol| c.as_str()[1..] == a.as_str()[1..] && c != a);
                    let a = if cell_taken { chosen[0] } else { a };
                    chosen.push(a);
                    if k % 2 == 0 {
                        ctr::Constraint::must(a)
                    } else {
                        let (l, r) = gen::layered_events(rng.below(layers), rng.below(lanes));
                        ctr::Constraint::klein_exists(if rng.chance(0.5) { l } else { r }, a)
                    }
                })
                .collect();
            sources.push(specs::spec_source(
                &format!("exist_{tag}{k}"),
                &goal,
                &constraints,
            ));
        }
        // Proposition 4.1: 3-SAT as existence constraints.
        for (tag, vars, clauses) in [("s", 4, 12), ("l", 6, 16)] {
            let inst = gen::random_3sat(rng.next_u64(), vars, clauses);
            let (goal, constraints) = gen::sat_to_workflow(&inst);
            sources.push(specs::spec_source(
                &format!("sat_{tag}{k}"),
                &goal,
                &constraints,
            ));
        }
    }
    let mut out = Vec::with_capacity(sources.len());
    for source in sources {
        let spec = ctr_parser::parse_spec(&source)
            .map_err(|e| format!("generated spec: {e}\n{source}"))?;
        let events: Vec<ctr::Symbol> = spec
            .to_goal()
            .events()
            .into_iter()
            .filter(|e| ctr::timer::parse_tick(e.as_str()).is_none())
            .collect();
        let mut properties: Vec<ctr::Constraint> = spec
            .constraints
            .iter()
            .take(OWN_PROPERTIES)
            .cloned()
            .collect();
        let mut edits = Vec::new();
        // One query of each shape, so every spec is asked each kind.
        if events.len() >= 2 {
            for shape in 0..PROPERTIES {
                properties.push(specs::constraint_of_shape(shape, &events, &mut rng));
            }
            for shape in 0..EDITS {
                edits.push((
                    rng.below(64),
                    specs::constraint_of_shape(shape, &events, &mut rng),
                ));
            }
        }
        out.push(Task {
            source,
            properties,
            edits,
        });
    }
    Ok(out)
}

/// What simulating compiled specs measured.
#[derive(Default)]
struct Sim {
    start_us: Vec<f64>,
    poll_us: Vec<f64>,
    fire_us: Vec<f64>,
    busy_s: f64,
    fires: u64,
}

/// A seeded walk over the compiled spec's scheduler: start a cursor,
/// then poll the eligible set and fire one observable event until done.
/// Returns the fired trace.
fn simulate(program: &Program, rng: &mut Rng, sim: &mut Sim, req: u64) -> Option<Vec<ctr::Symbol>> {
    let t = Instant::now();
    let mut sched = trace::span("engine.scheduler.new", req, || Scheduler::new(program));
    sim.start_us.push(us_since(t));
    let mut busy = t.elapsed().as_secs_f64();
    while !sched.is_complete() {
        let t = Instant::now();
        let observable: Vec<ctr::Symbol> = trace::span("engine.scheduler.eligible", req, || {
            sched
                .eligible()
                .iter()
                .filter(|c| c.observable)
                .filter_map(|c| program.event(c.node).and_then(|a| a.as_event()))
                .collect()
        });
        sim.poll_us.push(us_since(t));
        busy += t.elapsed().as_secs_f64();
        let t = Instant::now();
        if let Some(&event) = observable.get(rng.below(observable.len().max(1))) {
            let ok = trace::span("engine.scheduler.fire_event", req, || {
                sched.fire_event(event)
            });
            sim.fire_us.push(us_since(t));
            sim.fires += 1;
            if !ok {
                return None;
            }
        } else {
            // Only silent bookkeeping is eligible: take the first step.
            let first = *sched.eligible().first()?;
            sched.fire(first.node);
        }
        busy += t.elapsed().as_secs_f64();
    }
    sim.busy_s += busy;
    Some(sched.trace_names())
}

/// One sweep's figures: each statistic over one pass through every spec.
#[derive(Clone, Copy, Default)]
struct Sweep {
    compile_p50: f64,
    verify_p50: f64,
    verify_p99: f64,
    fires_per_s: f64,
    fire_p50: f64,
    fire_p99: f64,
    start_p99: f64,
    poll_p99: f64,
    /// Wall time of the sweep, µs.
    wall_us: f64,
}

#[derive(Default)]
struct Pass {
    sweeps: Vec<Sweep>,
    /// Spec passes made.
    passes: u64,
    /// The last sweep's spec passes, for the layer figures.
    outcomes: Vec<Outcome>,
    samples: [usize; 5],
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
}

/// Sweeps over every spec until `seconds` have passed (at least two).
/// Sweeps on one author thread per core, pooled. Each thread meets the
/// specs in its own order; running one per core also makes every run
/// see every core, so a slower core shifts each run alike instead of
/// whichever run it lands on.
fn measure(tasks: &[Task], refs: &[author::Reference], seed: u64, seconds: f64) -> Pass {
    let parts: Vec<Pass> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..util::nproc() as u64)
            .map(|worker| s.spawn(move || sweeps(tasks, refs, seed, worker, seconds)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("author thread panicked"))
            .collect()
    });
    let mut pass = Pass::default();
    for part in parts {
        pass.sweeps.extend(part.sweeps);
        pass.passes += part.passes;
        if pass.outcomes.is_empty() {
            pass.outcomes = part.outcomes;
        }
        for (n, v) in pass.samples.iter_mut().zip(part.samples) {
            *n += v;
        }
        pass.errors.extend(part.errors);
        pass.attempted += part.attempted;
        pass.failed += part.failed;
    }
    pass
}

/// One author thread's sweeps over every spec until `seconds` have
/// passed (at least two).
fn sweeps(
    tasks: &[Task],
    refs: &[author::Reference],
    seed: u64,
    worker: u64,
    seconds: f64,
) -> Pass {
    let mut pass = Pass::default();
    let mut rng = Rng::fork(seed, 4 + 16 * worker);
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let t0 = Instant::now();
    while pass.sweeps.len() < 2 || t0.elapsed().as_secs_f64() < seconds {
        let ts = Instant::now();
        let mut sim = Sim::default();
        pass.outcomes.clear();
        let mut compile = Vec::new();
        let mut verify = Vec::new();
        for &i in &order {
            let task = &tasks[i];
            let req = (worker << 40) | pass.passes;
            pass.passes += 1;
            pass.attempted += 1;
            let outcome = match author::run(task, req) {
                Ok(o) => o,
                Err(e) => {
                    pass.failed += 1;
                    pass.errors.push(format!("spec {i}: {e}"));
                    continue;
                }
            };
            if !outcome.compiled.is_nopath() {
                match Program::compile(&outcome.compiled) {
                    Ok(program) => match simulate(&program, &mut rng, &mut sim, req) {
                        Some(trace) => {
                            for c in &outcome.constraints {
                                if !ctr::semantics::satisfies(&trace, c) {
                                    pass.errors.push(format!(
                                        "spec {i}: simulated trace {trace:?} violates {c}"
                                    ));
                                }
                            }
                        }
                        None => {
                            pass.failed += 1;
                            pass.errors.push(format!(
                                "spec {i}: simulation deadlocked or a fire was refused"
                            ));
                        }
                    },
                    Err(e) => {
                        pass.failed += 1;
                        pass.errors.push(format!("spec {i}: program: {e:?}"));
                    }
                }
            }
            compile.push(outcome.compile_us);
            verify.extend_from_slice(&outcome.verify_us);
            // Checked here, after its timing, so no pass is kept longer
            // than one sweep.
            if let Err(e) = refs[i].check(&outcome) {
                pass.failed += 1;
                pass.errors.push(format!("spec {i}: {e}"));
            }
            pass.outcomes.push(outcome);
        }
        for (n, v) in pass.samples.iter_mut().zip([
            compile.len(),
            verify.len(),
            sim.start_us.len(),
            sim.poll_us.len(),
            sim.fire_us.len(),
        ]) {
            *n += v;
        }
        pass.sweeps.push(Sweep {
            compile_p50: percentile(&mut compile, 50.0),
            verify_p50: percentile(&mut verify, 50.0),
            verify_p99: percentile(&mut verify, 99.0),
            fires_per_s: sim.fires as f64 / sim.busy_s.max(1e-9),
            fire_p50: percentile(&mut sim.fire_us, 50.0),
            fire_p99: percentile(&mut sim.fire_us, 99.0),
            start_p99: percentile(&mut sim.start_us, 99.0),
            poll_p99: percentile(&mut sim.poll_us, 99.0),
            wall_us: us_since(ts),
        });
    }
    pass
}

fn end_to_end(report: &mut Report, pass: &Pass) {
    let [compile, verify, start, poll, fire] = pass.samples;
    report.note(format!(
        "each figure is the median over {} sweeps of that sweep's statistic; samples in all: compile {compile}, verify {verify}, simulated start {start}, poll {poll}, fire {fire}",
        pass.sweeps.len()
    ));
    let med =
        |f: &dyn Fn(&Sweep) -> f64| median(&mut pass.sweeps.iter().map(f).collect::<Vec<_>>());
    report.set("compile_p50_us", med(&|s| s.compile_p50));
    report.set("verify_p50_us", med(&|s| s.verify_p50));
    report.set("verify_p99_us", med(&|s| s.verify_p99));
    report.set("fires_per_s", med(&|s| s.fires_per_s));
    report.set("fire_p50_us", med(&|s| s.fire_p50));
    report.set("fire_p99_us", med(&|s| s.fire_p99));
    report.set("start_p99_us", med(&|s| s.start_p99));
    report.set("poll_p99_us", med(&|s| s.poll_p99));
}

pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) {
    // Set-up makes the spec set and the reference answers; repeat it and
    // report the median.
    let mut setups = Vec::new();
    let mut made = None;
    for _ in 0..3 {
        let t = Instant::now();
        made = Some(tasks().and_then(|tasks| {
            let refs = tasks
                .iter()
                .map(|t| author::reference(t, ORACLE_BUDGET))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((tasks, refs))
        }));
        setups.push(t.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&mut setups));
    let (tasks, refs) = match made.expect("set up at least once") {
        Ok(t) => t,
        Err(e) => {
            report.check(false, || e);
            return;
        }
    };
    report.note(format!(
        "author_verify: {} specs ({} examples + generated), up to {} properties and {EDITS} edits each",
        tasks.len(),
        EXAMPLES.len(),
        PROPERTIES + OWN_PROPERTIES
    ));
    let (measured, spans) = if traced {
        let plain = measure(&tasks, &refs, seed, seconds / 2.0);
        trace::set_enabled(true);
        let traced_pass = measure(&tasks, &refs, seed, seconds / 2.0);
        let spans = trace::drain();
        trace::set_enabled(false);
        let base = median(&mut plain.sweeps.iter().map(|s| s.wall_us).collect::<Vec<_>>());
        let with = median(
            &mut traced_pass
                .sweeps
                .iter()
                .map(|s| s.wall_us)
                .collect::<Vec<_>>(),
        );
        report.set("trace.overhead_ratio", with / base);
        report.note(format!(
            "tracing overhead: sweep median {with:.1} us traced vs {base:.1} us untraced"
        ));
        account(report, &plain);
        (traced_pass, Some(spans))
    } else {
        (measure(&tasks, &refs, seed, seconds), None)
    };
    account(report, &measured);
    let oracle = refs.iter().filter(|r| r.by_oracle).count();
    report.note(format!(
        "every pass checked against set-up references: {oracle} specs from the trace oracle, {} from untabled verify",
        refs.len() - oracle
    ));
    end_to_end(report, &measured);
    if let Some(spans) = spans {
        let outcomes: Vec<&Outcome> = measured.outcomes.iter().collect();
        crate::layers::author_metrics(report, &outcomes);
        layer_report(report, &spans, &measured);
    }
}

fn account(report: &mut Report, pass: &Pass) {
    report.attempted += pass.attempted;
    report.failed += pass.failed;
    for e in &pass.errors {
        report.check(false, || e.clone());
    }
}

/// Self time per spec pass of each layer, their sum against the median
/// pass, and the two heaviest layers.
fn layer_report(report: &mut Report, spans: &[trace::Span], pass: &Pass) {
    let layers = trace::layers(spans);
    let passes = pass.passes.max(1) as f64;
    let fire = layers.get("engine.scheduler.fire_event");
    if let Some(l) = fire {
        report.set(
            "engine.scheduler.fire_event_ns",
            l.self_ns as f64 / l.count.max(1) as f64,
        );
    }
    let mut shares: Vec<(&str, f64)> = layers
        .iter()
        .map(|(name, l)| (*name, l.self_ns as f64 / 1e3 / passes))
        .collect();
    let sum: f64 = shares.iter().map(|(_, v)| v).sum();
    let mean_pass = pass.sweeps.iter().map(|s| s.wall_us).sum::<f64>() / passes;
    report.set("trace.layer_sum_ratio", sum / mean_pass);
    report.set("trace.spans", spans.len() as f64);
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, v) in &shares {
        report.note(format!(
            "author_verify layer {name}: {v:.2} us self per spec pass (mean)"
        ));
    }
    report.note(format!(
        "author_verify layer sum {sum:.2} us vs mean spec pass {mean_pass:.2} us over {passes} passes"
    ));
    let heaviest: Vec<&str> = shares.iter().take(2).map(|(n, _)| *n).collect();
    report.note(format!(
        "author_verify heaviest layers: {}",
        heaviest.join(", ")
    ));
    let written = crate::layers::dump_spans(spans, &[], "author_verify");
    report.note(format!("spans written: {written}"));
}
