//! `fire_mem`: closed-loop served fires over an in-memory store.
//!
//! Two connections each keep a burst of `DEPTH` fires in flight over a
//! hot window of `WINDOW` instances; when an instance finishes its
//! planned trace the slot moves to the next pre-started instance. Every
//! instance runs one of a few seeded layered workflows whose order
//! constraints (`before`) compile to `send`/`receive` channels, so fires
//! cross channels. The run is a series of rounds, each on a fresh runtime,
//! server and store, so memory stays flat and set-up is repeated.

use crate::author;
use crate::report::Report;
use crate::served::{self, Running, Wire};
use crate::specs::{self, Plan};
use crate::timed_store::{AppendLog, TimedStore};
use crate::trace;
use crate::util::{median, percentile, us_since, Rng};
use ctr_runtime::{MemStore, SharedRuntime, Store};
use ctr_serve::protocol::{Request, Response, WireStatus};
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

const CONNS: usize = 2;
const DEPTH: usize = 128;
/// Pipelining depth of the set-up verbs (`start`, `eligible`). At depth
/// 128 a round would hold only about 64 set-up bursts of 300-400 µs, and
/// about 1% of those get preempted, which puts the p99 on those few
/// bursts; at 16 a round holds about 500 shorter bursts and the p99 stays
/// off them.
const SETUP_DEPTH: usize = 16;
const WINDOW: usize = 4;
const WORKFLOWS: usize = 12;
const LAYERS: usize = 6;
const LANES: usize = 4;
const ORDERS: usize = 4;
const PLANS_PER_WORKFLOW: usize = 32;
/// Fires per connection per round.
const ROUND_FIRES: usize = 100_000;

struct Workload {
    names: Vec<String>,
    sources: Vec<String>,
    plans: Vec<Vec<Plan>>,
    tasks: Vec<author::Task>,
}

fn prepare(seed: u64) -> Result<Workload, String> {
    let mut rng = Rng::fork(seed, 1);
    let mut w = Workload {
        names: Vec::new(),
        sources: Vec::new(),
        plans: Vec::new(),
        tasks: Vec::new(),
    };
    for k in 0..WORKFLOWS {
        let name = format!("layered{k}");
        let source = specs::layered_source(&name, "before", (LAYERS, LANES), ORDERS, &mut rng);
        let (spec, plans) = specs::plan_traces(&source, PLANS_PER_WORKFLOW, &mut rng)?;
        w.tasks.push(author::Task {
            source: source.clone(),
            properties: specs::properties(&spec, 2, &mut rng),
            edits: Vec::new(),
        });
        w.names.push(name);
        w.sources.push(source);
        w.plans.push(plans);
    }
    Ok(w)
}

/// One connection's round: which plan each instance follows and the
/// fire sequence over the hot window.
struct ConnPlan {
    /// (workflow, plan) per instance ordinal.
    assign: Vec<(usize, usize)>,
    /// (ordinal, position in its plan) per fire.
    fires: Vec<(usize, usize)>,
}

fn conn_plan(w: &Workload, rng: &mut Rng) -> ConnPlan {
    let mut assign = Vec::new();
    let mut pick = |assign: &mut Vec<(usize, usize)>| {
        let wf = rng.below(WORKFLOWS);
        assign.push((wf, rng.below(w.plans[wf].len())));
        assign.len() - 1
    };
    let mut slots: Vec<(usize, usize)> = (0..WINDOW).map(|_| (pick(&mut assign), 0)).collect();
    let mut fires = Vec::with_capacity(ROUND_FIRES);
    for k in 0..ROUND_FIRES {
        let s = k % WINDOW;
        let (ord, pos) = slots[s];
        let (wf, p) = assign[ord];
        if pos == w.plans[wf][p].len() {
            slots[s] = (pick(&mut assign), 0);
        }
        let (ord, pos) = slots[s];
        fires.push((ord, pos));
        slots[s].1 = pos + 1;
    }
    ConnPlan { assign, fires }
}

#[derive(Default)]
struct ConnOut {
    ids: Vec<u64>,
    fired: Vec<usize>,
    start_us: Vec<f64>,
    poll_us: Vec<f64>,
    lat_us: Vec<f64>,
    ready: Option<Instant>,
    first_send: Option<Instant>,
    last_recv: Option<Instant>,
    bytes: u64,
    failed: u64,
    attempted: u64,
    errors: Vec<String>,
    /// (write instant, frames, round-trip µs) per burst, traced rounds only.
    bursts: Vec<(Instant, Vec<u8>, f64)>,
}

#[derive(Default)]
struct Round {
    setup_s: f64,
    fires_per_s: f64,
    p50: f64,
    p99: f64,
    samples: usize,
    start_us: Vec<f64>,
    poll_us: Vec<f64>,
    deploy_us: Vec<f64>,
    outcomes: Vec<author::Outcome>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Traced rounds: per-id workflow, bursts, append log, wire bytes.
    workflow_of: BTreeMap<u64, usize>,
    bursts: Vec<(Instant, Vec<u8>, f64)>,
    log: Option<AppendLog>,
    fires: u64,
    bytes: u64,
}

fn run_conn(
    w: &Workload,
    addr: std::net::SocketAddr,
    plan: &ConnPlan,
    setup_turn: &Mutex<()>,
    barrier: &Barrier,
    traced: bool,
) -> ConnOut {
    let mut out = ConnOut::default();
    fn fail(out: &mut ConnOut, msg: String) {
        out.failed += 1;
        if out.errors.len() < 5 {
            out.errors.push(msg);
        }
    }
    let mut wire = match Wire::connect(addr) {
        Ok(wire) => wire,
        Err(e) => {
            out.errors.push(format!("connect: {e}"));
            barrier.wait();
            return out;
        }
    };
    // Set-up: start every instance the round needs, then poll each once.
    // Connections take turns, so set-up latency is not two clients and two
    // server threads sharing two cores.
    let turn = setup_turn.lock().expect("set-up turn poisoned");
    let starts: Vec<Request> = plan
        .assign
        .iter()
        .map(|&(wf, _)| Request::Start {
            workflow: w.names[wf].clone(),
        })
        .collect();
    let setup = served::pipelined(&mut wire, &starts, SETUP_DEPTH).and_then(|replies| {
        for (k, (resp, us)) in replies.into_iter().enumerate() {
            out.attempted += 1;
            // The first burst warms the fresh server's threads up.
            if k >= SETUP_DEPTH {
                out.start_us.push(us);
            }
            match resp {
                Response::InstanceId(id) => out.ids.push(id),
                other => return Err(format!("start answered {other:?}")),
            }
        }
        let polls: Vec<Request> = out
            .ids
            .iter()
            .map(|&id| Request::Eligible { instance: id })
            .collect();
        let replies = served::pipelined(&mut wire, &polls, SETUP_DEPTH)?;
        for (k, (resp, us)) in replies.into_iter().enumerate() {
            out.attempted += 1;
            out.poll_us.push(us);
            let (wf, p) = plan.assign[k];
            match resp {
                Response::Names(mut names) => {
                    names.sort();
                    if names != w.plans[wf][p].eligible[0] {
                        fail(
                            &mut out,
                            format!("poll of a fresh instance answered {names:?}"),
                        );
                    }
                }
                other => fail(&mut out, format!("poll answered {other:?}")),
            }
        }
        Ok(())
    });
    drop(turn);
    if let Err(e) = setup {
        out.errors.push(e);
        barrier.wait();
        return out;
    }
    // Frame every burst before timing starts.
    let mut scratch = Vec::new();
    let bursts: Vec<Vec<u8>> = plan
        .fires
        .chunks(DEPTH)
        .map(|chunk| {
            let mut bytes = Vec::new();
            for &(ord, pos) in chunk {
                let (wf, p) = plan.assign[ord];
                let req = Request::Fire {
                    instance: out.ids[ord],
                    event: w.plans[wf][p].events[pos].clone(),
                };
                served::frame(&req, &mut scratch, &mut bytes);
            }
            bytes
        })
        .collect();
    out.fired = vec![0; plan.assign.len()];
    out.lat_us.reserve(plan.fires.len());
    out.ready = Some(Instant::now());
    barrier.wait();
    let bytes0 = wire.bytes_sent + wire.bytes_received;
    out.first_send = Some(Instant::now());
    for (b, (bytes, chunk)) in bursts.iter().zip(plan.fires.chunks(DEPTH)).enumerate() {
        let t0 = Instant::now();
        if let Err(e) = wire.write(bytes) {
            out.errors.push(format!("write: {e}"));
            return out;
        }
        for (k, &(ord, pos)) in chunk.iter().enumerate() {
            let resp = match wire.recv() {
                Ok(resp) => resp,
                Err(e) => {
                    out.errors.push(e);
                    return out;
                }
            };
            let done = Instant::now();
            out.attempted += 1;
            out.lat_us.push(done.duration_since(t0).as_secs_f64() * 1e6);
            trace::record("client.request", (b * DEPTH + k) as u64, t0, done);
            let (wf, p) = plan.assign[ord];
            let want = if w.plans[wf][p].completed_after[pos] {
                WireStatus::Completed
            } else {
                WireStatus::Running
            };
            match resp {
                Response::Status(s) if s == want => out.fired[ord] = pos + 1,
                other => fail(
                    &mut out,
                    format!("fire answered {other:?}, expected {want:?}"),
                ),
            }
        }
        if traced {
            out.bursts.push((t0, bytes.clone(), us_since(t0)));
        }
    }
    out.last_recv = Some(Instant::now());
    out.bytes = wire.bytes_sent + wire.bytes_received - bytes0;
    out
}

fn round(w: &Workload, seed: u64, index: u64, traced: bool) -> Round {
    let mut r = Round::default();
    let t_setup = Instant::now();
    // The author's check before deploying: verify each spec.
    for (k, task) in w.tasks.iter().enumerate() {
        match author::run(task, k as u64) {
            Ok(outcome) => r.outcomes.push(outcome),
            Err(e) => r.errors.push(format!("author check: {e}")),
        }
    }
    let timed = traced.then(|| Arc::new(TimedStore::new(Arc::new(MemStore::new()))));
    let store: Arc<dyn Store> = match &timed {
        Some(t) => t.clone(),
        None => Arc::new(MemStore::new()),
    };
    let rt = SharedRuntime::with_store(store);
    let server = Running::start(rt.clone());
    match Wire::connect(server.addr) {
        Ok(mut control) => {
            for (name, source) in w.names.iter().zip(&w.sources) {
                let t = Instant::now();
                let resp = control.call(&Request::Deploy {
                    source: source.clone(),
                });
                r.deploy_us.push(us_since(t));
                r.attempted += 1;
                if !matches!(&resp, Ok(Response::Name(n)) if n == name) {
                    r.failed += 1;
                    r.errors.push(format!("deploy answered {resp:?}"));
                }
            }
        }
        Err(e) => r.errors.push(format!("connect: {e}")),
    }
    let plans: Vec<ConnPlan> = (0..CONNS)
        .map(|c| conn_plan(w, &mut Rng::fork(seed, 100 + index * 16 + c as u64)))
        .collect();
    let barrier = Barrier::new(CONNS);
    let setup_turn = Mutex::new(());
    let outs: Vec<ConnOut> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                let (barrier, setup_turn) = (&barrier, &setup_turn);
                s.spawn(move || run_conn(w, server.addr, plan, setup_turn, barrier, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    server.stop();
    let ready = outs.iter().filter_map(|o| o.ready).max();
    r.setup_s = ready.map_or(0.0, |t| t.duration_since(t_setup).as_secs_f64());
    let first = outs.iter().filter_map(|o| o.first_send).min();
    let last = outs.iter().filter_map(|o| o.last_recv).max();
    let mut lat: Vec<f64> = Vec::new();
    for (out, plan) in outs.iter().zip(&plans) {
        r.attempted += out.attempted;
        r.failed += out.failed;
        r.errors.extend(out.errors.iter().cloned());
        lat.extend_from_slice(&out.lat_us);
        r.start_us.extend_from_slice(&out.start_us);
        r.poll_us.extend_from_slice(&out.poll_us);
        r.bytes += out.bytes;
        // Each instance's journal must be its planned trace, up to where
        // the round stopped.
        for (ord, &id) in out.ids.iter().enumerate() {
            let (wf, p) = plan.assign[ord];
            let want = &w.plans[wf][p].events[..out.fired[ord]];
            match rt.journal(id) {
                Ok(journal) if journal == want => {}
                other => {
                    if r.errors.len() < 10 {
                        r.errors
                            .push(format!("instance {id} journal {other:?}, planned {want:?}"));
                    }
                    r.failed += 1;
                }
            }
            if traced {
                r.workflow_of.insert(id, wf);
            }
        }
        if traced {
            r.bursts.extend(out.bursts.iter().cloned());
        }
    }
    r.fires = lat.len() as u64;
    if let (Some(a), Some(b)) = (first, last) {
        r.fires_per_s = lat.len() as f64 / b.duration_since(a).as_secs_f64();
    }
    r.samples = lat.len();
    r.p50 = percentile(&mut lat, 50.0);
    r.p99 = percentile(&mut lat, 99.0);
    r.log = timed.map(|t| t.log());
    drop(rt);
    crate::util::settle_allocator();
    r
}

/// Rounds until `seconds` have passed (at least `min_rounds`).
fn rounds(w: &Workload, seed: u64, seconds: f64, min_rounds: usize) -> Vec<Round> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_rounds || t0.elapsed().as_secs_f64() < seconds {
        out.push(round(w, seed, out.len() as u64, false));
    }
    out
}

fn med(rs: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&mut rs.iter().map(f).collect::<Vec<_>>())
}

fn account(report: &mut Report, rs: &[Round]) {
    for r in rs {
        report.attempted += r.attempted;
        report.failed += r.failed;
        for e in &r.errors {
            report.check(false, || e.clone());
        }
    }
}

/// The end-to-end figures of a set of rounds.
fn end_to_end(report: &mut Report, rs: &[Round]) {
    let samples: usize = rs.iter().map(|r| r.samples).sum();
    report.set("setup_s", med(rs, |r| r.setup_s));
    report.set("fires_per_s", med(rs, |r| r.fires_per_s));
    report.set("fire_p50_us", med(rs, |r| r.p50));
    report.set("fire_p99_us", med(rs, |r| r.p99));
    report.note(format!(
        "each figure is the median over {} rounds of that round's statistic; {samples} fire samples in all",
        rs.len()
    ));
    let samples = |f: &dyn Fn(&Round) -> usize| rs.iter().map(f).sum::<usize>();
    report.note(format!(
        "samples: start {} (pipelined at depth {SETUP_DEPTH}, the first burst of each connection untimed), poll {}, compile {} (served deploys), verify {} (author check in set-up)",
        samples(&|r| r.start_us.len()),
        samples(&|r| r.poll_us.len()),
        samples(&|r| r.deploy_us.len()),
        samples(&|r| r.outcomes.iter().map(|o| o.verify_us.len()).sum())
    ));
    let verify = |r: &Round| -> Vec<f64> {
        r.outcomes
            .iter()
            .flat_map(|o| o.verify_us.iter().copied())
            .collect()
    };
    report.set(
        "start_p99_us",
        med(rs, |r| percentile(&mut r.start_us.clone(), 99.0)),
    );
    report.set(
        "poll_p99_us",
        med(rs, |r| percentile(&mut r.poll_us.clone(), 99.0)),
    );
    report.set(
        "compile_p50_us",
        med(rs, |r| percentile(&mut r.deploy_us.clone(), 50.0)),
    );
    report.set(
        "verify_p50_us",
        med(rs, |r| percentile(&mut verify(r), 50.0)),
    );
    report.set(
        "verify_p99_us",
        med(rs, |r| percentile(&mut verify(r), 99.0)),
    );
}

pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) {
    let w = match prepare(seed) {
        Ok(w) => w,
        Err(e) => {
            report.check(false, || format!("planning: {e}"));
            return;
        }
    };
    report.note(format!(
        "fire_mem: {CONNS} connections, depth {DEPTH}, {WINDOW} hot instances each, {WORKFLOWS} layered {LAYERS}x{LANES} workflows with {ORDERS} order constraints, {ROUND_FIRES} fires per connection per round"
    ));
    if !traced {
        let rs = rounds(&w, seed, seconds, 3);
        account(report, &rs);
        end_to_end(report, &rs);
        return;
    }
    // Traced: an untraced half for the overhead baseline, then a traced
    // half (spans of its last round kept), then the socket-free and
    // scheduler replays of that round.
    let plain = rounds(&w, seed, seconds / 2.0, 2);
    let t0 = Instant::now();
    let mut traced_rounds = Vec::new();
    let mut live_spans = Vec::new();
    while traced_rounds.len() < 2 || t0.elapsed().as_secs_f64() < seconds / 2.0 {
        trace::set_enabled(true);
        traced_rounds.push(round(&w, seed, traced_rounds.len() as u64, true));
        live_spans = trace::drain();
        trace::set_enabled(false);
    }
    account(report, &plain);
    account(report, &traced_rounds);
    let base_p50 = med(&plain, |r| r.p50);
    let traced_p50 = med(&traced_rounds, |r| r.p50);
    report.set("trace.overhead_ratio", traced_p50 / base_p50);
    report.note(format!(
        "tracing overhead: fire p50 {traced_p50:.1} us traced vs {base_p50:.1} us untraced ({} + {} rounds)",
        traced_rounds.len(),
        plain.len()
    ));
    let last = traced_rounds.last().expect("at least two traced rounds");
    layer_metrics(report, &w, last, live_spans);
}

fn layer_metrics(report: &mut Report, w: &Workload, last: &Round, live_spans: Vec<trace::Span>) {
    // Store, from the timing wrapper on the live traced round.
    let log = last.log.clone().unwrap_or_default();
    crate::layers::store_metrics(report, &log, None, last.fires);
    crate::layers::author_metrics(report, &last.outcomes.iter().collect::<Vec<_>>());
    report.set(
        "serve.protocol.bytes_per_fire",
        last.bytes as f64 / last.fires.max(1) as f64,
    );

    // Socket-free replay of the same round: starts and polls in id
    // order (so replay ids equal live ids), then the fire bursts in the
    // order the clients wrote them.
    let rt = SharedRuntime::with_store(Arc::new(TimedStore::new(Arc::new(MemStore::new()))));
    for source in &w.sources {
        if let Err(e) = rt.deploy_source(source) {
            report.check(false, || format!("replay deploy: {e}"));
            return;
        }
    }
    let mut scratch = Vec::new();
    let mut setup_bursts: Vec<Vec<u8>> = Vec::new();
    let ids: Vec<(&u64, &usize)> = last.workflow_of.iter().collect();
    for chunk in ids.chunks(SETUP_DEPTH) {
        let mut bytes = Vec::new();
        for (_, &wf) in chunk {
            served::frame(
                &Request::Start {
                    workflow: w.names[wf].clone(),
                },
                &mut scratch,
                &mut bytes,
            );
        }
        setup_bursts.push(bytes);
    }
    for chunk in ids.chunks(SETUP_DEPTH) {
        let mut bytes = Vec::new();
        for (&id, _) in chunk {
            served::frame(
                &Request::Eligible { instance: id },
                &mut scratch,
                &mut bytes,
            );
        }
        setup_bursts.push(bytes);
    }
    let mut bursts = last.bursts.clone();
    bursts.sort_by_key(|b| b.0);
    let frames: Vec<Vec<u8>> = bursts.iter().map(|b| b.1.clone()).collect();
    trace::set_enabled(true);
    let setup_stats = served::replay(&rt, &setup_bursts);
    let stats = served::replay(&rt, &frames);
    let spans = trace::drain();
    trace::set_enabled(false);
    report.check(setup_stats.faults == 0 && stats.faults == 0, || {
        format!(
            "socket-free replay faulted {} times",
            setup_stats.faults + stats.faults
        )
    });
    let rtt: Vec<f64> = bursts.iter().map(|b| b.2).collect();
    let sched = crate::layers::scheduler_replay(report, &w.sources, &w.plans);
    crate::layers::served_layers(report, &spans, &stats, &rtt, "fire_mem");
    report.set("engine.scheduler.fire_event_ns", sched);
    let written = crate::layers::dump_spans(&live_spans, &spans, "fire_mem");
    report.set("trace.spans", (live_spans.len() + spans.len()) as f64);
    report.note(format!("spans written: {written}"));
}
