//! `saga_wal`: an open-loop request mix over a coalesced WAL.
//!
//! Two connections each offer a fixed request rate, whatever the server
//! does; every request is timed from the instant it was due. The mix is
//! `start`, `fire`, `fire_batch`, `eligible` polls, a few
//! `cancel_timer`s and, on the first connection, a periodic `advance`
//! of the logical clock. Two workflows are deployed: a payment saga
//! whose 24 h deadline the clock never reaches, and an abandoned cart
//! that stops after its first event and whose 30 s deadline expires at
//! a later `advance`. So every reply can be predicted, and bursts touch
//! many distinct instances, which leaves group commit and fsync as the
//! dominant cost. The run is a few rounds, each on a fresh runtime and
//! a fresh WAL directory; after each round the WAL is reopened and its
//! recovered snapshot must equal the live one.

use crate::author;
use crate::report::Report;
use crate::served::{self, Running, Wire};
use crate::specs::{self, Plan};
use crate::timed_store::{AppendLog, TimedStore};
use crate::trace;
use crate::util::{self, median, percentile, us_since, Rng};
use ctr_runtime::{Durability, SharedRuntime, Store, WalOptions, WalStore};
use ctr_serve::protocol::{FaultCode, Request, Response, WireOutcome, WireStatus};
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const CONNS: usize = 2;
/// Offered requests per second per connection: a constant, well below
/// what this mix saturates at, never calibrated at run time.
const RATE: f64 = 2_500.0;
/// Sagas each connection starts during set-up.
const BASE_SAGAS: usize = 1_000;
/// Open-loop time of one round.
const ROUND_S: f64 = 2.0;
/// Latency statistics are taken per window of this many ops' due times
/// (0.5 s) and reported as the median over windows, so one disk stall
/// moves one window, not the run.
const WINDOW_OPS: usize = (RATE / 2.0) as usize;
/// Real time between two `advance`s, and the logical time each adds.
const ADVANCE_EVERY_S: f64 = 0.02;
const ADVANCE_STEP_MS: u64 = 1_000;
/// A new instance is used this long (real time) after its start is due.
const GAP_S: f64 = 0.05;
const SETUP_DEPTH: usize = 128;

const SAGA: &str = "workflow payment_saga {
    graph accept * (reserve_stock # risk_check) * charge_card * (ship + refuse) * notify;
    constraint before(reserve_stock, risk_check);
    deadline(notify, 24h);
}";
const SAGA_TICK: &str = "notify@deadline86400000";
const CART: &str = "workflow cart {
    graph add_item * checkout * pay;
    deadline(checkout, 30s);
}";
const CART_TICK: &str = "checkout@deadline30000";
const CART_DEADLINE_MS: u64 = 30_000;
const SAGA_PLANS: usize = 16;

struct Workload {
    saga_plans: Vec<Plan>,
    cart_plan: Plan,
    tasks: Vec<author::Task>,
}

fn prepare(seed: u64) -> Result<Workload, String> {
    let mut rng = Rng::fork(seed, 2);
    let (saga_spec, saga_plans) = specs::plan_traces(SAGA, SAGA_PLANS, &mut rng)?;
    let (cart_spec, mut cart) = specs::plan_traces(CART, 1, &mut rng)?;
    let tasks = [(SAGA, &saga_spec), (CART, &cart_spec)]
        .into_iter()
        .map(|(source, spec)| author::Task {
            source: source.to_owned(),
            properties: specs::properties(spec, 4, &mut rng),
            edits: Vec::new(),
        })
        .collect();
    Ok(Workload {
        saga_plans,
        cart_plan: cart.remove(0),
        tasks,
    })
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Saga(usize),
    Cart,
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Start(usize),
    Fire(usize, usize),
    Batch(usize, usize),
    Poll(usize, usize),
    Cancel(usize),
    Advance(u64),
}

impl Op {
    fn handle(self) -> Option<usize> {
        match self {
            Op::Start(_) | Op::Advance(_) => None,
            Op::Fire(h, _) | Op::Batch(h, _) | Op::Poll(h, _) | Op::Cancel(h) => Some(h),
        }
    }
}

/// One connection's round: its instances (the first `BASE_SAGAS` started
/// in set-up) and its timed op schedule, op `k` due at `k / RATE`.
struct Schedule {
    kinds: Vec<Kind>,
    ops: Vec<Op>,
}

fn schedule(w: &Workload, rng: &mut Rng, seconds: f64, advances: bool) -> Schedule {
    struct Live {
        h: usize,
        pos: usize,
        usable_from: usize,
        timer: bool,
    }
    let n_ops = (seconds * RATE) as usize;
    let gap = (GAP_S * RATE) as usize;
    let advance_every = ((ADVANCE_EVERY_S * RATE) as usize).max(1);
    let mut kinds: Vec<Kind> = Vec::new();
    let mut live: Vec<Live> = Vec::new();
    let new_saga = |kinds: &mut Vec<Kind>, live: &mut Vec<Live>, rng: &mut Rng, from: usize| {
        kinds.push(Kind::Saga(rng.below(w.saga_plans.len())));
        live.push(Live {
            h: kinds.len() - 1,
            pos: 0,
            usable_from: from,
            timer: true,
        });
    };
    for _ in 0..BASE_SAGAS {
        new_saga(&mut kinds, &mut live, rng, 0);
    }
    let len = |kinds: &[Kind], h: usize| match kinds[h] {
        Kind::Saga(p) => w.saga_plans[p].len(),
        Kind::Cart => 1,
    };
    let mut carts: VecDeque<(usize, usize)> = VecDeque::new();
    let mut ops = Vec::with_capacity(n_ops);
    let mut clock = 0u64;
    for k in 0..n_ops {
        if advances && k % advance_every == advance_every - 1 {
            clock += ADVANCE_STEP_MS;
            ops.push(Op::Advance(clock));
            continue;
        }
        if carts.front().is_some_and(|&(_, due)| due <= k) {
            let (h, _) = carts.pop_front().expect("front exists");
            ops.push(Op::Fire(h, 0));
            continue;
        }
        let roll = rng.below(100);
        // Pick a usable saga with at least `need` events left.
        let pick = |need: usize, rng: &mut Rng, live: &[Live], kinds: &[Kind]| -> Option<usize> {
            for _ in 0..8 {
                let i = rng.below(live.len().max(1));
                let l = live.get(i)?;
                if l.usable_from <= k && len(kinds, l.h) - l.pos >= need {
                    return Some(i);
                }
            }
            None
        };
        let op = match roll {
            0..=7 => None,
            8..=13 => {
                kinds.push(Kind::Cart);
                carts.push_back((kinds.len() - 1, k + gap));
                Some(Op::Start(kinds.len() - 1))
            }
            14..=58 => pick(1, rng, &live, &kinds).map(|i| Op::Fire(live[i].h, live[i].pos)),
            59..=71 => pick(2, rng, &live, &kinds).map(|i| Op::Batch(live[i].h, live[i].pos)),
            72..=97 => pick(0, rng, &live, &kinds).map(|i| Op::Poll(live[i].h, live[i].pos)),
            _ => pick(1, rng, &live, &kinds)
                .filter(|&i| live[i].timer)
                .map(|i| Op::Cancel(live[i].h)),
        };
        let op = op.unwrap_or_else(|| {
            new_saga(&mut kinds, &mut live, rng, k + gap);
            Op::Start(kinds.len() - 1)
        });
        match op {
            Op::Fire(h, _) | Op::Batch(h, _) | Op::Cancel(h) => {
                if let Some(i) = live.iter().position(|l| l.h == h) {
                    match op {
                        Op::Fire(..) => live[i].pos += 1,
                        Op::Batch(..) => live[i].pos += 2,
                        _ => live[i].timer = false,
                    }
                    if live[i].pos == len(&kinds, h) {
                        live.swap_remove(i);
                    }
                }
            }
            _ => {}
        }
        ops.push(op);
    }
    Schedule { kinds, ops }
}

/// A latency sample: the window its request was due in, and µs.
type Sample = (usize, f64);

/// One client write: when, the ops it carried, and µs from the write to
/// the last of their replies.
type Burst = (Instant, Vec<(usize, Op)>, f64);

#[derive(Default)]
struct ConnOut {
    ids: Vec<Option<u64>>,
    fire_us: Vec<Sample>,
    start_us: Vec<Sample>,
    poll_us: Vec<Sample>,
    late_us: Vec<f64>,
    fires: u64,
    fired_timers: Vec<(u64, String)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    ready: Option<Instant>,
    timed_s: f64,
    pending_peak: usize,
    bytes: u64,
    /// (write instant, framed ops, due-to-last-reply µs) per write.
    bursts: Vec<Burst>,
}

impl ConnOut {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }
}

fn request(w: &Workload, kinds: &[Kind], ids: &[Option<u64>], op: Op) -> Option<Request> {
    let id = |h: usize| ids[h];
    let events = |h: usize, pos: usize, n: usize| -> Vec<String> {
        match kinds[h] {
            Kind::Saga(p) => w.saga_plans[p].events[pos..pos + n].to_vec(),
            Kind::Cart => w.cart_plan.events[pos..pos + n].to_vec(),
        }
    };
    Some(match op {
        Op::Start(h) => Request::Start {
            workflow: match kinds[h] {
                Kind::Saga(_) => "payment_saga".into(),
                Kind::Cart => "cart".into(),
            },
        },
        Op::Fire(h, pos) => Request::Fire {
            instance: id(h)?,
            event: events(h, pos, 1).remove(0),
        },
        Op::Batch(h, pos) => Request::FireBatch {
            instance: id(h)?,
            events: events(h, pos, 2),
        },
        Op::Poll(h, _) => Request::Eligible { instance: id(h)? },
        Op::Cancel(h) => Request::CancelTimer {
            instance: id(h)?,
            event: SAGA_TICK.into(),
        },
        Op::Advance(to_ms) => Request::Advance { to_ms },
    })
}

fn plan_of(w: &Workload, kind: Kind) -> &Plan {
    match kind {
        Kind::Saga(p) => &w.saga_plans[p],
        Kind::Cart => &w.cart_plan,
    }
}

fn status(completed: bool) -> WireStatus {
    if completed {
        WireStatus::Completed
    } else {
        WireStatus::Running
    }
}

/// Checks one reply against the plan; returns whether it was as
/// predicted. `diverged` handles (after a `Busy`) are not predicted.
fn settle(
    w: &Workload,
    s: &Schedule,
    out: &mut ConnOut,
    op: Op,
    resp: Response,
    lat: Sample,
    diverged: &mut [bool],
) {
    out.attempted += 1;
    if let Response::Error(f) = &resp {
        if f.code == FaultCode::Busy {
            out.failed += 1;
            if let Some(h) = op.handle() {
                diverged[h] = true;
            }
            return;
        }
    }
    if op.handle().is_some_and(|h| diverged[h]) {
        if matches!(resp, Response::Error(_)) {
            out.failed += 1;
        }
        return;
    }
    match (op, resp) {
        (Op::Start(h), Response::InstanceId(id)) => {
            out.ids[h] = Some(id);
            out.start_us.push(lat);
        }
        (Op::Fire(h, pos), Response::Status(st))
            if st == status(plan_of(w, s.kinds[h]).completed_after[pos]) =>
        {
            out.fires += 1;
            out.fire_us.push(lat);
        }
        (Op::Batch(h, pos), Response::Outcomes(os)) => {
            let plan = plan_of(w, s.kinds[h]);
            let want: Vec<WireOutcome> = (pos..pos + 2)
                .map(|i| WireOutcome::Fired(status(plan.completed_after[i])))
                .collect();
            if os == want {
                out.fires += 2;
                out.fire_us.push(lat);
            } else {
                out.fail(format!("fire_batch answered {os:?}, expected {want:?}"));
            }
        }
        (Op::Poll(h, pos), Response::Names(mut names)) => {
            names.retain(|n| ctr::timer::parse_tick(n).is_none());
            names.sort();
            if names == plan_of(w, s.kinds[h]).eligible[pos] {
                out.poll_us.push(lat);
            } else {
                out.fail(format!("eligible answered {names:?}"));
            }
        }
        (Op::Cancel(_), Response::Unit) => {}
        (Op::Advance(_), Response::Fired(fired)) => out.fired_timers.extend(fired),
        (op, resp) => out.fail(format!("{op:?} answered {resp:?}")),
    }
}

/// Starts the set-up sagas, pipelined; returns their ids.
fn start_base(wire: &mut Wire, out: &mut ConnOut) -> Result<(), String> {
    let reqs = vec![
        Request::Start {
            workflow: "payment_saga".into(),
        };
        BASE_SAGAS
    ];
    for (h, (resp, _)) in served::pipelined(wire, &reqs, SETUP_DEPTH)?
        .into_iter()
        .enumerate()
    {
        out.attempted += 1;
        match resp {
            Response::InstanceId(id) => out.ids[h] = Some(id),
            other => return Err(format!("set-up start answered {other:?}")),
        }
    }
    Ok(())
}

/// The open-loop load generator: one thread per connection sends each op when it
/// falls due and reads replies in between.
fn drive(
    w: &Workload,
    s: &Schedule,
    wire: &mut Wire,
    out: &mut ConnOut,
    traced: bool,
    rt: Option<&SharedRuntime>,
) {
    let bytes0 = wire.bytes_sent + wire.bytes_received;
    let start = Instant::now();
    let due = |k: usize| start + Duration::from_secs_f64(k as f64 / RATE);
    let mut diverged = vec![false; s.kinds.len()];
    let mut pending_start = vec![false; s.kinds.len()];
    let mut outstanding: VecDeque<(usize, Op)> = VecDeque::new();
    let mut next = 0usize;
    let mut bytes = Vec::new();
    let mut scratch = Vec::new();
    let mut burst_ops: Vec<(usize, Op)> = Vec::new();
    // Writes whose replies are not all in yet, with how many are missing.
    let mut open_bursts: VecDeque<(Burst, usize)> = VecDeque::new();
    while next < s.ops.len() || !outstanding.is_empty() {
        let now = Instant::now();
        bytes.clear();
        burst_ops.clear();
        let mut blocked = false;
        while next < s.ops.len() && due(next) <= now {
            let op = s.ops[next];
            if let Some(h) = op.handle() {
                if out.ids[h].is_none() {
                    if pending_start[h] {
                        blocked = true; // its start is still in flight
                        break;
                    }
                    out.attempted += 1;
                    out.failed += 1;
                    next += 1;
                    continue;
                }
            }
            if let Op::Start(h) = op {
                pending_start[h] = true;
            }
            let req = request(w, &s.kinds, &out.ids, op).expect("ids checked above");
            served::frame(&req, &mut scratch, &mut bytes);
            burst_ops.push((next, op));
            next += 1;
        }
        if !bytes.is_empty() {
            let sent = Instant::now();
            if let Err(e) = wire.write(&bytes) {
                out.errors.push(format!("write: {e}"));
                return;
            }
            for &(k, op) in &burst_ops {
                out.late_us
                    .push(sent.saturating_duration_since(due(k)).as_secs_f64() * 1e6);
                outstanding.push_back((k, op));
            }
            if traced {
                open_bursts.push_back(((sent, burst_ops.clone(), 0.0), burst_ops.len()));
            }
        }
        let wait = if next < s.ops.len() && !blocked {
            due(next).saturating_duration_since(Instant::now())
        } else {
            Duration::from_millis(5)
        };
        let resp = match wire.recv_within(wait) {
            Ok(Some(resp)) => resp,
            Ok(None) => continue,
            Err(e) => {
                out.errors.push(e);
                return;
            }
        };
        let now = Instant::now();
        let Some((k, op)) = outstanding.pop_front() else {
            out.errors
                .push("a reply with no request outstanding".into());
            return;
        };
        let lat_us = now.saturating_duration_since(due(k)).as_secs_f64() * 1e6;
        trace::record("client.request", k as u64, due(k), now);
        settle(w, s, out, op, resp, (k / WINDOW_OPS, lat_us), &mut diverged);
        if let Op::Start(h) = op {
            // A refused start leaves its instance unborn: skip its ops.
            pending_start[h] = false;
        }
        if let (Op::Advance(_), Some(rt)) = (op, rt) {
            out.pending_peak = out.pending_peak.max(rt.pending_timer_count());
        }
        if traced {
            // Close the burst this op was written in once its last reply
            // is in: its time runs from the write to that reply.
            if let Some(front) = open_bursts.front_mut() {
                front.1 -= 1;
                if front.1 == 0 {
                    let ((sent, ops, _), _) = open_bursts.pop_front().expect("front exists");
                    out.bursts.push((sent, ops, us_since(sent)));
                }
            }
        }
    }
    out.timed_s = start.elapsed().as_secs_f64();
    out.bytes = wire.bytes_sent + wire.bytes_received - bytes0;
}

#[derive(Default)]
struct Round {
    setup_s: f64,
    timed_s: f64,
    fires: u64,
    fire_us: Vec<Sample>,
    start_us: Vec<Sample>,
    poll_us: Vec<Sample>,
    late_us: Vec<f64>,
    deploy_us: Vec<f64>,
    outcomes: Vec<author::Outcome>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    pending_peak: usize,
    bytes: u64,
    log: Option<AppendLog>,
    wal: Option<(ctr_store::StoreStats, u64)>,
    /// Traced rounds: per connection, the schedule, ids and bursts.
    conns: Vec<(Schedule, Vec<Option<u64>>, Vec<Burst>)>,
}

fn open_wal(dir: &Path) -> Result<WalStore, String> {
    WalStore::open_with(
        dir,
        WalOptions {
            durability: Durability::coalesced(),
            ..WalOptions::default()
        },
    )
    .map_err(|e| format!("open WAL: {e}"))
}

fn round(w: &Workload, seed: u64, index: u64, seconds: f64, traced: bool) -> Round {
    let mut r = Round::default();
    let t_setup = Instant::now();
    for (k, task) in w.tasks.iter().enumerate() {
        match author::run(task, k as u64) {
            Ok(o) => r.outcomes.push(o),
            Err(e) => r.errors.push(format!("author check: {e}")),
        }
    }
    let dir = util::fresh_dir("saga_wal");
    let wal = match open_wal(&dir) {
        Ok(wal) => Arc::new(wal),
        Err(e) => {
            r.errors.push(e);
            return r;
        }
    };
    let timed = traced.then(|| Arc::new(TimedStore::new(wal.clone())));
    let store: Arc<dyn Store> = match &timed {
        Some(t) => t.clone(),
        None => wal.clone(),
    };
    let rt = SharedRuntime::with_store(store);
    let server = Running::start(rt.clone());
    let mut control = match Wire::connect(server.addr) {
        Ok(c) => c,
        Err(e) => {
            r.errors.push(format!("connect: {e}"));
            return r;
        }
    };
    for (name, source) in [("payment_saga", SAGA), ("cart", CART)] {
        let t = Instant::now();
        let resp = control.call(&Request::Deploy {
            source: source.to_owned(),
        });
        r.deploy_us.push(us_since(t));
        r.attempted += 1;
        if !matches!(&resp, Ok(Response::Name(n)) if n == name) {
            r.failed += 1;
            r.errors.push(format!("deploy answered {resp:?}"));
        }
    }
    let schedules: Vec<Schedule> = (0..CONNS)
        .map(|c| {
            schedule(
                w,
                &mut Rng::fork(seed, 200 + index * 16 + c as u64),
                seconds,
                c == 0,
            )
        })
        .collect();
    let barrier = Barrier::new(CONNS);
    let outs: Vec<ConnOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter()
            .enumerate()
            .map(|(c, s)| {
                let barrier = &barrier;
                let addr = server.addr;
                let rt = (traced && c == 0).then_some(&rt);
                scope.spawn(move || {
                    let mut out = ConnOut {
                        ids: vec![None; s.kinds.len()],
                        ..ConnOut::default()
                    };
                    let mut wire = match Wire::connect(addr) {
                        Ok(wire) => Some(wire),
                        Err(e) => {
                            out.errors.push(format!("connect: {e}"));
                            None
                        }
                    };
                    if let Some(wire) = wire.as_mut() {
                        if let Err(e) = start_base(wire, &mut out) {
                            out.errors.push(e);
                        }
                    }
                    out.ready = Some(Instant::now());
                    barrier.wait();
                    if let Some(wire) = wire.as_mut() {
                        if out.errors.is_empty() {
                            drive(w, s, wire, &mut out, traced, rt);
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    r.setup_s = outs
        .iter()
        .filter_map(|o| o.ready)
        .max()
        .map_or(0.0, |t| t.duration_since(t_setup).as_secs_f64());
    // Expire every cart still pending, then check the deadlines.
    let mut fired: Vec<(u64, String)> = Vec::new();
    let last_clock = schedules[0]
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::Advance(t) => Some(*t),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    r.attempted += 1;
    match control.call(&Request::Advance {
        to_ms: last_clock + CART_DEADLINE_MS + ADVANCE_STEP_MS,
    }) {
        Ok(Response::Fired(f)) => fired.extend(f),
        other => r.errors.push(format!("final advance answered {other:?}")),
    }
    for out in &outs {
        r.attempted += out.attempted;
        r.failed += out.failed;
        r.errors.extend(out.errors.iter().cloned());
        r.fires += out.fires;
        r.timed_s = r.timed_s.max(out.timed_s);
        r.fire_us.extend_from_slice(&out.fire_us);
        r.start_us.extend_from_slice(&out.start_us);
        r.poll_us.extend_from_slice(&out.poll_us);
        r.late_us.extend_from_slice(&out.late_us);
        r.pending_peak = r.pending_peak.max(out.pending_peak);
        fired.extend(out.fired_timers.iter().cloned());
        r.bytes += out.bytes;
    }
    check_deadlines(&mut r, &outs, &schedules, &fired);
    if let Some(stats) = rt.store_stats() {
        r.wal = Some((stats, util::dir_bytes(&dir)));
    }
    server.stop();
    drop(control);
    // Recovery must reproduce the live fleet exactly.
    let live = rt.snapshot();
    r.log = timed.as_ref().map(|t| t.log());
    drop(rt);
    drop(timed);
    drop(wal);
    match open_wal(&dir)
        .and_then(|wal| SharedRuntime::open(Arc::new(wal)).map_err(|e| e.to_string()))
    {
        Ok(recovered) => {
            if recovered.snapshot() != live {
                r.errors
                    .push("the WAL reopened to a different snapshot than the live runtime".into());
            }
        }
        Err(e) => r.errors.push(format!("reopen: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);
    util::settle_allocator();
    if traced {
        r.conns = schedules
            .into_iter()
            .zip(outs)
            .map(|(s, o)| (s, o.ids, o.bursts))
            .collect();
    }
    r
}

/// Every cart's deadline fired exactly once and no saga's did.
fn check_deadlines(
    r: &mut Round,
    outs: &[ConnOut],
    schedules: &[Schedule],
    fired: &[(u64, String)],
) {
    let mut kind_of: BTreeMap<u64, Kind> = BTreeMap::new();
    for (out, s) in outs.iter().zip(schedules) {
        for (h, id) in out.ids.iter().enumerate() {
            if let Some(id) = id {
                kind_of.insert(*id, s.kinds[h]);
            }
        }
    }
    let mut count: BTreeMap<u64, usize> = BTreeMap::new();
    for (id, tick) in fired {
        match kind_of.get(id) {
            Some(Kind::Cart) if tick == CART_TICK => *count.entry(*id).or_default() += 1,
            other => r
                .errors
                .push(format!("timer {tick} fired on instance {id} ({other:?})")),
        }
    }
    for (id, kind) in &kind_of {
        if matches!(kind, Kind::Cart) && count.get(id) != Some(&1) {
            r.errors.push(format!(
                "cart {id} deadline fired {:?} times",
                count.get(id)
            ));
        }
    }
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

fn med(rs: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&mut rs.iter().map(f).collect::<Vec<_>>())
}

fn p(values: &[f64], pct: f64) -> f64 {
    percentile(&mut values.to_vec(), pct)
}

/// The median over every window of every round of a per-window
/// percentile.
fn windowed(rs: &[Round], f: impl Fn(&Round) -> &Vec<Sample>, pct: f64) -> f64 {
    let mut stats = Vec::new();
    for r in rs {
        let mut windows: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for &(w, v) in f(r) {
            windows.entry(w).or_default().push(v);
        }
        stats.extend(windows.into_values().map(|mut v| percentile(&mut v, pct)));
    }
    median(&mut stats)
}

fn values(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.1).collect()
}

fn end_to_end(report: &mut Report, rs: &[Round]) {
    let verify = |r: &Round| -> Vec<f64> {
        r.outcomes
            .iter()
            .flat_map(|o| o.verify_us.iter().copied())
            .collect()
    };
    let samples = |f: &dyn Fn(&Round) -> usize| rs.iter().map(f).sum::<usize>();
    let pooled = |f: &dyn Fn(&Round) -> &Vec<Sample>, pct: f64| -> f64 {
        let mut all: Vec<f64> = rs.iter().flat_map(|r| values(f(r))).collect();
        percentile(&mut all, pct)
    };
    report.note(format!(
        "saga_wal: offered {RATE} requests/s on each of {CONNS} connections, {ROUND_S} s per round, {BASE_SAGAS} set-up sagas per connection; latency from each request's due time"
    ));
    report.note(format!(
        "latency figures are the median over {:.1} s windows of each window's percentile; samples in all: fire {}, start {}, poll {}; compile {} (served deploys) and verify {} (author check in set-up) are medians over {} rounds",
        WINDOW_OPS as f64 / RATE,
        samples(&|r| r.fire_us.len()),
        samples(&|r| r.start_us.len()),
        samples(&|r| r.poll_us.len()),
        samples(&|r| r.deploy_us.len()),
        samples(&|r| verify(r).len()),
        rs.len()
    ));
    report.note(format!(
        "pooled over the run: fire p50 {:.0} p99 {:.0} us, start p99 {:.0} us, poll p99 {:.0} us, generator late p99 {:.1} us",
        pooled(&|r| &r.fire_us, 50.0),
        pooled(&|r| &r.fire_us, 99.0),
        pooled(&|r| &r.start_us, 99.0),
        pooled(&|r| &r.poll_us, 99.0),
        percentile(&mut rs.iter().flat_map(|r| r.late_us.iter().copied()).collect::<Vec<_>>(), 99.0)
    ));
    report.set("setup_s", med(rs, |r| r.setup_s));
    report.set("fires_per_s", med(rs, |r| r.fires as f64 / r.timed_s));
    report.set("fire_p50_us", windowed(rs, |r| &r.fire_us, 50.0));
    report.set("fire_p99_us", windowed(rs, |r| &r.fire_us, 99.0));
    report.set("start_p99_us", windowed(rs, |r| &r.start_us, 99.0));
    report.set("poll_p99_us", windowed(rs, |r| &r.poll_us, 99.0));
    report.set("compile_p50_us", med(rs, |r| p(&r.deploy_us, 50.0)));
    report.set("verify_p50_us", med(rs, |r| p(&verify(r), 50.0)));
    report.set("verify_p99_us", med(rs, |r| p(&verify(r), 99.0)));
}

/// Rounds until `seconds` have passed (at least `min_rounds`); only the
/// last round of a traced set keeps its spans.
fn rounds(
    w: &Workload,
    seed: u64,
    seconds: f64,
    min_rounds: usize,
    traced: bool,
) -> (Vec<Round>, Vec<trace::Span>) {
    let t0 = Instant::now();
    let mut out = Vec::new();
    let mut spans = Vec::new();
    while out.len() < min_rounds || t0.elapsed().as_secs_f64() < seconds {
        trace::set_enabled(traced);
        out.push(round(w, seed, out.len() as u64, ROUND_S, traced));
        spans = trace::drain();
        trace::set_enabled(false);
    }
    (out, spans)
}

pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) {
    let w = match prepare(seed) {
        Ok(w) => w,
        Err(e) => {
            report.check(false, || format!("planning: {e}"));
            return;
        }
    };
    if !traced {
        let (rs, _) = rounds(&w, seed, seconds, 3, false);
        account(report, &rs);
        end_to_end(report, &rs);
        return;
    }
    let (plain, _) = rounds(&w, seed, seconds / 2.0, 2, false);
    let (traced_rounds, live_spans) = rounds(&w, seed, seconds / 2.0, 2, true);
    account(report, &plain);
    account(report, &traced_rounds);
    let base = windowed(&plain, |r| &r.fire_us, 50.0);
    let with = windowed(&traced_rounds, |r| &r.fire_us, 50.0);
    report.set("trace.overhead_ratio", with / base);
    report.note(format!(
        "tracing overhead: fire p50 {with:.1} us traced vs {base:.1} us untraced ({} + {} rounds)",
        traced_rounds.len(),
        plain.len()
    ));
    let last = traced_rounds.last().expect("at least two traced rounds");
    layer_metrics(report, &w, last, live_spans);
}

fn layer_metrics(report: &mut Report, w: &Workload, r: &Round, live_spans: Vec<trace::Span>) {
    let log = r.log.clone().unwrap_or_default();
    crate::layers::store_metrics(report, &log, r.wal, r.fires);
    crate::layers::author_metrics(report, &r.outcomes.iter().collect::<Vec<_>>());
    report.set("runtime.wheel.pending_peak", r.pending_peak as f64);
    let mut late = r.late_us.clone();
    report.set("loadgen.late_p99_us", percentile(&mut late, 99.0));

    // Socket-free replay on a fresh runtime over a fresh WAL: the set-up
    // starts of each connection, then every write in the order the
    // clients made them, with instance ids resolved through the replay's
    // own start replies.
    let dir = util::fresh_dir("saga_replay");
    let wal = match open_wal(&dir) {
        Ok(wal) => wal,
        Err(e) => {
            report.check(false, || e);
            return;
        }
    };
    let replay_store = Arc::new(TimedStore::new(Arc::new(wal)));
    let rt = SharedRuntime::with_store(replay_store.clone());
    for source in [SAGA, CART] {
        if let Err(e) = rt.deploy_source(source) {
            report.check(false, || format!("replay deploy: {e}"));
            return;
        }
    }
    let mut ids: Vec<Vec<Option<u64>>> = Vec::new();
    for (s, _, _) in &r.conns {
        let mut conn_ids = vec![None; s.kinds.len()];
        for slot in conn_ids.iter_mut().take(BASE_SAGAS) {
            *slot = rt.start("payment_saga").ok();
        }
        ids.push(conn_ids);
    }
    // Replay ids run on from the set-up starts, one per start replayed.
    let mut next_id = (BASE_SAGAS * r.conns.len()) as u64;
    let mut writes: Vec<(usize, &Burst)> = Vec::new();
    for (c, (_, _, bursts)) in r.conns.iter().enumerate() {
        writes.extend(bursts.iter().map(|b| (c, b)));
    }
    writes.sort_by_key(|(_, b)| b.0);
    let mut stats = crate::served::ReplayStats::default();
    let mut rtt = Vec::new();
    let mut spans = Vec::new();
    let mut scratch = Vec::new();
    for (b, &(c, (_, ops, rtt_us))) in writes.iter().enumerate() {
        let s = &r.conns[c].0;
        let mut bytes = Vec::new();
        for &(_, op) in ops {
            if let Op::Start(h) = op {
                ids[c][h] = Some(next_id);
                next_id += 1;
            }
            if let Some(req) = request(w, &s.kinds, &ids[c], op) {
                served::frame(&req, &mut scratch, &mut bytes);
            }
        }
        trace::set_enabled(true);
        let one = served::replay(&rt, std::slice::from_ref(&bytes));
        for mut span in trace::drain() {
            span.req = b as u64;
            spans.push(span);
        }
        trace::set_enabled(false);
        stats.burst_ns.extend(one.burst_ns);
        stats.requests += one.requests;
        stats.fires += one.fires;
        stats.faults += one.faults;
        stats.decode_ns += one.decode_ns;
        stats.encode_ns += one.encode_ns;
        stats.response_bytes += one.response_bytes;
        rtt.push(*rtt_us);
    }
    drop(rt);
    let replay_log = replay_store.log();
    drop(replay_store);
    let _ = std::fs::remove_dir_all(&dir);
    report.note(format!(
        "replay: {} writes, {} requests, {} replies differed from a clean fire (timer-driven replies can differ in a single-threaded replay)",
        writes.len(),
        stats.requests,
        stats.faults
    ));
    let layers = trace::layers(&spans);
    if let Some(adv) = layers.get("runtime.advance") {
        let expired = replay_log.per_kind[5].max(1) as f64;
        report.set(
            "runtime.advance_us_per_expiry",
            adv.self_ns as f64 / 1e3 / expired,
        );
    }
    crate::layers::served_layers(report, &spans, &stats, &rtt, "saga_wal");
    report.set(
        "serve.protocol.bytes_per_fire",
        r.bytes as f64 / r.fires.max(1) as f64,
    );
    let mut sagas: Vec<Vec<Plan>> = vec![w.saga_plans.clone()];
    sagas.push(vec![w.cart_plan.clone()]);
    let sched =
        crate::layers::scheduler_replay(report, &[SAGA.to_owned(), CART.to_owned()], &sagas);
    report.set("engine.scheduler.fire_event_ns", sched);
    let written = crate::layers::dump_spans(&live_spans, &spans, "saga_wal");
    report.set("trace.spans", (live_spans.len() + spans.len()) as f64);
    report.note(format!("spans written: {written}"));
}
