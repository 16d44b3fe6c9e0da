//! Per-layer figures shared by the workloads: store counters from the
//! timing wrapper, author-path timings, the scheduler replay, and the
//! served-path breakdown from the socket-free replay.

use crate::author::Outcome;
use crate::report::Report;
use crate::served::ReplayStats;
use crate::specs::Plan;
use crate::timed_store::{AppendLog, KIND_NAMES};
use crate::trace::{self, Span};
use crate::util::{median, percentile, work_dir};
use ctr::symbol::sym;
use ctr_engine::{Program, Scheduler};
use ctr_store::StoreStats;
use std::time::Instant;

/// A percentile of a power-of-two histogram (bucket `i` holds
/// `[2^i, 2^(i+1))`), interpolated linearly inside its bucket.
fn hist_percentile(hist: &[u64], pct: f64) -> f64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = (pct / 100.0 * total as f64).max(1.0);
    let mut cum = 0.0;
    for (i, &count) in hist.iter().enumerate() {
        if count > 0 && cum + count as f64 >= target {
            let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
            let hi = (1u64 << (i + 1)) as f64;
            return lo + (hi - lo) * (target - cum) / count as f64;
        }
        cum += count as f64;
    }
    (1u64 << hist.len()) as f64
}

/// Store figures. `wal` carries the WAL's own counters and its bytes on
/// disk; without it the sync figures read 0 (no fsyncs happen).
pub fn store_metrics(
    report: &mut Report,
    log: &AppendLog,
    wal: Option<(StoreStats, u64)>,
    fires: u64,
) {
    let mut append_us = log.append_us.clone();
    report.set("store.append_us_p50", percentile(&mut append_us, 50.0));
    report.set("store.append_us_p99", percentile(&mut append_us, 99.0));
    let names: [&'static str; 7] = [
        "store.appends.deploy",
        "store.appends.start",
        "store.appends.events",
        "store.appends.complete",
        "store.appends.timer_arm",
        "store.appends.timer_fire",
        "store.appends.timer_cancel",
    ];
    for (name, count) in names.iter().zip(log.per_kind) {
        report.set(name, count as f64);
    }
    let event_appends = log.per_kind[2] + log.per_kind[5];
    report.set(
        "store.events_per_append",
        log.events as f64 / event_appends.max(1) as f64,
    );
    report.set("runtime.wheel.armed", log.timers_armed as f64);
    report.set("runtime.wheel.expired", log.per_kind[5] as f64);
    report.note(format!(
        "store appends by kind: {}",
        KIND_NAMES
            .iter()
            .zip(log.per_kind)
            .map(|(k, n)| format!("{k}={n}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if let Some((stats, bytes)) = wal {
        report.set(
            "store.sync_us_p50",
            hist_percentile(&stats.fsync_micros_hist, 50.0),
        );
        report.set(
            "store.sync_us_p99",
            hist_percentile(&stats.fsync_micros_hist, 99.0),
        );
        report.set(
            "store.fsyncs_per_fire",
            stats.fsyncs as f64 / fires.max(1) as f64,
        );
        report.set(
            "store.frames_per_sync",
            stats.appends as f64 / stats.fsyncs.max(1) as f64,
        );
        report.set(
            "store.bytes_per_event",
            bytes as f64 / stats.events.max(1) as f64,
        );
        report.note(format!(
            "wal: {} appends, {} events, {} fsyncs, {bytes} bytes on disk; sync percentiles interpolate the store's power-of-two histogram",
            stats.appends, stats.events, stats.fsyncs
        ));
    }
}

/// Parser, lowering and core figures from author passes.
pub fn author_metrics(report: &mut Report, outcomes: &[&Outcome]) {
    let col = |f: &dyn Fn(&Outcome) -> f64| -> f64 {
        median(&mut outcomes.iter().map(|o| f(o)).collect::<Vec<_>>())
    };
    report.set("parser.parse_spec_us", col(&|o| o.parse_us));
    report.set("workflow.to_goal_us", col(&|o| o.to_goal_us));
    report.set("core.apply_us", col(&|o| o.apply_us));
    report.set("core.excise_us", col(&|o| o.excise_us));
    report.set("core.applied_size", col(&|o| o.applied_size as f64));
    report.set("core.knots", outcomes.iter().map(|o| o.knots as f64).sum());
    let hits: u64 = outcomes.iter().map(|o| o.memo_hits).sum();
    let misses: u64 = outcomes.iter().map(|o| o.memo_misses).sum();
    report.set(
        "core.memo.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.set("core.memo.entries", col(&|o| o.memo_entries as f64));
}

/// Replays planned traces on `Scheduler::fire_event` over each compiled
/// workflow; returns ns per fire and checks every fire is accepted.
pub fn scheduler_replay(report: &mut Report, sources: &[String], plans: &[Vec<Plan>]) -> f64 {
    let mut total_ns = 0u128;
    let mut fires = 0u64;
    for (source, plans) in sources.iter().zip(plans) {
        let spec = match ctr_parser::parse_spec(source) {
            Ok(spec) => spec,
            Err(e) => {
                report.check(false, || format!("scheduler replay parse: {e}"));
                continue;
            }
        };
        let compiled = match spec.compile() {
            Ok(c) => c,
            Err(e) => {
                report.check(false, || format!("scheduler replay compile: {e}"));
                continue;
            }
        };
        let program = match Program::compile(&compiled.goal) {
            Ok(p) => p,
            Err(e) => {
                report.check(false, || format!("scheduler replay program: {e:?}"));
                continue;
            }
        };
        for (k, plan) in plans.iter().enumerate() {
            let events: Vec<ctr::Symbol> = plan.events.iter().map(|e| sym(e)).collect();
            let mut sched = Scheduler::new(&program);
            let t0 = Instant::now();
            let accepted = trace::span("engine.scheduler.fire_event", k as u64, || {
                events.iter().all(|&e| sched.fire_event(e))
            });
            total_ns += t0.elapsed().as_nanos();
            fires += events.len() as u64;
            report.check(accepted, || {
                format!("scheduler rejected planned trace {:?}", plan.events)
            });
        }
    }
    total_ns as f64 / fires.max(1) as f64
}

/// The served-path breakdown: per-layer self time per burst from the
/// socket-free replay, the socket as the residual of the client's
/// round trip over the replayed server time of the same burst, and the
/// layers' sum against the end-to-end median.
pub fn served_layers(
    report: &mut Report,
    spans: &[Span],
    stats: &ReplayStats,
    rtt_us: &[f64],
    workload: &str,
) {
    let layers = trace::layers(spans);
    let req = stats.requests.max(1) as f64;
    report.set(
        "serve.protocol.decode_ns_per_req",
        stats.decode_ns as f64 / req,
    );
    report.set(
        "serve.protocol.encode_ns_per_resp",
        stats.encode_ns as f64 / req,
    );
    let self_ns = |name: &str| layers.get(name).map_or(0, |l| l.self_ns) as f64;
    let count = |name: &str| layers.get(name).map_or(0, |l| l.count) as f64;
    if stats.fires > 0 {
        report.set(
            "runtime.fire_runs_ns_per_fire",
            self_ns("runtime.fire_runs") / stats.fires as f64,
        );
    }
    if count("runtime.eligible") > 0.0 {
        report.set(
            "runtime.eligible_ns",
            self_ns("runtime.eligible") / count("runtime.eligible"),
        );
    }
    if count("runtime.start") > 0.0 {
        report.set(
            "runtime.start_us",
            self_ns("runtime.start") / count("runtime.start") / 1e3,
        );
    }
    let mut residual: Vec<f64> = rtt_us
        .iter()
        .zip(&stats.burst_ns)
        .map(|(rtt, server)| (rtt - server / 1e3).max(0.0))
        .collect();
    let socket = median(&mut residual);
    report.set("serve.server.socket_us_per_burst", socket);

    // Median per-burst self time of each layer, from spans tagged with
    // the burst index.
    let bursts = stats.burst_ns.len();
    let mut per_burst: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for (s, own) in spans.iter().zip(trace::self_ns(spans)) {
        let v = per_burst.entry(s.name).or_insert_with(|| vec![0.0; bursts]);
        if let Some(slot) = v.get_mut(s.req as usize) {
            *slot += own as f64 / 1e3;
        }
    }
    let mut shares: Vec<(String, f64)> = per_burst
        .into_iter()
        .filter(|(name, _)| *name != "engine.scheduler.fire_event")
        .map(|(name, mut v)| {
            let label = if name == "replay.burst" {
                "serve.server.dispatch"
            } else {
                name
            };
            (label.to_owned(), median(&mut v))
        })
        .collect();
    shares.push(("serve.server.socket (residual)".into(), socket));
    let sum: f64 = shares.iter().map(|(_, v)| v).sum();
    let mut rtt = rtt_us.to_vec();
    let e2e = median(&mut rtt);
    report.set("trace.layer_sum_ratio", sum / e2e);
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, v) in &shares {
        report.note(format!(
            "{workload} layer {name}: {v:.2} us self per burst (median)"
        ));
    }
    report.note(format!(
        "{workload} layer sum {sum:.2} us vs end-to-end burst median {e2e:.2} us over {} bursts",
        rtt_us.len()
    ));
    let heaviest: Vec<&str> = shares.iter().take(2).map(|(n, _)| n.as_str()).collect();
    report.note(format!(
        "{workload} heaviest layers: {}",
        heaviest.join(", ")
    ));
}

/// Writes spans under the work directory; returns how many.
pub fn dump_spans(live: &[Span], replay: &[Span], workload: &str) -> usize {
    const LIMIT: usize = 200_000;
    let dir = work_dir();
    let _ = std::fs::create_dir_all(&dir);
    let mut all: Vec<Span> = live.iter().chain(replay).copied().collect();
    all.truncate(LIMIT);
    let path = dir.join(format!("spans-{workload}-{}.tsv", std::process::id()));
    trace::write_tsv(&all, &path, LIMIT).unwrap_or(0)
}
