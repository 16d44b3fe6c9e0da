//! The load harness behind `ctr load` and the `loadgen` binary.
//!
//! Drives a `ctr serve` endpoint with N connections × M active
//! instances per connection over a generated chain workflow, in two
//! traffic shapes:
//!
//! * **closed loop** — each connection keeps `depth` requests in
//!   flight and sends the next burst only after the previous one is
//!   fully answered. `depth = 1` is the honest one-request-per-round-
//!   trip baseline; larger depths are the pipelined shape the server's
//!   burst batching is built for.
//! * **open loop** — each connection *offers* a fixed request rate on
//!   a schedule, regardless of responses (a sender and a receiver
//!   thread per connection). Latency under an offered rate is the
//!   number capacity planning wants; a closed loop can never measure
//!   it because it self-throttles.
//!
//! The harness records client-observed p50/p99 latency, wall-clock
//! throughput, and — through the wire `stats` verb — the server's
//! fsyncs-per-fire, so a durability configuration's coalescing shows
//! up in the same table as its latency cost. [`bench_json`] spins up
//! in-process servers (real loopback TCP) for every
//! {connections} × {durability} cell and writes `BENCH_serve.json`,
//! leading with the [`crate::host_json_row`] — a scaling curve from a
//! 1-CPU CI box must say so.

use crate::client::{Client, ClientError};
use crate::protocol::{self, Request, Response};
use crate::server::{ServeOptions, Server};
use ctr_runtime::Runtime;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Traffic shape; see the module docs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    /// `depth` requests in flight per connection, burst by burst.
    Closed,
    /// Offered load: this many fires per second *per connection*.
    Open { rate_per_conn: u64 },
}

/// One load run's shape.
#[derive(Clone, Debug)]
pub struct LoadOptions {
    /// Concurrent connections.
    pub connections: usize,
    /// Active instances each connection rotates through — the
    /// per-burst fan-out a server burst can group by instance.
    pub active_instances: usize,
    /// Fire requests per connection.
    pub fires_per_conn: usize,
    /// Pipeline depth (closed loop; 1 = one request per round trip).
    pub depth: usize,
    /// Chain length of the generated workload workflow.
    pub events: usize,
    /// Closed or open loop.
    pub mode: Mode,
}

impl Default for LoadOptions {
    fn default() -> LoadOptions {
        LoadOptions {
            connections: 4,
            active_instances: 8,
            fires_per_conn: 5_000,
            depth: 64,
            events: 32,
            mode: Mode::Closed,
        }
    }
}

/// What a load run measured.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Fires acknowledged (every one `Fired` — the chain plan never
    /// offers an ineligible event).
    pub total_fires: usize,
    /// Instances started (setup, untimed).
    pub instances_started: usize,
    /// First-send to last-response across all connections.
    pub wall: Duration,
    /// `total_fires / wall`.
    pub fires_per_sec: f64,
    /// Client-observed median latency, microseconds.
    pub p50_us: u64,
    /// Client-observed 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Server store appends over the run (0 without a store).
    pub appends: u64,
    /// Server commit fsyncs over the run (0 without a store).
    pub fsyncs: u64,
    /// `fsyncs / total_fires`.
    pub fsyncs_per_fire: f64,
}

/// The generated workload: a chain workflow, so every instance accepts
/// exactly `e0 … e{n-1}` in order and the plan below is always
/// eligible.
pub fn chain_source(events: usize, name: &str) -> String {
    use std::fmt::Write as _;
    let mut src = format!("workflow {name} {{ graph ");
    for i in 0..events {
        if i > 0 {
            src.push_str(" * ");
        }
        let _ = write!(src, "e{i}");
    }
    src.push_str("; }");
    src
}

/// Deterministic fire plan for one connection: round-robin over a
/// window of `window` active slots, each slot walking the chain and
/// pulling a fresh instance ordinal when exhausted. Returns the
/// `(ordinal, event_index)` sequence and how many instances it needs.
fn build_plan(fires: usize, events: usize, window: usize) -> (Vec<(usize, usize)>, usize) {
    let window = window.max(1);
    let mut slots: Vec<(usize, usize)> = (0..window).map(|i| (i, 0)).collect();
    let mut next_ordinal = window;
    let mut pairs = Vec::with_capacity(fires);
    for k in 0..fires {
        let s = k % window;
        if slots[s].1 == events {
            slots[s] = (next_ordinal, 0);
            next_ordinal += 1;
        }
        pairs.push((slots[s].0, slots[s].1));
        slots[s].1 += 1;
    }
    (pairs, next_ordinal)
}

/// Starts `count` instances over one connection (pipelined, untimed).
/// Chunked well under the server's default burst budget so a large
/// plan's setup is never answered `Busy`.
fn start_instances(
    client: &mut Client,
    workflow: &str,
    count: usize,
) -> Result<Vec<u64>, ClientError> {
    const CHUNK: usize = 128;
    let mut ids = Vec::with_capacity(count);
    let mut remaining = count;
    while remaining > 0 {
        let chunk = remaining.min(CHUNK);
        for _ in 0..chunk {
            client.send(&Request::Start {
                workflow: workflow.to_owned(),
            });
        }
        client.flush()?;
        for _ in 0..chunk {
            match client.recv()? {
                Response::InstanceId(id) => ids.push(id),
                Response::Error(fault) => return Err(ClientError::Fault(fault)),
                _ => return Err(ClientError::Unexpected("start wants InstanceId")),
            }
        }
        remaining -= chunk;
    }
    Ok(ids)
}

struct ConnResult {
    latencies_us: Vec<u64>,
    started: Instant,
    finished: Instant,
    instances: usize,
}

/// Closed loop: bursts of `depth`, each fully answered before the
/// next. Latency is flush-to-response per request.
fn run_closed(
    client: &mut Client,
    plan: &[(usize, usize)],
    ids: &[u64],
    event_names: &[String],
    depth: usize,
    latencies_us: &mut Vec<u64>,
) -> Result<(), ClientError> {
    let depth = depth.max(1);
    let mut sent = 0;
    while sent < plan.len() {
        let burst = &plan[sent..(sent + depth).min(plan.len())];
        for &(ordinal, event) in burst {
            client.send(&Request::Fire {
                instance: ids[ordinal],
                event: event_names[event].clone(),
            });
        }
        let t0 = Instant::now();
        client.flush()?;
        for _ in burst {
            match client.recv()? {
                Response::Status(_) => {}
                Response::Error(fault) => return Err(ClientError::Fault(fault)),
                _ => return Err(ClientError::Unexpected("fire wants Status")),
            }
            latencies_us.push(t0.elapsed().as_micros() as u64);
        }
        sent += burst.len();
    }
    Ok(())
}

/// Open loop: a sender paces fires on a fixed schedule while a
/// receiver drains responses and stamps latency against the exact
/// send instants (FIFO responses make the pairing positional).
fn run_open(
    stream: &TcpStream,
    plan: &[(usize, usize)],
    ids: &[u64],
    event_names: &[String],
    rate_per_conn: u64,
    latencies_us: &mut Vec<u64>,
) -> Result<(), ClientError> {
    let interval = Duration::from_secs_f64(1.0 / rate_per_conn.max(1) as f64);
    let (stamp_tx, stamp_rx) = mpsc::channel::<Instant>();
    let mut sender = stream.try_clone().map_err(ClientError::Io)?;
    let mut receiver = stream.try_clone().map_err(ClientError::Io)?;
    std::thread::scope(|scope| -> Result<(), ClientError> {
        let send_side = scope.spawn(move || -> Result<(), ClientError> {
            let mut payload = Vec::new();
            let mut frame = Vec::new();
            let start = Instant::now();
            for (k, &(ordinal, event)) in plan.iter().enumerate() {
                let due = start + interval * (k as u32);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                payload.clear();
                protocol::encode_request(
                    &Request::Fire {
                        instance: ids[ordinal],
                        event: event_names[event].clone(),
                    },
                    &mut payload,
                );
                frame.clear();
                protocol::encode_frame(&payload, &mut frame);
                sender.write_all(&frame)?;
                let _ = stamp_tx.send(Instant::now());
            }
            Ok(())
        });
        let mut rx: Vec<u8> = Vec::new();
        let mut chunk = vec![0u8; 64 * 1024];
        let mut answered = 0;
        while answered < plan.len() {
            if let Some((consumed, payload)) = protocol::split_frame(&rx)? {
                let resp = protocol::decode_response(payload)?;
                rx.drain(..consumed);
                match resp {
                    Response::Status(_) => {}
                    Response::Error(fault) => return Err(ClientError::Fault(fault)),
                    _ => return Err(ClientError::Unexpected("fire wants Status")),
                }
                let sent_at = stamp_rx
                    .recv()
                    .expect("sender stamps before receiver pairs");
                latencies_us.push(sent_at.elapsed().as_micros() as u64);
                answered += 1;
                continue;
            }
            let n = receiver.read(&mut chunk)?;
            if n == 0 {
                return Err(ClientError::Closed);
            }
            rx.extend_from_slice(&chunk[..n]);
        }
        send_side.join().expect("sender thread")?;
        Ok(())
    })
}

/// Runs one load shape against a serving endpoint. Deploys the chain
/// workload, pre-starts every instance the plan needs (untimed), then
/// fires the measured phase and reads the server's store counters
/// before and after.
pub fn drive(addr: &str, opts: &LoadOptions) -> Result<LoadReport, ClientError> {
    let workflow = "wireload";
    let source = chain_source(opts.events, workflow);
    let event_names: Vec<String> = (0..opts.events).map(|i| format!("e{i}")).collect();
    let mut control = Client::connect(addr)?;
    control.deploy(&source)?;
    let stats_before = control.stats()?;

    let (plan, instances_needed) =
        build_plan(opts.fires_per_conn, opts.events, opts.active_instances);
    let barrier = Barrier::new(opts.connections);
    let results: Vec<Result<ConnResult, ClientError>> = std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for _ in 0..opts.connections {
            let plan = &plan;
            let event_names = &event_names;
            let barrier = &barrier;
            workers.push(scope.spawn(move || -> Result<ConnResult, ClientError> {
                let mut client = Client::connect(addr)?;
                let ids = start_instances(&mut client, workflow, instances_needed)?;
                let mut latencies_us = Vec::with_capacity(plan.len());
                barrier.wait();
                let started = Instant::now();
                match opts.mode {
                    Mode::Closed => run_closed(
                        &mut client,
                        plan,
                        &ids,
                        event_names,
                        opts.depth,
                        &mut latencies_us,
                    )?,
                    Mode::Open { rate_per_conn } => run_open(
                        client.raw_stream(),
                        plan,
                        &ids,
                        event_names,
                        rate_per_conn,
                        &mut latencies_us,
                    )?,
                }
                Ok(ConnResult {
                    latencies_us,
                    started,
                    finished: Instant::now(),
                    instances: ids.len(),
                })
            }));
        }
        workers
            .into_iter()
            .map(|w| w.join().expect("connection thread"))
            .collect()
    });

    let mut latencies: Vec<u64> = Vec::new();
    let mut first_send: Option<Instant> = None;
    let mut last_recv: Option<Instant> = None;
    let mut instances_started = 0;
    for result in results {
        let conn = result?;
        latencies.extend(conn.latencies_us);
        first_send = Some(first_send.map_or(conn.started, |t| t.min(conn.started)));
        last_recv = Some(last_recv.map_or(conn.finished, |t| t.max(conn.finished)));
        instances_started += conn.instances;
    }
    let stats_after = control.stats()?;
    let wall = match (first_send, last_recv) {
        (Some(a), Some(b)) => b.duration_since(a),
        _ => Duration::ZERO,
    };
    latencies.sort_unstable();
    let pct = |p: usize| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        latencies[(latencies.len() * p / 100).min(latencies.len() - 1)]
    };
    let total_fires = latencies.len();
    let fsyncs = stats_after.fsyncs.saturating_sub(stats_before.fsyncs);
    Ok(LoadReport {
        total_fires,
        instances_started,
        wall,
        fires_per_sec: if wall.is_zero() {
            0.0
        } else {
            total_fires as f64 / wall.as_secs_f64()
        },
        p50_us: pct(50),
        p99_us: pct(99),
        appends: stats_after.appends.saturating_sub(stats_before.appends),
        fsyncs,
        fsyncs_per_fire: if total_fires == 0 {
            0.0
        } else {
            fsyncs as f64 / total_fires as f64
        },
    })
}

// --- BENCH_serve.json ------------------------------------------------------

/// Spins up an in-process server over real loopback TCP.
fn spawn_server(
    runtime: Runtime,
) -> (
    std::net::SocketAddr,
    crate::server::ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind(runtime, "127.0.0.1:0", ServeOptions::default())
        .expect("bind loopback ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

/// One durability configuration of the scaling table.
fn bench_runtime(durability: &str) -> (Runtime, Option<std::path::PathBuf>) {
    match durability {
        "mem" => (
            Runtime::with_store(std::sync::Arc::new(ctr_store::MemStore::new())),
            None,
        ),
        "wal_coalesced" => {
            let dir = std::env::temp_dir().join(format!(
                "ctr_serve_bench_{}_{}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos())
                    .unwrap_or(0)
            ));
            let store = ctr_store::WalStore::open_with(
                &dir,
                ctr_store::WalOptions {
                    durability: ctr_store::Durability::coalesced(),
                    ..ctr_store::WalOptions::default()
                },
            )
            .expect("open WAL store in temp dir");
            (Runtime::with_store(std::sync::Arc::new(store)), Some(dir))
        }
        other => unreachable!("unknown durability {other}"),
    }
}

/// Regenerates `BENCH_serve.json`: {1, 2, 4, 8} connections ×
/// {mem, wal_coalesced}, each cell measured one-request-per-round-trip
/// (`depth 1`) and pipelined (`depth 64`) over the same server, plus
/// one open-loop row. The first row is the host-facts row — the core
/// count is what decides whether a curve can honestly claim
/// multi-core scaling.
pub fn bench_json(path: &str, quick: bool) -> std::io::Result<()> {
    let (rtt_fires, pipe_fires) = if quick { (200, 2_000) } else { (1_500, 24_000) };
    // Half the server's default burst budget: deep enough to amortize
    // syscalls and appends, shallow enough that setup chunks and the
    // measured bursts never trip admission control.
    let depth = 128;
    let mut rows = vec![crate::host_json_row(if quick { &["smoke"] } else { &[] })];
    for durability in ["mem", "wal_coalesced"] {
        for connections in [1usize, 2, 4, 8] {
            let (runtime, dir) = bench_runtime(durability);
            let (addr, handle, join) = spawn_server(runtime);
            let addr = addr.to_string();
            let rtt = drive(
                &addr,
                &LoadOptions {
                    connections,
                    fires_per_conn: rtt_fires,
                    depth: 1,
                    ..LoadOptions::default()
                },
            )
            .expect("rtt load run");
            let pipelined = drive(
                &addr,
                &LoadOptions {
                    connections,
                    fires_per_conn: pipe_fires,
                    depth,
                    ..LoadOptions::default()
                },
            )
            .expect("pipelined load run");
            handle.shutdown();
            join.join()
                .expect("server thread")
                .expect("server exits cleanly");
            if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(dir);
            }
            let speedup = if rtt.fires_per_sec > 0.0 {
                pipelined.fires_per_sec / rtt.fires_per_sec
            } else {
                0.0
            };
            rows.push(format!(
                "  {{\"name\": \"serve/{durability}x{connections}\", \"durability\": \"{durability}\", \
                 \"connections\": {connections}, \"active_instances\": {}, \
                 \"rtt_fires\": {}, \"rtt_fires_per_sec\": {:.0}, \"rtt_p50_us\": {}, \"rtt_p99_us\": {}, \
                 \"rtt_fsyncs_per_fire\": {:.4}, \
                 \"pipelined_depth\": {depth}, \"pipelined_fires\": {}, \"pipelined_fires_per_sec\": {:.0}, \
                 \"pipelined_p50_us\": {}, \"pipelined_p99_us\": {}, \"pipelined_fsyncs_per_fire\": {:.4}, \
                 \"batching_speedup\": {:.2}}}",
                LoadOptions::default().active_instances,
                rtt.total_fires,
                rtt.fires_per_sec,
                rtt.p50_us,
                rtt.p99_us,
                rtt.fsyncs_per_fire,
                pipelined.total_fires,
                pipelined.fires_per_sec,
                pipelined.p50_us,
                pipelined.p99_us,
                pipelined.fsyncs_per_fire,
                speedup,
            ));
            eprintln!(
                "serve/{durability}x{connections}: rtt {:.0}/s (p50 {}us) → pipelined {:.0}/s (p50 {}us), {:.1}x",
                rtt.fires_per_sec, rtt.p50_us, pipelined.fires_per_sec, pipelined.p50_us, speedup
            );
        }
    }
    // One open-loop row: latency under an offered rate the closed loop
    // cannot measure (it self-throttles).
    {
        let (runtime, _) = bench_runtime("mem");
        let (addr, handle, join) = spawn_server(runtime);
        let rate = if quick { 2_000 } else { 10_000 };
        let fires = if quick { 1_000 } else { 10_000 };
        let report = drive(
            &addr.to_string(),
            &LoadOptions {
                connections: 2,
                fires_per_conn: fires,
                mode: Mode::Open {
                    rate_per_conn: rate,
                },
                ..LoadOptions::default()
            },
        )
        .expect("open-loop load run");
        handle.shutdown();
        join.join()
            .expect("server thread")
            .expect("server exits cleanly");
        rows.push(format!(
            "  {{\"name\": \"serve/open_memx2@{rate}\", \"durability\": \"mem\", \"connections\": 2, \
             \"offered_per_conn\": {rate}, \"total_fires\": {}, \"achieved_fires_per_sec\": {:.0}, \
             \"p50_us\": {}, \"p99_us\": {}}}",
            report.total_fires, report.fires_per_sec, report.p50_us, report.p99_us,
        ));
    }
    let json = format!("[\n{}\n]\n", rows.join(",\n"));
    std::fs::write(path, &json)?;
    eprintln!("wrote {path} ({} rows)", rows.len());
    Ok(())
}

// --- CLI entry point (shared by the `loadgen` binary and `ctr load`) ------

/// Usage text for `loadgen` / `ctr load`.
pub const LOAD_USAGE: &str = "\
usage:
  load bench [--quick] [--out PATH]
      regenerate the BENCH_serve.json scaling table against in-process
      servers ({1,2,4,8} connections x {mem, wal_coalesced}, closed
      loop at depth 1 and 64, plus one open-loop row)
  load ADDR [flags]
      drive an external `ctr serve` endpoint and print one report
      --connections N   concurrent connections        (default 4)
      --instances M     active instances/connection   (default 8)
      --fires F         fire requests per connection  (default 5000)
      --depth D         pipeline depth; 1 = one request per round trip
                        (default 64)
      --events E        chain length of the generated workload
                        (default 32)
      --rate R          open loop: offered fires/sec per connection
                        (closed loop when absent)
      --shutdown        ask the server to exit after the run

examples:
  ctr serve --addr 127.0.0.1:7171 &
  ctr load 127.0.0.1:7171 --connections 8 --depth 64
  ctr load 127.0.0.1:7171 --connections 2 --depth 1 --fires 500
  ctr load 127.0.0.1:7171 --rate 5000 --fires 20000
  ctr load bench --quick --out BENCH_serve.json";

fn parse_flag_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// Parses `load` arguments and runs the requested shape. Returns the
/// human-readable report text (already printed to stderr progress-wise
/// by the bench path).
pub fn cli_main(args: &[String]) -> Result<String, String> {
    let Some(first) = args.first() else {
        return Err(LOAD_USAGE.to_owned());
    };
    if first == "--help" || first == "-h" || first == "help" {
        return Ok(LOAD_USAGE.to_owned());
    }
    if first == "bench" {
        let mut quick = false;
        let mut out = "BENCH_serve.json".to_owned();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => quick = true,
                "--out" => out = parse_flag_value(args, &mut i, "--out")?,
                other => return Err(format!("unknown bench flag {other}\n\n{LOAD_USAGE}")),
            }
            i += 1;
        }
        bench_json(&out, quick).map_err(|e| format!("bench failed: {e}"))?;
        return Ok(format!("wrote {out}"));
    }
    let addr = first.clone();
    let mut opts = LoadOptions::default();
    let mut shutdown = false;
    let mut rate: Option<u64> = None;
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let int = |v: String| -> Result<usize, String> {
            v.parse::<usize>()
                .map_err(|_| format!("{flag} wants an integer, got {v}"))
        };
        match flag {
            "--connections" => opts.connections = int(parse_flag_value(args, &mut i, flag)?)?,
            "--instances" => opts.active_instances = int(parse_flag_value(args, &mut i, flag)?)?,
            "--fires" => opts.fires_per_conn = int(parse_flag_value(args, &mut i, flag)?)?,
            "--depth" => opts.depth = int(parse_flag_value(args, &mut i, flag)?)?,
            "--events" => opts.events = int(parse_flag_value(args, &mut i, flag)?)?.max(1),
            "--rate" => rate = Some(int(parse_flag_value(args, &mut i, flag)?)? as u64),
            "--shutdown" => shutdown = true,
            other => return Err(format!("unknown load flag {other}\n\n{LOAD_USAGE}")),
        }
        i += 1;
    }
    if let Some(rate_per_conn) = rate {
        opts.mode = Mode::Open { rate_per_conn };
    }
    let report = drive(&addr, &opts).map_err(|e| format!("load run failed: {e}"))?;
    let mut text = format!(
        "{} fires over {} connection(s) in {:.3}s\n\
         throughput  {:.0} fires/sec\n\
         latency     p50 {}us  p99 {}us\n\
         instances   {} started\n\
         store       {} appends, {} fsyncs ({:.4} fsyncs/fire)",
        report.total_fires,
        opts.connections,
        report.wall.as_secs_f64(),
        report.fires_per_sec,
        report.p50_us,
        report.p99_us,
        report.instances_started,
        report.appends,
        report.fsyncs,
        report.fsyncs_per_fire,
    );
    if shutdown {
        let mut control =
            Client::connect(&addr).map_err(|e| format!("shutdown connect failed: {e}"))?;
        control
            .shutdown()
            .map_err(|e| format!("shutdown failed: {e}"))?;
        text.push_str("\nserver    shutdown acknowledged");
    }
    Ok(text)
}
