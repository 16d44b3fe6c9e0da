//! Served-workload plumbing: an in-process server over loopback TCP, a
//! raw pipelining connection, and the socket-free replay of recorded
//! bursts through `protocol` → `SharedRuntime` → `protocol`.

use crate::trace;
use ctr_runtime::{FireOutcome, SharedRuntime};
use ctr_serve::protocol::{self, Fault, Request, Response, WireOutcome};
use ctr_serve::{ServeOptions, Server, ServerHandle};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A server bound to an ephemeral loopback port, running on its own
/// thread.
pub struct Running {
    pub addr: SocketAddr,
    handle: ServerHandle,
    join: Option<JoinHandle<io::Result<()>>>,
}

impl Running {
    pub fn start(rt: SharedRuntime) -> Running {
        let server = Server::bind(rt, "127.0.0.1:0", ServeOptions::default())
            .expect("bind a loopback ephemeral port");
        let addr = server.local_addr();
        let handle = server.handle();
        let join = Some(std::thread::spawn(move || server.run()));
        Running { addr, handle, join }
    }

    /// Stops the server and waits for every connection thread.
    pub fn stop(mut self) {
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            join.join()
                .expect("server thread panicked")
                .expect("server loop failed");
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            self.handle.shutdown();
            let _ = join.join();
        }
    }
}

/// Appends one framed request to `out`.
pub fn frame(req: &Request, scratch: &mut Vec<u8>, out: &mut Vec<u8>) {
    scratch.clear();
    protocol::encode_request(req, scratch);
    protocol::encode_frame(scratch, out);
}

/// A raw client connection: the caller frames requests, writes whole
/// bursts, and reads responses back in FIFO order. Unlike
/// `ctr_serve::Client`, it writes bursts framed before timing starts,
/// counts the bytes it moves, and can wait for a reply until a deadline.
pub struct Wire {
    stream: TcpStream,
    rx: Vec<u8>,
    chunk: Vec<u8>,
    pub bytes_sent: u64,
    pub bytes_received: u64,
}

impl Wire {
    pub fn connect(addr: SocketAddr) -> io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Wire {
            stream,
            rx: Vec::new(),
            chunk: vec![0u8; 64 * 1024],
            bytes_sent: 0,
            bytes_received: 0,
        })
    }

    pub fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.bytes_sent += bytes.len() as u64;
        Ok(())
    }

    /// The next already-buffered response, if a whole frame is buffered.
    fn take_buffered(&mut self) -> Result<Option<Response>, String> {
        match protocol::split_frame(&self.rx) {
            Ok(Some((consumed, payload))) => {
                let resp = protocol::decode_response(payload).map_err(|e| e.to_string())?;
                self.rx.drain(..consumed);
                Ok(Some(resp))
            }
            Ok(None) => Ok(None),
            Err(e) => Err(e.to_string()),
        }
    }

    fn fill(&mut self) -> Result<bool, String> {
        match self.stream.read(&mut self.chunk) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(n) => {
                self.rx.extend_from_slice(&self.chunk[..n]);
                self.bytes_received += n as u64;
                Ok(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(false),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Blocks for the next response.
    pub fn recv(&mut self) -> Result<Response, String> {
        self.stream
            .set_read_timeout(None)
            .map_err(|e| e.to_string())?;
        loop {
            if let Some(resp) = self.take_buffered()? {
                return Ok(resp);
            }
            self.fill()?;
        }
    }

    /// The next response if one arrives within `wait`. Waits in `ppoll`,
    /// which wakes on data or at the deadline with microsecond precision
    /// (a socket read timeout would round up to a scheduler tick).
    pub fn recv_within(&mut self, wait: Duration) -> Result<Option<Response>, String> {
        if let Some(resp) = self.take_buffered()? {
            return Ok(Some(resp));
        }
        if !readable_within(&self.stream, wait).map_err(|e| e.to_string())? {
            return Ok(None);
        }
        self.stream
            .set_read_timeout(None)
            .map_err(|e| e.to_string())?;
        self.fill()?;
        self.take_buffered()
    }

    /// One request, one reply.
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        frame(req, &mut scratch, &mut out);
        self.write(&out).map_err(|e| e.to_string())?;
        self.recv()
    }
}

/// Sends `reqs` pipelined in chunks of `depth`, returning every response
/// with its latency from the chunk's write (µs).
pub fn pipelined(
    wire: &mut Wire,
    reqs: &[Request],
    depth: usize,
) -> Result<Vec<(Response, f64)>, String> {
    let mut out = Vec::with_capacity(reqs.len());
    let mut scratch = Vec::new();
    let mut bytes = Vec::new();
    for chunk in reqs.chunks(depth) {
        bytes.clear();
        for req in chunk {
            frame(req, &mut scratch, &mut bytes);
        }
        let t0 = Instant::now();
        wire.write(&bytes).map_err(|e| e.to_string())?;
        for _ in chunk {
            let resp = wire.recv()?;
            out.push((resp, crate::util::us_since(t0)));
        }
    }
    Ok(out)
}

/// What the socket-free replay measured.
#[derive(Default)]
pub struct ReplayStats {
    /// Server-side time of each burst, ns, in replay order.
    pub burst_ns: Vec<f64>,
    pub requests: u64,
    pub fires: u64,
    /// Responses that were a fault or a rejected/skipped outcome.
    pub faults: u64,
    pub decode_ns: u64,
    pub encode_ns: u64,
    pub response_bytes: u64,
}

/// Replays bursts of framed requests through `decode_request`, the
/// runtime (`fire_runs` for maximal runs of fire verbs, one call per
/// barrier verb) and `encode_response`: the server's burst path without
/// the socket, rebuilt here from public calls because the server's own
/// burst executor is private. Instance ids in `bursts` must be ids of
/// `rt`.
pub fn replay(rt: &SharedRuntime, bursts: &[Vec<u8>]) -> ReplayStats {
    let mut stats = ReplayStats::default();
    let mut requests: Vec<Request> = Vec::new();
    let mut responses: Vec<Response> = Vec::new();
    let mut tx: Vec<u8> = Vec::new();
    let mut payload: Vec<u8> = Vec::new();
    for (b, burst) in bursts.iter().enumerate() {
        let req_id = b as u64;
        let t0 = Instant::now();
        trace::span("replay.burst", req_id, || {
            let d0 = Instant::now();
            trace::span("serve.protocol.decode", req_id, || {
                requests.clear();
                let mut at = 0;
                while let Ok(Some((len, body))) = protocol::split_frame(&burst[at..]) {
                    requests.push(protocol::decode_request(body).expect("replayed frames decode"));
                    at += len;
                }
            });
            stats.decode_ns += d0.elapsed().as_nanos() as u64;
            responses.clear();
            execute(rt, &requests, &mut responses, req_id);
            let e0 = Instant::now();
            trace::span("serve.protocol.encode", req_id, || {
                tx.clear();
                for resp in &responses {
                    payload.clear();
                    protocol::encode_response(resp, &mut payload);
                    protocol::encode_frame(&payload, &mut tx);
                }
            });
            stats.encode_ns += e0.elapsed().as_nanos() as u64;
        });
        stats.burst_ns.push(t0.elapsed().as_nanos() as f64);
        stats.requests += requests.len() as u64;
        stats.response_bytes += tx.len() as u64;
        for (req, resp) in requests.iter().zip(&responses) {
            match req {
                Request::Fire { .. } => stats.fires += 1,
                Request::FireBatch { events, .. } => stats.fires += events.len() as u64,
                _ => {}
            }
            let bad = match resp {
                Response::Error(_) => true,
                Response::Outcomes(os) => os.iter().any(|o| !matches!(o, WireOutcome::Fired(_))),
                _ => false,
            };
            stats.faults += u64::from(bad);
        }
    }
    stats
}

/// Runs one decoded burst in request order, as the server does.
fn execute(rt: &SharedRuntime, requests: &[Request], out: &mut Vec<Response>, req_id: u64) {
    let mut i = 0;
    while i < requests.len() {
        if matches!(
            requests[i],
            Request::Fire { .. } | Request::FireBatch { .. }
        ) {
            let start = i;
            while i < requests.len()
                && matches!(
                    requests[i],
                    Request::Fire { .. } | Request::FireBatch { .. }
                )
            {
                i += 1;
            }
            let runs: Vec<(u64, &[String])> = requests[start..i]
                .iter()
                .map(|req| match req {
                    Request::Fire { instance, event } => (*instance, std::slice::from_ref(event)),
                    Request::FireBatch { instance, events } => (*instance, events.as_slice()),
                    _ => unreachable!("the run holds only fire verbs"),
                })
                .collect();
            let outcomes = trace::span("runtime.fire_runs", req_id, || rt.fire_runs(&runs));
            for (req, run) in requests[start..i].iter().zip(&outcomes) {
                out.push(match req {
                    Request::Fire { .. } => match &run[0] {
                        FireOutcome::Fired(status) => Response::Status((*status).into()),
                        FireOutcome::Rejected(e) => Response::Error(Fault::from_runtime(e)),
                        FireOutcome::Skipped => Response::Outcomes(vec![WireOutcome::Skipped]),
                    },
                    _ => Response::Outcomes(run.iter().map(WireOutcome::from_runtime).collect()),
                });
            }
            continue;
        }
        let err = |e: ctr_runtime::RuntimeError| Response::Error(Fault::from_runtime(&e));
        out.push(match &requests[i] {
            Request::Start { workflow } => trace::span("runtime.start", req_id, || {
                rt.start(workflow).map_or_else(err, Response::InstanceId)
            }),
            Request::Eligible { instance } => trace::span("runtime.eligible", req_id, || {
                rt.eligible_symbols(*instance)
                    .map_or_else(err, Response::Symbols)
            }),
            Request::Advance { to_ms } => trace::span("runtime.advance", req_id, || {
                rt.advance(*to_ms).map_or_else(err, Response::Fired)
            }),
            Request::CancelTimer { instance, event } => {
                trace::span("runtime.cancel_timer", req_id, || {
                    rt.cancel_timer(*instance, event)
                        .map_or_else(err, |()| Response::Unit)
                })
            }
            Request::Deploy { source } => trace::span("runtime.deploy", req_id, || {
                rt.deploy_source(source).map_or_else(err, Response::Name)
            }),
            other => panic!("the benchmark never sends {other:?}"),
        });
        i += 1;
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 1;

/// Whether `stream` has bytes to read (or has closed) within `wait`.
fn readable_within(stream: &TcpStream, wait: Duration) -> io::Result<bool> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: wait.as_secs() as i64,
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: `fd` and `timeout` are live, properly laid out `struct
    // pollfd` and `struct timespec` values for the whole call; `nfds` is
    // 1, matching the single `pollfd`; a null sigmask means "leave the
    // signal mask alone". The descriptor belongs to `stream`, which the
    // caller keeps open across the call.
    let n = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    match n {
        -1 => {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
        0 => Ok(false),
        _ => Ok(true),
    }
}
