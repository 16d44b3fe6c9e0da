//! Network front-end for the sharded workflow runtime.
//!
//! The paper's enactment story assumes a workflow *server*: external
//! agents report events as they happen, and the runtime accepts or
//! rejects them against the compiled control state. This crate is that
//! front-end over [`ctr_runtime::Runtime`]:
//!
//! * [`protocol`] — the length-prefixed, CRC-checked binary wire
//!   format (see `DESIGN.md` §16 for the spec);
//! * [`server`] — a thread-per-connection TCP server whose read loop
//!   coalesces pipelined `fire`/`fire_batch` requests into
//!   `Runtime::fire_runs` bursts: one instance-lock acquisition
//!   and one WAL group commit per instance per network read burst;
//! * [`client`] — a blocking client with explicit pipelining;
//! * [`loadgen`] — the load harness behind `ctr load` and the
//!   `loadgen` binary: closed- and open-loop drivers, latency
//!   percentiles, and the `BENCH_serve.json` scaling table.
//!
//! ## Host facts
//!
//! Every `BENCH_*.json` table starts with a [`host_json_row`]: core
//! count, a stable hostname hash, and build flags. A scaling claim
//! measured on a 1-CPU CI box is not a scaling claim — the row is what
//! makes each table's provenance checkable after the fact.

pub mod client;
pub mod loadgen;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError};
pub use protocol::{Fault, FaultCode, Request, Response, WireError, WireOutcome, WireStatus};
pub use server::{ServeOptions, Server, ServerHandle};

/// What kind of machine produced a benchmark table.
#[derive(Clone, Debug)]
pub struct HostFacts {
    /// Cores available to this process (`available_parallelism`).
    pub num_cpus: usize,
    /// FNV-1a hash of the hostname, hex — stable across runs on the
    /// same box, anonymous everywhere else.
    pub hostname_hash: String,
    /// Comma-separated build/run flags (`release`/`debug` plus
    /// whatever the caller adds, e.g. `smoke`).
    pub flags: String,
}

/// Collects host facts, appending `extra_flags` to the build flag.
pub fn host_facts(extra_flags: &[&str]) -> HostFacts {
    let num_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let hostname = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .ok()
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .or_else(|| std::env::var("HOSTNAME").ok())
        .or_else(|| std::env::var("COMPUTERNAME").ok())
        .unwrap_or_else(|| "unknown".to_owned());
    // FNV-1a, 64-bit.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in hostname.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut flags = vec![if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }];
    flags.extend_from_slice(extra_flags);
    HostFacts {
        num_cpus,
        hostname_hash: format!("{hash:016x}"),
        flags: flags.join(","),
    }
}

/// The host-facts row every `BENCH_*.json` array leads with (no
/// trailing comma or newline — the caller joins rows).
pub fn host_json_row(extra_flags: &[&str]) -> String {
    let facts = host_facts(extra_flags);
    format!(
        "  {{\"name\": \"host\", \"num_cpus\": {}, \"hostname_hash\": \"{}\", \"flags\": \"{}\"}}",
        facts.num_cpus, facts.hostname_hash, facts.flags
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_facts_are_populated_and_stable() {
        let a = host_facts(&["smoke"]);
        let b = host_facts(&["smoke"]);
        assert!(a.num_cpus >= 1);
        assert_eq!(a.hostname_hash, b.hostname_hash);
        assert_eq!(a.hostname_hash.len(), 16);
        assert!(a.flags.ends_with(",smoke"));
        let row = host_json_row(&[]);
        assert!(row.contains("\"name\": \"host\""));
        assert!(row.contains("\"num_cpus\""));
        assert!(row.contains("\"hostname_hash\""));
    }
}
