//! A `Store` wrapper that times every `append` from outside the store,
//! tagged with the record kind and its event count. Used only in traced
//! runs; untraced runs hand the runtime the bare store.

use crate::trace;
use ctr_store::{Record, Replay, Store, StoreError, StoreStats};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Record kinds, in the order of [`KIND_NAMES`].
pub const KIND_NAMES: [&str; 7] = [
    "deploy",
    "start",
    "events",
    "complete",
    "timer_arm",
    "timer_fire",
    "timer_cancel",
];

fn kind(record: &Record) -> usize {
    match record {
        Record::Deploy { .. } => 0,
        Record::Start { .. } => 1,
        Record::Events { .. } => 2,
        Record::Complete { .. } => 3,
        Record::TimerArm { .. } => 4,
        Record::TimerFire { .. } => 5,
        Record::TimerCancel { .. } => 6,
    }
}

#[derive(Clone, Default)]
pub struct AppendLog {
    /// Appends per record kind.
    pub per_kind: [u64; 7],
    /// Journal events carried by the appends.
    pub events: u64,
    /// Timers armed by `TimerArm` records.
    pub timers_armed: u64,
    /// Wall time of each append, in µs.
    pub append_us: Vec<f64>,
}

pub struct TimedStore {
    inner: Arc<dyn Store>,
    log: Mutex<AppendLog>,
}

impl TimedStore {
    pub fn new(inner: Arc<dyn Store>) -> TimedStore {
        TimedStore {
            inner,
            log: Mutex::new(AppendLog::default()),
        }
    }

    pub fn log(&self) -> AppendLog {
        self.log.lock().expect("append log poisoned").clone()
    }
}

impl Store for TimedStore {
    fn append(&self, record: &Record) -> Result<(), StoreError> {
        let t0 = Instant::now();
        let out = trace::span("store.append", kind(record) as u64, || {
            self.inner.append(record)
        });
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let mut log = self.log.lock().expect("append log poisoned");
        log.per_kind[kind(record)] += 1;
        log.events += record.event_count();
        if let Record::TimerArm { timers, .. } = record {
            log.timers_armed += timers.len() as u64;
        }
        log.append_us.push(us);
        out
    }

    fn replay(&self) -> Result<Replay, StoreError> {
        self.inner.replay()
    }

    fn checkpoint(&self, snapshot: &str) -> Result<(), StoreError> {
        self.inner.checkpoint(snapshot)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}
