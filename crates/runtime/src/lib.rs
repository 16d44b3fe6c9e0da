#![warn(missing_docs)]

//! # ctr-runtime — workflow instance management
//!
//! The operational layer a workflow management system puts on top of the
//! paper's machinery: **deploy** a specification (compiling it once,
//! rejecting inconsistent ones — Theorem 5.8 at deployment time), **start**
//! instances, **fire** events as the outside world reports them, and
//! **snapshot/restore** everything as plain text.
//!
//! [`Runtime`] is the one runtime: a cloneable, `Send + Sync` handle
//! whose instance table is sharded so that clients of different
//! instances never contend (see [`shared`] for the locking model).
//!
//! Instances are **event-sourced**: the only persistent state is the
//! journal of fired events. Each instance holds a **cached incremental
//! cursor** over its deployment's `Arc`-shared compiled [`Program`]:
//! the cursor is materialized once at [`Runtime::start`], advanced in
//! place on every [`Runtime::fire`], and rebuilt by journal replay only
//! on [`Runtime::restore`] — so steady-state work per fire is constant
//! in the journal length ([`Runtime::replayed_steps`] counts the replay
//! work and stays at zero outside recovery). The cache is sound because
//! replay is deterministic: the compiled scheduler resolves
//! event-to-node ambiguity by a fixed rule, so replaying the journal
//! from scratch always reproduces the cached cursor state. This keeps
//! crash recovery trivial (replay) and the snapshot format
//! human-readable: the compiled goal in its concrete syntax plus one
//! journal line per instance.
//!
//! ```
//! use ctr_runtime::Runtime;
//!
//! let rt = Runtime::new();
//! rt.deploy_source("workflow pay { graph invoice * (approve + reject) * file; }").unwrap();
//! let id = rt.start("pay").unwrap();
//! assert_eq!(rt.eligible(id).unwrap(), vec!["invoice".to_owned()]);
//! rt.fire(id, "invoice").unwrap();
//! rt.fire(id, "approve").unwrap();
//! rt.fire(id, "file").unwrap();
//! assert!(rt.is_complete(id).unwrap());
//! ```

pub mod enact;
pub mod shared;
pub mod stats;
pub mod wheel;

use ctr::goal::Goal;
use ctr::timer::{parse_tick, TimerKind};
use ctr_engine::scheduler::{Program, Scheduler};
use ctr_store::Record;
use std::fmt;
use std::sync::Arc;

pub use ctr::symbol::Symbol;
pub use ctr_store::{Durability, MemStore, Store, StoreError, StoreStats, WalOptions, WalStore};
pub use enact::{
    AttemptOutcome, AttemptRecord, Backoff, ChoicePolicy, EnactError, EnactReport, Enactor, Fault,
    FaultPlan, Handler, RetryPolicy,
};
pub use shared::{Runtime, SharedRuntime};
pub use stats::{simulate, simulate_par, Simulation};
pub use wheel::{TimerToken, TimerWheel};

/// Identifier of a running instance.
pub type InstanceId = u64;

/// Errors from the runtime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// The specification failed to parse.
    Parse(String),
    /// The specification failed to compile (e.g. not unique-event).
    Compile(String),
    /// The specification is inconsistent: it was rejected at deployment.
    Inconsistent(String),
    /// No workflow deployed under this name.
    UnknownWorkflow(String),
    /// No instance with this id.
    UnknownInstance(InstanceId),
    /// The event is not eligible at the instance's current stage.
    NotEligible {
        /// The rejected event.
        event: String,
        /// What the pro-active scheduler would accept instead.
        eligible: Vec<String>,
    },
    /// The instance already completed.
    AlreadyComplete(InstanceId),
    /// A snapshot could not be decoded.
    Snapshot(String),
    /// The durable store rejected an operation (I/O failure or
    /// unrecoverable corruption). The in-memory state it guards is
    /// rolled back: a failed persist never leaves a half-committed fire.
    Store(String),
    /// A journal failed to replay against its deployed program — the
    /// journal (or the program it was validated against) is corrupt.
    Journal(String),
    /// No pending timer with this tick event on the instance.
    UnknownTimer {
        /// The instance polled or cancelled against.
        instance: InstanceId,
        /// The tick event that is not pending.
        event: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Parse(e) => write!(f, "parse error: {e}"),
            RuntimeError::Compile(e) => write!(f, "compile error: {e}"),
            RuntimeError::Inconsistent(name) => {
                write!(
                    f,
                    "workflow `{name}` is inconsistent and cannot be deployed"
                )
            }
            RuntimeError::UnknownWorkflow(name) => write!(f, "no workflow named `{name}`"),
            RuntimeError::UnknownInstance(id) => write!(f, "no instance #{id}"),
            RuntimeError::NotEligible { event, eligible } => write!(
                f,
                "event `{event}` is not eligible now (eligible: {})",
                eligible.join(", ")
            ),
            RuntimeError::AlreadyComplete(id) => write!(f, "instance #{id} already completed"),
            RuntimeError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            RuntimeError::Store(e) => write!(f, "store error: {e}"),
            RuntimeError::Journal(e) => write!(f, "journal error: {e}"),
            RuntimeError::UnknownTimer { instance, event } => {
                write!(f, "instance #{instance} has no pending timer `{event}`")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Lifecycle of an instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InstanceStatus {
    /// Events remain to fire.
    Running,
    /// The workflow ran to completion.
    Completed,
}

impl fmt::Display for InstanceStatus {
    /// The snapshot's status tag: `running` / `completed`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InstanceStatus::Running => "running",
            InstanceStatus::Completed => "completed",
        })
    }
}

/// Per-event result of a batched fire ([`Runtime::fire_batch`],
/// [`Runtime::fire_many`], [`Runtime::fire_runs`]).
///
/// A run commits its events in order and stops at the first failure:
/// the committed prefix is journaled exactly as if fired individually,
/// the failing event reports why, and everything after it is skipped
/// untried. The outcome vector always has one entry per input event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FireOutcome {
    /// The event fired; the instance's status immediately after it.
    Fired(InstanceStatus),
    /// The event was rejected (not eligible, instance already complete,
    /// unknown instance, or a failed store append); the run stopped
    /// here.
    Rejected(RuntimeError),
    /// A preceding event of the same run failed; this one was never
    /// attempted.
    Skipped,
}

/// One timer declared by a deployment's compiled goal: the synthetic
/// tick event carries its own delay in its name (`base@after30000`),
/// parsed once at deploy time. `base` is `Some` only for deadline
/// ticks — the event whose firing structurally satisfies the deadline
/// and therefore disarms it.
pub(crate) struct DeployedTimer {
    pub(crate) tick: Symbol,
    pub(crate) delay_ms: u64,
    pub(crate) base: Option<Symbol>,
}

pub(crate) struct Deployment {
    /// The compiled goal rendered once in its concrete syntax — the
    /// exact bytes both the snapshot line and the durable deploy record
    /// use. Caching the render keeps snapshots (which compaction puts
    /// on a hot-ish path) from re-walking the goal tree per call.
    pub(crate) rendered: String,
    /// The scheduling arena, shared (`Arc`) with every instance cursor.
    pub(crate) program: Arc<Program>,
    /// Timers to arm for every new instance, sorted by tick name.
    pub(crate) timers: Vec<DeployedTimer>,
}

impl Deployment {
    /// Compiles a goal into a deployment, caching its rendered text and
    /// scanning its event alphabet once for timer ticks.
    pub(crate) fn new(compiled: Goal) -> Result<Deployment, RuntimeError> {
        let program =
            Program::compile(&compiled).map_err(|e| RuntimeError::Compile(e.to_string()))?;
        let mut timers: Vec<DeployedTimer> = compiled
            .events()
            .iter()
            .filter_map(|&event| {
                let tick = parse_tick(event.as_str())?;
                let base = match tick.kind {
                    TimerKind::Deadline => Symbol::try_get(tick.base),
                    TimerKind::After => None,
                };
                Some(DeployedTimer {
                    tick: event,
                    delay_ms: tick.delay_ms,
                    base,
                })
            })
            .collect();
        timers.sort_by(|a, b| a.tick.as_str().cmp(b.tick.as_str()));
        Ok(Deployment {
            rendered: compiled.to_string(),
            program: Arc::new(program),
            timers,
        })
    }

    /// Appends this deployment's snapshot line (see
    /// [`render_snapshot`]).
    pub(crate) fn snapshot_line(&self, out: &mut String, name: &str) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "workflow {name} := {}", self.rendered);
    }

    /// Bytes [`Deployment::snapshot_line`] will append for `name`.
    pub(crate) fn snapshot_len(&self, name: &str) -> usize {
        "workflow  := \n".len() + name.len() + self.rendered.len()
    }
}

/// One pending timer of an instance: the tick event, its absolute due
/// on the runtime's logical clock, the wheel token that disarms it, and
/// (for deadlines) the base event whose firing satisfies it.
pub(crate) struct ArmedTimer {
    pub(crate) tick: Symbol,
    pub(crate) due: u64,
    pub(crate) token: TimerToken,
    pub(crate) base: Option<Symbol>,
}

/// Outcome of [`Instance::fire_timer`].
pub(crate) enum TimerFired {
    /// The tick committed as an ordinary journal event.
    Fired,
    /// The tick was no longer fireable — its deadline branch had been
    /// committed away — so the expiry disarmed vacuously.
    Vacuous,
}

/// One running instance: the journal (sole persistent state) plus the
/// cached cursor. All per-instance logic lives here; [`Runtime`] wraps
/// each `Instance` in its own lock.
pub(crate) struct Instance {
    pub(crate) workflow: String,
    pub(crate) journal: Vec<Symbol>,
    pub(crate) status: InstanceStatus,
    /// The program this instance pinned at start — also held by
    /// `cursor`, kept separately so the store-failure rollback path can
    /// rebuild the cursor without resolving the deployment registry.
    pub(crate) program: Arc<Program>,
    /// Cached cursor over the deployment's program: always equal to the
    /// state obtained by replaying `journal` against a fresh scheduler
    /// (replay is deterministic), but maintained incrementally.
    pub(crate) cursor: Scheduler<Arc<Program>>,
    /// Timers still pending for this instance (few per instance; linear
    /// scans). The wheel holds the mirror entry; `token` ties the two.
    pub(crate) timers: Vec<ArmedTimer>,
}

impl Instance {
    /// A fresh instance of `workflow`, materializing its cursor once.
    pub(crate) fn new(workflow: String, program: Arc<Program>) -> Instance {
        let cursor = Scheduler::new(Arc::clone(&program));
        let status = if cursor.is_complete() {
            InstanceStatus::Completed
        } else {
            InstanceStatus::Running
        };
        Instance {
            workflow,
            journal: Vec::new(),
            status,
            program,
            cursor,
            timers: Vec::new(),
        }
    }

    /// Records a wheel-armed timer on this instance.
    pub(crate) fn arm_timer(
        &mut self,
        tick: Symbol,
        due: u64,
        base: Option<Symbol>,
        token: TimerToken,
    ) {
        self.timers.push(ArmedTimer {
            tick,
            due,
            token,
            base,
        });
    }

    /// Removes and returns the pending timer for `tick`, if any.
    pub(crate) fn take_timer(&mut self, tick: Symbol) -> Option<ArmedTimer> {
        let i = self.timers.iter().position(|t| t.tick == tick)?;
        Some(self.timers.remove(i))
    }

    /// Removes every timer settled by the journal suffix
    /// `committed_from..` — the tick itself fired, or a deadline's base
    /// event fired — or by completion (a completed instance has no
    /// future), returning their wheel tokens. The caller cancels the
    /// tokens on the wheel, under the timer lock.
    pub(crate) fn settled_tokens(&mut self, committed_from: usize) -> Vec<TimerToken> {
        if self.timers.is_empty() {
            return Vec::new();
        }
        let mut dead: Vec<TimerToken> = Vec::new();
        if self.status == InstanceStatus::Completed {
            dead.extend(
                std::mem::take(&mut self.timers)
                    .into_iter()
                    .map(|t| t.token),
            );
        } else {
            let fired: Vec<Symbol> = self.journal[committed_from..].to_vec();
            for sym in fired {
                if let Some(t) = self.take_timer(sym) {
                    dead.push(t.token);
                }
                while let Some(pos) = self.timers.iter().position(|t| t.base == Some(sym)) {
                    dead.push(self.timers.remove(pos).token);
                }
            }
        }
        dead
    }

    /// Fires an expired tick as a journal event, write-ahead as
    /// [`Record::TimerFire`] (which also restores the clock watermark
    /// at recovery). A tick that is no longer structurally fireable —
    /// its deadline's or-branch was committed away without the derived
    /// disarm catching it — resolves [`TimerFired::Vacuous`], journaled
    /// as [`Record::TimerCancel`] because the advance that discovered
    /// it is not itself replayable. The caller has already removed the
    /// timer from `timers`; on `Err` nothing was journaled and the
    /// caller re-arms.
    pub(crate) fn fire_timer(
        &mut self,
        id: InstanceId,
        tick: Symbol,
        at_ms: u64,
        store: Option<&dyn Store>,
    ) -> Result<TimerFired, RuntimeError> {
        if self.status == InstanceStatus::Completed || !self.cursor.fire_event(tick) {
            if let Some(store) = store {
                store
                    .append(&Record::TimerCancel {
                        instance: id,
                        event: tick.as_str().to_owned(),
                    })
                    .map_err(|e| RuntimeError::Store(e.to_string()))?;
            }
            return Ok(TimerFired::Vacuous);
        }
        if let Some(store) = store {
            let record = Record::TimerFire {
                instance: id,
                event: tick.as_str().to_owned(),
                at_ms,
            };
            if let Err(e) = store.append(&record) {
                self.rebuild_cursor(Arc::clone(&self.program))?;
                return Err(RuntimeError::Store(e.to_string()));
            }
        }
        self.journal.push(tick);
        if self.cursor.is_complete() {
            self.status = InstanceStatus::Completed;
        }
        Ok(TimerFired::Fired)
    }

    /// The one commit loop: fires several independent *runs*
    /// (sub-batches) against this instance. Each run fires its events in
    /// order and stops at its first failure (rest
    /// [`FireOutcome::Skipped`]) but never stops the following runs,
    /// exactly as if the runs had been submitted as separate
    /// [`Runtime::fire_batch`] calls back to back. With a store attached
    /// this is write-ahead: all committed events of the whole burst
    /// reach the store through **one** append (one group commit on the
    /// WAL backend) before the burst is acknowledged.
    ///
    /// The burst is consequently one commit unit: if the append fails,
    /// *every* run rolls back (cursor rebuilt by replay, status
    /// restored) and every run reports `Rejected(Store)` on its first
    /// event with the rest `Skipped` — nothing was acknowledged, so no
    /// caller can have observed the discarded prefix. `Err` is reserved
    /// for a rollback that itself finds the journal unreplayable.
    pub(crate) fn fire_runs<S: AsRef<str>>(
        &mut self,
        id: InstanceId,
        runs: &[&[S]],
        store: Option<&dyn Store>,
    ) -> Result<Vec<Vec<FireOutcome>>, RuntimeError> {
        let status_before = self.status;
        let journal_before = self.journal.len();
        let mut outcomes: Vec<Vec<FireOutcome>> = Vec::with_capacity(runs.len());
        for events in runs {
            let mut run = Vec::with_capacity(events.len());
            for event in *events {
                if matches!(
                    run.last(),
                    Some(FireOutcome::Rejected(_) | FireOutcome::Skipped)
                ) {
                    run.push(FireOutcome::Skipped);
                    continue;
                }
                let event = event.as_ref();
                if self.status == InstanceStatus::Completed {
                    run.push(FireOutcome::Rejected(RuntimeError::AlreadyComplete(id)));
                    continue;
                }
                let symbol = Symbol::try_get(event).filter(|&s| self.cursor.fire_event(s));
                let Some(symbol) = symbol else {
                    run.push(FireOutcome::Rejected(RuntimeError::NotEligible {
                        event: event.to_owned(),
                        eligible: self.eligible_names(),
                    }));
                    continue;
                };
                // Later runs see the committed prefix immediately — the
                // in-memory journal is extended run by run so a mid-burst
                // snapshot or rollback always has the true event list.
                self.journal.push(symbol);
                if self.cursor.is_complete() {
                    self.status = InstanceStatus::Completed;
                }
                run.push(FireOutcome::Fired(self.status));
            }
            outcomes.push(run);
        }
        if let Some(store) = store {
            if self.journal.len() > journal_before {
                let record = Record::Events {
                    instance: id,
                    events: self.journal[journal_before..]
                        .iter()
                        .map(|s| s.as_str().to_owned())
                        .collect(),
                };
                if let Err(e) = store.append(&record) {
                    self.journal.truncate(journal_before);
                    self.rebuild_cursor(Arc::clone(&self.program))?;
                    self.status = status_before;
                    let failed = runs
                        .iter()
                        .map(|events| {
                            let mut run = Vec::with_capacity(events.len());
                            if !events.is_empty() {
                                run.push(FireOutcome::Rejected(RuntimeError::Store(e.to_string())));
                                run.resize(events.len(), FireOutcome::Skipped);
                            }
                            run
                        })
                        .collect();
                    return Ok(failed);
                }
            }
        }
        Ok(outcomes)
    }

    /// Probes silent completion; see [`Runtime::try_complete`]. A
    /// silent completion is the one status change replaying the event
    /// journal cannot reproduce, so with a store attached it persists
    /// its own [`Record::Complete`] — durably, before the status flips.
    pub(crate) fn try_complete(
        &mut self,
        id: InstanceId,
        store: Option<&dyn Store>,
    ) -> Result<InstanceStatus, RuntimeError> {
        // Probe on a clone: silent advances are NOT journaled, so they
        // must not leak into the cached cursor either — the cache always
        // mirrors exactly what journal replay would produce. A silent
        // *choice* is re-resolved after restore, so completion is
        // recorded in the status instead.
        let mut probe = self.cursor.clone();
        loop {
            if probe.is_complete() {
                if self.status != InstanceStatus::Completed {
                    if let Some(store) = store {
                        store
                            .append(&Record::Complete { instance: id })
                            .map_err(|e| RuntimeError::Store(e.to_string()))?;
                    }
                    self.status = InstanceStatus::Completed;
                }
                return Ok(InstanceStatus::Completed);
            }
            let eligible = probe.eligible();
            let Some(silent) = eligible.iter().find(|c| !c.observable) else {
                return Ok(self.status);
            };
            probe.fire(silent.node);
        }
    }

    /// Observable eligible events, deduplicated and sorted by name —
    /// allocation-free apart from the returned `Vec` (symbols resolve
    /// without copying). Timer ticks are filtered out: they fire
    /// through [`Runtime::advance`], never from clients, and the
    /// pending set is surfaced by [`Runtime::pending_timers`] instead.
    pub(crate) fn eligible_symbols(&self) -> Vec<Symbol> {
        let mut events: Vec<Symbol> = self
            .cursor
            .eligible()
            .iter()
            .filter_map(|c| self.cursor.program().event(c.node))
            .filter_map(ctr::term::Atom::as_event)
            .filter(|s| parse_tick(s.as_str()).is_none())
            .collect();
        events.sort_unstable_by_key(|s| s.as_str());
        events.dedup();
        events
    }

    /// [`Instance::eligible_symbols`], materialized as owned strings.
    pub(crate) fn eligible_names(&self) -> Vec<String> {
        self.eligible_symbols()
            .into_iter()
            .map(|s| s.as_str().to_owned())
            .collect()
    }

    /// The journal as owned strings.
    pub(crate) fn journal_names(&self) -> Vec<String> {
        self.journal.iter().map(|s| s.as_str().to_owned()).collect()
    }

    /// Appends this instance's snapshot line (shared serialization path;
    /// see [`Deployment::snapshot_line`]). Writes the journal symbols
    /// straight into `out` — no intermediate `Vec` or `join` allocation
    /// per instance, which matters once compaction snapshots a large
    /// fleet on the hot path.
    pub(crate) fn snapshot_line(&self, out: &mut String, id: InstanceId) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "instance {id} of {} [{}]: ",
            self.workflow, self.status
        );
        for (i, event) in self.journal.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(event.as_str());
        }
        out.push('\n');
        // Pending timers follow their instance line, sorted by tick
        // name — symbol ids differ across processes, names don't, and
        // snapshots must be byte-deterministic.
        let mut pending: Vec<&ArmedTimer> = self.timers.iter().collect();
        pending.sort_by(|a, b| a.tick.as_str().cmp(b.tick.as_str()));
        for t in pending {
            let _ = writeln!(out, "timer {id} {} due {}", t.tick.as_str(), t.due);
        }
    }

    /// Bytes [`Instance::snapshot_line`] will append for `id` (the
    /// status is sized at its longer variant; a one-byte-per-instance
    /// overshoot is fine for a reserve hint).
    pub(crate) fn snapshot_len(&self, id: InstanceId) -> usize {
        let id_digits = if id == 0 { 1 } else { id.ilog10() as usize + 1 };
        "instance  of  [completed]: \n".len()
            + id_digits
            + self.workflow.len()
            + self
                .journal
                .iter()
                .map(|s| s.as_str().len() + 1)
                .sum::<usize>()
            + self
                .timers
                .iter()
                .map(|t| "timer   due \n".len() + id_digits + t.tick.as_str().len() + 20)
                .sum::<usize>()
    }

    /// Rebuilds the cursor by replaying the journal against `program`,
    /// re-pinning the instance to it; returns the number of replayed
    /// events. A journal that no longer replays — corrupt storage, or a
    /// program that does not match the one the journal was validated
    /// against — is a typed [`RuntimeError::Journal`] error, and the
    /// instance keeps its previous cursor untouched. (This used to be a
    /// `debug_assert!`, i.e. silent cursor corruption in release builds;
    /// with journals coming back from disk it must be a real error.)
    pub(crate) fn rebuild_cursor(&mut self, program: Arc<Program>) -> Result<u64, RuntimeError> {
        let mut cursor = Scheduler::new(Arc::clone(&program));
        for &event in &self.journal {
            if !cursor.fire_event(event) {
                return Err(RuntimeError::Journal(format!(
                    "replay diverged: journaled event `{}` is not eligible under the deployed program",
                    event.as_str()
                )));
            }
        }
        self.program = program;
        self.cursor = cursor;
        Ok(self.journal.len() as u64)
    }
}

/// Renders the canonical snapshot text — the single serialization path
/// under [`Runtime::snapshot`] and [`Runtime::checkpoint`]. The buffer
/// is pre-sized in one counting pass.
pub(crate) fn render_snapshot<'a, D, I>(deployments: D, instances: I) -> String
where
    D: Iterator<Item = (&'a String, &'a Deployment)> + Clone,
    I: Iterator<Item = (InstanceId, &'a Instance)> + Clone,
{
    let mut len = SNAPSHOT_HEADER.len() + 1;
    for (name, d) in deployments.clone() {
        len += d.snapshot_len(name);
    }
    for (id, inst) in instances.clone() {
        len += inst.snapshot_len(id);
    }
    let mut out = String::with_capacity(len);
    out.push_str(SNAPSHOT_HEADER);
    out.push('\n');
    for (name, d) in deployments {
        d.snapshot_line(&mut out, name);
    }
    for (id, inst) in instances {
        inst.snapshot_line(&mut out, id);
    }
    out
}

/// First line of every snapshot; version-checks the format.
pub(crate) const SNAPSHOT_HEADER: &str = "ctr-runtime snapshot v1";

#[cfg(test)]
mod tests {
    use super::*;
    use ctr::constraints::Constraint;

    const PAY: &str = r"
        workflow pay {
            graph invoice * (approve + reject) * file;
        }
    ";

    fn runtime_with_pay() -> Runtime {
        let rt = Runtime::new();
        rt.deploy_source(PAY).unwrap();
        rt
    }

    #[test]
    fn deploy_start_fire_complete() {
        let rt = runtime_with_pay();
        assert_eq!(rt.workflows(), vec!["pay".to_owned()]);
        let id = rt.start("pay").unwrap();
        assert_eq!(rt.eligible(id).unwrap(), vec!["invoice".to_owned()]);
        rt.fire(id, "invoice").unwrap();
        assert_eq!(
            rt.eligible(id).unwrap(),
            vec!["approve".to_owned(), "reject".to_owned()]
        );
        rt.fire(id, "reject").unwrap();
        assert_eq!(rt.fire(id, "file").unwrap(), InstanceStatus::Completed);
        assert!(rt.is_complete(id).unwrap());
        assert_eq!(rt.journal(id).unwrap(), vec!["invoice", "reject", "file"]);
    }

    #[test]
    fn ineligible_events_are_rejected_with_alternatives() {
        let rt = runtime_with_pay();
        let id = rt.start("pay").unwrap();
        let err = rt.fire(id, "file").unwrap_err();
        let RuntimeError::NotEligible { event, eligible } = err else {
            panic!("expected NotEligible");
        };
        assert_eq!(event, "file");
        assert_eq!(eligible, vec!["invoice".to_owned()]);
        // The failed fire left no trace in the journal.
        assert!(rt.journal(id).unwrap().is_empty());
    }

    #[test]
    fn firing_into_completed_instance_fails() {
        let rt = runtime_with_pay();
        let id = rt.start("pay").unwrap();
        for e in ["invoice", "approve", "file"] {
            rt.fire(id, e).unwrap();
        }
        assert_eq!(
            rt.fire(id, "invoice"),
            Err(RuntimeError::AlreadyComplete(id))
        );
    }

    #[test]
    fn inconsistent_specs_are_rejected_at_deploy() {
        let rt = Runtime::new();
        let err = rt
            .deploy_source("workflow bad { graph b * a; constraint before(a, b); }")
            .unwrap_err();
        assert_eq!(err, RuntimeError::Inconsistent("bad".to_owned()));
    }

    #[test]
    fn constraints_gate_eligibility_at_runtime() {
        // A compiled order constraint: the runtime refuses the late event
        // until its predecessor fired — with zero constraint checking.
        let rt = Runtime::new();
        let compiled = ctr::analysis::compile(
            &ctr::goal::conc(vec![Goal::atom("a"), Goal::atom("b")]),
            &[Constraint::order("a", "b")],
        )
        .unwrap();
        rt.deploy_compiled("ab", compiled.goal).unwrap();
        let id = rt.start("ab").unwrap();
        assert_eq!(rt.eligible(id).unwrap(), vec!["a".to_owned()]);
        assert!(matches!(
            rt.fire(id, "b"),
            Err(RuntimeError::NotEligible { .. })
        ));
        rt.fire(id, "a").unwrap();
        rt.fire(id, "b").unwrap();
        assert!(rt.is_complete(id).unwrap());
    }

    #[test]
    fn multiple_instances_progress_independently() {
        let rt = runtime_with_pay();
        let i1 = rt.start("pay").unwrap();
        let i2 = rt.start("pay").unwrap();
        rt.fire(i1, "invoice").unwrap();
        assert_eq!(rt.eligible(i2).unwrap(), vec!["invoice".to_owned()]);
        rt.fire(i1, "approve").unwrap();
        rt.fire(i2, "invoice").unwrap();
        rt.fire(i2, "reject").unwrap();
        assert_eq!(rt.journal(i1).unwrap(), vec!["invoice", "approve"]);
        assert_eq!(rt.journal(i2).unwrap(), vec!["invoice", "reject"]);
    }

    #[test]
    fn snapshot_round_trips_mid_flight() {
        let rt = runtime_with_pay();
        let i1 = rt.start("pay").unwrap();
        let i2 = rt.start("pay").unwrap();
        rt.fire(i1, "invoice").unwrap();
        rt.fire(i1, "approve").unwrap();
        rt.fire(i2, "invoice").unwrap();

        let snap = rt.snapshot();
        let restored = Runtime::restore(&snap).unwrap();
        assert_eq!(restored.workflows(), vec!["pay".to_owned()]);
        assert_eq!(restored.journal(i1).unwrap(), vec!["invoice", "approve"]);
        assert_eq!(restored.eligible(i1).unwrap(), vec!["file".to_owned()]);
        assert_eq!(
            restored.eligible(i2).unwrap(),
            vec!["approve".to_owned(), "reject".to_owned()]
        );
        // New instances allocate past the restored ids.
        let i3 = restored.start("pay").unwrap();
        assert!(i3 > i2);
    }

    #[test]
    fn snapshot_round_trips_completed_instances() {
        let rt = runtime_with_pay();
        let id = rt.start("pay").unwrap();
        for e in ["invoice", "approve", "file"] {
            rt.fire(id, e).unwrap();
        }
        let restored = Runtime::restore(&rt.snapshot()).unwrap();
        assert!(restored.is_complete(id).unwrap());
    }

    #[test]
    fn snapshot_rejects_corruption() {
        assert!(Runtime::restore("bogus").is_err());
        assert!(
            Runtime::restore("ctr-runtime snapshot v1\ninstance 0 of ghost [running]: x").is_err()
        );
        // A journal that replay rejects.
        let rt = runtime_with_pay();
        rt.start("pay").unwrap();
        let snap = rt.snapshot().replace("[running]: ", "[running]: file");
        assert!(matches!(
            Runtime::restore(&snap),
            Err(RuntimeError::NotEligible { .. })
        ));
    }

    #[test]
    fn try_complete_finishes_silent_tails() {
        // a ⊗ (send-branch ∨ b): after a, the instance can finish without
        // another observable event.
        let goal = ctr::goal::seq(vec![
            Goal::atom("a"),
            ctr::goal::or(vec![Goal::Send(ctr::goal::Channel(0)), Goal::atom("b")]),
        ]);
        let rt = Runtime::new();
        rt.deploy_compiled("opt", goal).unwrap();
        let id = rt.start("opt").unwrap();
        rt.fire(id, "a").unwrap();
        assert_eq!(rt.status(id).unwrap(), InstanceStatus::Running);
        assert_eq!(rt.try_complete(id).unwrap(), InstanceStatus::Completed);
    }

    #[test]
    fn unknown_ids_and_names_error() {
        let rt = Runtime::new();
        assert_eq!(
            rt.start("ghost"),
            Err(RuntimeError::UnknownWorkflow("ghost".to_owned()))
        );
        assert_eq!(rt.eligible(42), Err(RuntimeError::UnknownInstance(42)));
        assert_eq!(rt.fire(42, "x"), Err(RuntimeError::UnknownInstance(42)));
    }

    #[test]
    fn fire_batch_matches_individual_fires() {
        // A full batch produces the same journal, statuses, and snapshot
        // as the same events fired one by one.
        let batched = runtime_with_pay();
        let single = runtime_with_pay();
        let ib = batched.start("pay").unwrap();
        let is_ = single.start("pay").unwrap();
        let events = ["invoice", "approve", "file"];
        let outcomes = batched.fire_batch(ib, &events).unwrap();
        let expected: Vec<FireOutcome> = events
            .iter()
            .map(|e| FireOutcome::Fired(single.fire(is_, e).unwrap()))
            .collect();
        assert_eq!(outcomes, expected);
        assert_eq!(
            outcomes.last(),
            Some(&FireOutcome::Fired(InstanceStatus::Completed))
        );
        assert_eq!(batched.snapshot(), single.snapshot());
    }

    #[test]
    fn fire_batch_journals_prefix_and_skips_suffix() {
        let rt = runtime_with_pay();
        let id = rt.start("pay").unwrap();
        // The second "invoice" is ineligible: the batch must stop there
        // with the first fire already committed.
        let outcomes = rt
            .fire_batch(id, &["invoice", "invoice", "approve", "file"])
            .unwrap();
        assert_eq!(outcomes.len(), 4);
        assert_eq!(outcomes[0], FireOutcome::Fired(InstanceStatus::Running));
        let FireOutcome::Rejected(RuntimeError::NotEligible { event, eligible }) = &outcomes[1]
        else {
            panic!("expected NotEligible, got {:?}", outcomes[1]);
        };
        assert_eq!(event, "invoice");
        assert_eq!(eligible, &["approve".to_owned(), "reject".to_owned()]);
        assert_eq!(outcomes[2], FireOutcome::Skipped);
        assert_eq!(outcomes[3], FireOutcome::Skipped);
        // Only the committed prefix reached the journal; the instance is
        // still usable afterwards.
        assert_eq!(rt.journal(id).unwrap(), vec!["invoice"]);
        rt.fire(id, "approve").unwrap();
        rt.fire(id, "file").unwrap();
        assert!(rt.is_complete(id).unwrap());
    }

    #[test]
    fn fire_batch_rejects_past_completion() {
        let rt = runtime_with_pay();
        let id = rt.start("pay").unwrap();
        let outcomes = rt
            .fire_batch(id, &["invoice", "approve", "file", "invoice"])
            .unwrap();
        assert_eq!(outcomes[2], FireOutcome::Fired(InstanceStatus::Completed));
        assert_eq!(
            outcomes[3],
            FireOutcome::Rejected(RuntimeError::AlreadyComplete(id))
        );
    }

    #[test]
    fn fire_batch_unknown_instance_is_err() {
        let rt = runtime_with_pay();
        assert_eq!(
            rt.fire_batch(42, &["invoice"]),
            Err(RuntimeError::UnknownInstance(42))
        );
    }

    #[test]
    fn empty_fire_batch_is_a_no_op() {
        let rt = runtime_with_pay();
        let id = rt.start("pay").unwrap();
        let outcomes = rt.fire_batch::<&str>(id, &[]).unwrap();
        assert!(outcomes.is_empty());
        assert!(rt.journal(id).unwrap().is_empty());
    }

    #[test]
    fn rejected_unknown_event_names_do_not_grow_the_interner() {
        let rt = runtime_with_pay();
        let id = rt.start("pay").unwrap();
        // Submitting never-interned names must not permanently intern
        // them: a hostile client pumping random names would otherwise
        // grow the process-global append-only table without bound. Other
        // tests intern concurrently, so retry the count comparison
        // instead of demanding a quiescent table.
        for attempt in 0.. {
            let hostile = format!("zz_hostile_name_{attempt}_never_interned");
            let before = ctr::symbol::Symbol::interned_count();
            let err = rt.fire(id, &hostile).unwrap_err();
            let batch = rt.fire_batch(id, &[hostile.as_str()]).unwrap();
            let after = ctr::symbol::Symbol::interned_count();
            assert!(matches!(err, RuntimeError::NotEligible { .. }));
            assert!(matches!(
                batch[0],
                FireOutcome::Rejected(RuntimeError::NotEligible { .. })
            ));
            assert_eq!(
                ctr::symbol::Symbol::try_get(&hostile),
                None,
                "rejected name must not be interned"
            );
            if before == after {
                break;
            }
            assert!(attempt < 5, "interner table would not settle");
        }
        // The instance is untouched and still fires known events.
        rt.fire(id, "invoice").unwrap();
    }

    #[test]
    fn mem_store_path_is_bit_identical_to_storeless() {
        // Attaching MemStore must not change a single observable byte:
        // same ids, same outcomes, same snapshot.
        let mut stored = Runtime::with_store(Arc::new(MemStore::new()));
        let mut plain = Runtime::new();
        for rt in [&mut stored, &mut plain] {
            rt.deploy_source(PAY).unwrap();
        }
        for _ in 0..3 {
            assert_eq!(stored.start("pay").unwrap(), plain.start("pay").unwrap());
        }
        let events = ["invoice", "approve", "file"];
        assert_eq!(
            stored.fire_batch(0, &events).unwrap(),
            plain.fire_batch(0, &events).unwrap()
        );
        assert_eq!(
            stored.fire(1, "invoice").unwrap(),
            plain.fire(1, "invoice").unwrap()
        );
        assert_eq!(stored.snapshot(), plain.snapshot());
        let stats = stored.store_stats().unwrap();
        assert_eq!(
            stats.appends,
            1 + 3 + 2,
            "deploy + starts + two event groups"
        );
        assert_eq!(stats.events, 4);
        assert_eq!(stats.max_group, 3);
        assert_eq!(plain.store_stats(), None);
    }

    #[test]
    fn open_recovers_the_full_fleet_from_records() {
        let store = Arc::new(MemStore::new());
        let snap_before;
        {
            let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn ctr_store::Store>);
            rt.deploy_source(PAY).unwrap();
            let i1 = rt.start("pay").unwrap();
            let i2 = rt.start("pay").unwrap();
            rt.fire_batch(i1, &["invoice", "approve", "file"]).unwrap();
            rt.fire(i2, "invoice").unwrap();
            snap_before = rt.snapshot();
        }
        // "Crash": drop the runtime, recover purely from the store.
        let rt = Runtime::open(store).unwrap();
        assert_eq!(rt.snapshot(), snap_before);
        assert!(rt.is_complete(0).unwrap());
        assert_eq!(rt.replayed_steps(), 4, "recovery replays every fire");
        // Recovered runtimes keep persisting: new ids continue the line.
        assert_eq!(rt.start("pay").unwrap(), 2);
    }

    #[test]
    fn open_recovers_silent_completion_via_complete_record() {
        let goal = ctr::goal::seq(vec![
            Goal::atom("a"),
            ctr::goal::or(vec![Goal::Send(ctr::goal::Channel(0)), Goal::atom("b")]),
        ]);
        let store = Arc::new(MemStore::new());
        {
            let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn ctr_store::Store>);
            rt.deploy_compiled("opt", goal).unwrap();
            let id = rt.start("opt").unwrap();
            rt.fire(id, "a").unwrap();
            assert_eq!(rt.try_complete(id).unwrap(), InstanceStatus::Completed);
        }
        let rt = Runtime::open(store).unwrap();
        assert!(rt.is_complete(0).unwrap(), "silent completion survives");
    }

    #[test]
    fn checkpoint_compacts_and_reopens_identically() {
        let store = Arc::new(MemStore::new());
        let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn ctr_store::Store>);
        rt.deploy_source(PAY).unwrap();
        let id = rt.start("pay").unwrap();
        rt.fire(id, "invoice").unwrap();
        rt.checkpoint().unwrap();
        // Post-checkpoint traffic lands as fresh records.
        rt.fire(id, "approve").unwrap();
        let snap = rt.snapshot();
        drop(rt);
        let replay = store.replay().unwrap();
        assert!(replay.snapshot.is_some(), "checkpoint installed a baseline");
        assert_eq!(replay.records.len(), 1, "only the post-checkpoint fire");
        let rt = Runtime::open(store).unwrap();
        assert_eq!(rt.snapshot(), snap);
    }

    #[test]
    fn storeless_checkpoint_is_a_typed_error() {
        let rt = runtime_with_pay();
        assert!(matches!(rt.checkpoint(), Err(RuntimeError::Store(_))));
    }

    #[test]
    fn diverged_journal_rebuild_is_a_typed_error_not_a_debug_assert() {
        // Re-deploy an incompatible body, then ask the instance to
        // rebuild from its (now unreplayable) journal: this used to be
        // a debug_assert! — a panic in debug builds, silent cursor
        // corruption in release. It must be a typed Journal error.
        let rt = runtime_with_pay();
        let id = rt.start("pay").unwrap();
        rt.fire(id, "invoice").unwrap();
        rt.fire(id, "approve").unwrap();
        rt.deploy_source("workflow pay { graph other * things; }")
            .unwrap();
        let err = rt.invalidate(id).unwrap_err();
        assert!(matches!(err, RuntimeError::Journal(_)), "got {err:?}");
        // The failed rebuild left the old cursor untouched and usable.
        assert_eq!(rt.eligible(id).unwrap(), vec!["file".to_owned()]);
        rt.fire(id, "file").unwrap();
        assert!(rt.is_complete(id).unwrap());
    }

    const TIMED: &str = r"
        workflow timed {
            graph invoice * approve * file;
            after(approve, 30s);
        }
    ";

    const GUARDED: &str = r"
        workflow guarded {
            graph invoice * approve;
            deadline(approve, 1h);
        }
    ";

    #[test]
    fn after_gates_its_event_until_the_clock_advances() {
        let rt = Runtime::new();
        rt.deploy_source(TIMED).unwrap();
        let id = rt.start("timed").unwrap();
        assert_eq!(
            rt.pending_timers(id).unwrap(),
            vec![("approve@after30000".to_owned(), 30_000)]
        );
        assert_eq!(rt.pending_timer_count(), 1);
        assert!(rt.next_timer_due().is_some_and(|due| due <= 30_000));
        rt.fire(id, "invoice").unwrap();
        // The gate holds: approve is not eligible (and the tick is
        // internal, never listed).
        assert!(matches!(
            rt.fire(id, "approve"),
            Err(RuntimeError::NotEligible { .. })
        ));
        assert!(rt.eligible(id).unwrap().is_empty());
        assert!(rt.advance(29_999).unwrap().is_empty());
        let fired = rt.advance(30_000).unwrap();
        assert_eq!(fired, vec![(id, "approve@after30000".to_owned())]);
        assert_eq!(rt.clock_ms(), 30_000);
        assert!(rt.pending_timers(id).unwrap().is_empty());
        assert_eq!(rt.eligible(id).unwrap(), vec!["approve".to_owned()]);
        rt.fire(id, "approve").unwrap();
        rt.fire(id, "file").unwrap();
        assert!(rt.is_complete(id).unwrap());
    }

    #[test]
    fn deadline_satisfied_by_its_base_event_disarms() {
        let rt = Runtime::new();
        rt.deploy_source(GUARDED).unwrap();
        let id = rt.start("guarded").unwrap();
        assert_eq!(
            rt.pending_timers(id).unwrap(),
            vec![("approve@deadline3600000".to_owned(), 3_600_000)]
        );
        rt.fire(id, "invoice").unwrap();
        rt.fire(id, "approve").unwrap();
        // Derived disarm: the base event fired, the deadline is gone.
        assert!(rt.pending_timers(id).unwrap().is_empty());
        assert_eq!(rt.pending_timer_count(), 0);
        assert!(rt.advance(4_000_000).unwrap().is_empty());
        // The watchdog or-branch finishes silently.
        assert_eq!(rt.try_complete(id).unwrap(), InstanceStatus::Completed);
    }

    #[test]
    fn deadline_expiry_fires_the_tick_as_a_journal_event() {
        let rt = Runtime::new();
        rt.deploy_source(GUARDED).unwrap();
        let id = rt.start("guarded").unwrap();
        rt.fire(id, "invoice").unwrap();
        let fired = rt.advance(3_600_000).unwrap();
        assert_eq!(fired, vec![(id, "approve@deadline3600000".to_owned())]);
        assert_eq!(
            rt.journal(id).unwrap(),
            vec!["invoice", "approve@deadline3600000"]
        );
        // Expiry records the missed deadline; the instance itself
        // continues — approve can still happen (late).
        assert_eq!(rt.status(id).unwrap(), InstanceStatus::Running);
        rt.fire(id, "approve").unwrap();
        assert_eq!(rt.try_complete(id).unwrap(), InstanceStatus::Completed);
    }

    #[test]
    fn completion_drains_pending_timers() {
        let rt = Runtime::new();
        rt.deploy_source(GUARDED).unwrap();
        let id = rt.start("guarded").unwrap();
        rt.fire(id, "invoice").unwrap();
        rt.fire(id, "approve").unwrap();
        rt.try_complete(id).unwrap();
        assert_eq!(rt.pending_timer_count(), 0);
        assert_eq!(rt.next_timer_due(), None);
    }

    #[test]
    fn cancel_timer_disarms_and_rejects_unknowns() {
        let rt = Runtime::new();
        rt.deploy_source(TIMED).unwrap();
        let id = rt.start("timed").unwrap();
        assert_eq!(
            rt.cancel_timer(id, "nope"),
            Err(RuntimeError::UnknownTimer {
                instance: id,
                event: "nope".to_owned()
            })
        );
        rt.cancel_timer(id, "approve@after30000").unwrap();
        assert!(rt.pending_timers(id).unwrap().is_empty());
        assert_eq!(rt.pending_timer_count(), 0, "the wheel entry is gone too");
        assert_eq!(
            rt.cancel_timer(id, "approve@after30000"),
            Err(RuntimeError::UnknownTimer {
                instance: id,
                event: "approve@after30000".to_owned()
            })
        );
        // The gate never opens now; the timer is simply gone.
        assert!(rt.advance(100_000).unwrap().is_empty());
    }

    #[test]
    fn timer_snapshot_round_trips_and_expires_identically() {
        let rt = Runtime::new();
        rt.deploy_source(TIMED).unwrap();
        rt.deploy_source(GUARDED).unwrap();
        let t = rt.start("timed").unwrap();
        let g = rt.start("guarded").unwrap();
        rt.fire(t, "invoice").unwrap();
        rt.fire(g, "invoice").unwrap();
        let snap = rt.snapshot();
        assert!(
            snap.contains("timer 0 approve@after30000 due 30000"),
            "{snap}"
        );
        let restored = Runtime::restore(&snap).unwrap();
        assert_eq!(restored.snapshot(), snap, "snapshot round-trips");
        assert_eq!(
            restored.pending_timers(t).unwrap(),
            rt.pending_timers(t).unwrap()
        );
        // Both expire the same way.
        assert_eq!(
            rt.advance(4_000_000).unwrap(),
            restored.advance(4_000_000).unwrap()
        );
        assert_eq!(rt.snapshot(), restored.snapshot());
    }

    #[test]
    fn timer_arm_record_precedes_start_and_recovers() {
        let store = Arc::new(MemStore::new());
        let snap_before;
        {
            let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn ctr_store::Store>);
            rt.deploy_source(TIMED).unwrap();
            let id = rt.start("timed").unwrap();
            rt.fire(id, "invoice").unwrap();
            snap_before = rt.snapshot();
        }
        // Arm-before-visible on the wire: TimerArm strictly before
        // Start for the same instance.
        let records = store.replay().unwrap().records;
        let arm = records
            .iter()
            .position(|r| matches!(r, Record::TimerArm { .. }))
            .expect("arm record present");
        let start = records
            .iter()
            .position(|r| matches!(r, Record::Start { .. }))
            .expect("start record present");
        assert!(arm < start, "arm-before-visible: {records:?}");
        let rt = Runtime::open(store).unwrap();
        assert_eq!(rt.snapshot(), snap_before);
        assert_eq!(
            rt.pending_timers(0).unwrap(),
            vec![("approve@after30000".to_owned(), 30_000)]
        );
        // The recovered wheel still expires.
        let fired = rt.advance(30_000).unwrap();
        assert_eq!(fired, vec![(0, "approve@after30000".to_owned())]);
    }

    #[test]
    fn timer_fire_records_replay_with_clock_watermark() {
        let store = Arc::new(MemStore::new());
        let snap_before;
        {
            let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn ctr_store::Store>);
            rt.deploy_source(GUARDED).unwrap();
            let id = rt.start("guarded").unwrap();
            rt.fire(id, "invoice").unwrap();
            let fired = rt.advance(3_700_000).unwrap();
            assert_eq!(fired.len(), 1);
            snap_before = rt.snapshot();
        }
        let rt = Runtime::open(store).unwrap();
        assert_eq!(rt.snapshot(), snap_before);
        assert_eq!(
            rt.clock_ms(),
            3_600_000,
            "clock restored to the durable expiry watermark"
        );
        assert_eq!(rt.pending_timer_count(), 0);
        assert_eq!(
            rt.journal(0).unwrap(),
            vec!["invoice", "approve@deadline3600000"]
        );
    }

    #[test]
    fn cancel_records_replay_and_checkpoint_keeps_timer_lines() {
        let store = Arc::new(MemStore::new());
        let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn ctr_store::Store>);
        rt.deploy_source(TIMED).unwrap();
        rt.deploy_source(GUARDED).unwrap();
        let t = rt.start("timed").unwrap();
        let g = rt.start("guarded").unwrap();
        rt.cancel_timer(t, "approve@after30000").unwrap();
        rt.checkpoint().unwrap();
        rt.fire(g, "invoice").unwrap();
        let snap = rt.snapshot();
        drop(rt);
        let replay = store.replay().unwrap();
        let baseline = replay.snapshot.expect("checkpoint installed");
        assert!(
            baseline.contains("timer 1 approve@deadline3600000 due 3600000"),
            "{baseline}"
        );
        // The goal text still names the tick event; only the armed-timer
        // line must be gone.
        assert!(!baseline.contains("timer 0 "), "cancelled timer gone");
        let rt = Runtime::open(store).unwrap();
        assert_eq!(rt.snapshot(), snap);
        assert!(rt.pending_timers(t).unwrap().is_empty());
        let fired = rt.advance(3_600_000).unwrap();
        assert_eq!(fired, vec![(g, "approve@deadline3600000".to_owned())]);
    }

    #[test]
    fn every_timers_stagger_and_fire_in_order() {
        let rt = Runtime::new();
        rt.deploy_source(
            "workflow poller { graph connect * repeat(poll, 1, 2) * done; every(poll, 5s); }",
        )
        .unwrap();
        let id = rt.start("poller").unwrap();
        let pending = rt.pending_timers(id).unwrap();
        assert_eq!(
            pending,
            vec![
                ("poll@1@after5000".to_owned(), 5_000),
                ("poll@2@after10000".to_owned(), 10_000)
            ]
        );
        rt.fire(id, "connect").unwrap();
        let fired = rt.advance(20_000).unwrap();
        assert_eq!(
            fired,
            vec![
                (id, "poll@1@after5000".to_owned()),
                (id, "poll@2@after10000".to_owned())
            ],
            "both gates open in period order"
        );
        rt.fire(id, "poll@1").unwrap();
        rt.fire(id, "poll@2").unwrap();
        rt.fire(id, "done").unwrap();
        assert!(rt.is_complete(id).unwrap());
    }

    #[test]
    fn runtime_enact_runs_a_deployment_and_reports() {
        let rt = runtime_with_pay();
        let order = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut enactor = Enactor::new();
        for e in ["invoice", "approve", "reject", "file"] {
            let log = std::sync::Arc::clone(&order);
            enactor.register(
                e,
                Box::new(move |atom| {
                    log.lock().unwrap().push(atom.to_string());
                    Ok(())
                }),
            );
        }
        let report = rt.enact("pay", &enactor).unwrap();
        assert!(report.is_success());
        assert_eq!(report.completed.len(), 3, "invoice, one branch, file");
        let completed: Vec<String> = report.completed.iter().map(|s| s.to_string()).collect();
        assert_eq!(*order.lock().unwrap(), completed);
        assert!(matches!(
            rt.enact("ghost", &enactor).unwrap_err(),
            RuntimeError::UnknownWorkflow(name) if name == "ghost"
        ));
    }
}
