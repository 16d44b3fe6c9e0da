//! The workflow runtime: deployed definitions plus running instances,
//! sharded so that many clients can report events concurrently.
//!
//! [`Runtime`] is the crate's one runtime. A fleet of independent
//! workflow instances is exactly the workload the paper's compiled
//! scheduler makes cheap per instance, so the runtime must not
//! re-serialize it behind one lock. The state splits three ways:
//!
//! * a **read-mostly deployment registry** behind an [`RwLock`] — deploys
//!   are rare, `start`/`fire` are hot, and readers only clone an `Arc`;
//! * an **instance table striped across [`SHARD_COUNT`] shards** keyed by
//!   `InstanceId`, each shard a small map behind its own [`Mutex`];
//! * **per-instance state behind its own lock**, so two clients firing
//!   events on *different* instances never contend.
//!
//! Single-instance atomicity holds *per instance*: eligibility check
//! and journal append happen under that instance's lock, so of two
//! clients racing to fire mutually-exclusive branch events exactly one
//! wins and the loser gets [`RuntimeError::NotEligible`] with the
//! post-commit alternatives.
//!
//! Every fire entry point — [`Runtime::fire`], [`Runtime::fire_batch`],
//! [`Runtime::fire_many`] and [`Runtime::fire_runs`] — commits through
//! the one per-instance commit loop, `Instance::fire_runs`.
//!
//! ## Lock order
//!
//! `registry < shard[0] < … < shard[SHARD_COUNT−1] < instance locks <
//! timer state`. The timer wheel and logical clock live behind one
//! dedicated mutex at the *bottom* of the order: every fire path may
//! take it briefly while holding an instance lock (derived disarms),
//! while [`Runtime::advance`] pops the expired batch under the
//! timer lock **alone** and only then takes instance locks one at a
//! time — so expiry never holds the wheel against the fleet.
//! Operations on one instance take its shard lock only to resolve the id
//! (releasing it before the instance lock); [`Runtime::snapshot`]
//! takes *every* shard lock in ascending index order and then every
//! instance lock, freezing the fleet for a consistent point-in-time cut.
//! No path ever waits on the registry or a shard lock while holding an
//! instance lock, so the order is acyclic. (This matters for more than
//! tidiness: `RwLock` readers can queue behind a waiting writer, so a
//! registry read taken under an instance lock could deadlock against
//! `snapshot` + a pending deploy. `invalidate` therefore resolves the
//! deployment *between* instance-lock critical sections.)
//!
//! With a store attached, the store's own stripe locks sit strictly
//! *below* every runtime lock (they are only ever taken inside a
//! [`Store`] call, never around one), and each durable **control-record
//! append rides inside the lock that publishes its effect**: deploy
//! records under the registry write lock, start records under the
//! destination shard lock, event/complete records under the instance
//! lock. That discipline is what makes [`Runtime::checkpoint`]'s
//! freeze a true cut — holding the registry read lock, every shard
//! lock, and every instance lock excludes every in-flight control
//! append, so no record can take a sequence number below the checkpoint
//! cut while the state it describes is still invisible to the snapshot.
//! (Without it, a start could append its record, the checkpoint could
//! truncate that record behind a snapshot that misses the instance, and
//! recovery would fail on the instance's surviving event records.)
//!
//! ## Durability policy and blocking
//!
//! With a [`crate::WalStore`] attached, [`crate::Durability`] (set via
//! [`crate::WalOptions`]) decides how long those in-lock appends block:
//!
//! * `Strict` — every append blocks its instance lock for a full
//!   private fsync; appends on the same log stripe serialize.
//! * `Coalesced` — an append still blocks until its record is durable,
//!   but concurrent appends on a stripe share **one** fsync (the
//!   store's commit pipeline): the instance lock is held across the
//!   group wait, other instances proceed, and total fsync pressure
//!   drops with concurrency. This is the recommended policy for
//!   multi-client services.
//! * `Periodic` — appends return at staging time, so instance locks
//!   are barely held; a crash may lose up to one sync interval of
//!   *acknowledged* records (always a contiguous per-stripe suffix).
//!   Only for deployments that accept that loss window.
//!
//! The checkpoint cut is durability-safe in every mode: the store
//! quiesces its commit pipeline (flushing staged frames) before
//! choosing the cut, and the fleet freeze above excludes in-flight
//! appends, so acknowledged-but-unsynced records can never be
//! truncated behind a snapshot that misses them.
//!
//! ## Recovery
//!
//! [`Runtime::restore`] and [`Runtime::open`] rebuild a fleet on a
//! private, store-less runtime by replaying through the same public
//! fire path a live client uses, so every journaled event is
//! re-validated. The store is attached only once replay finishes, so
//! recovery never re-appends its own input.
//!
//! ## Poisoning
//!
//! All locks recover from poisoning (`PoisonError::into_inner`): a panic
//! mid-operation either completed its journal append or left it
//! untouched, so the inner state is always valid. The symbol interner
//! follows the same discipline (see `ctr::symbol`).

use crate::wheel::TimerWheel;
use crate::{render_snapshot, TimerFired, SNAPSHOT_HEADER};
use crate::{Deployment, FireOutcome, Instance, InstanceId, InstanceStatus, RuntimeError};
use ctr::goal::Goal;
use ctr::symbol::Symbol;
use ctr::timer::{parse_tick, TimerKind};
use ctr_store::{Record, Store, StoreStats};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// Number of stripes in the instance table. Ids are assigned round-robin
/// (`id % SHARD_COUNT`), so load spreads evenly; a power of two keeps the
/// modulo cheap. Contention on a shard lock is only the map *lookup* —
/// the per-event work happens under the instance's own lock.
pub const SHARD_COUNT: usize = 16;

/// Locks a mutex, recovering from poisoning (see module docs).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

type InstanceCell = Arc<Mutex<Instance>>;

/// The fleet's timer wheel and logical clock, one mutex at the bottom
/// of the lock order (see module docs). Entries key back to their
/// instances; each instance's `timers` list holds the mirror entry and
/// is the per-instance source of truth — a wheel pop whose instance
/// entry is already gone is a stale expiry and is skipped.
#[derive(Default)]
struct TimerState {
    wheel: TimerWheel<(InstanceId, Symbol)>,
    clock_ms: u64,
}

/// One stripe of the instance table.
#[derive(Default)]
struct Shard {
    instances: Mutex<BTreeMap<InstanceId, InstanceCell>>,
}

struct Inner {
    /// Read-mostly: `start` takes a read lock and clones an `Arc`;
    /// only deployment takes the write lock.
    registry: RwLock<BTreeMap<String, Arc<Deployment>>>,
    shards: [Shard; SHARD_COUNT],
    next_id: AtomicU64,
    /// Replay work counter, aggregated across instances (see
    /// [`Runtime::replayed_steps`]).
    replayed: AtomicU64,
    /// Durability backend shared by every shard; immutable for the life
    /// of the handle, so reads need no lock. The WAL backend stripes
    /// its segments by the same `id % SHARD_COUNT` rule as the instance
    /// table, so two instances on different shards never contend on a
    /// log stripe either.
    store: Option<Arc<dyn Store>>,
    /// Timer wheel + logical clock; strictly below every other lock.
    timers: Mutex<TimerState>,
}

/// The workflow runtime: deployed definitions plus running instances.
///
/// A cloneable, `Send + Sync` handle; clones share one fleet. Every
/// method is `&self`. See the module docs for the locking model.
#[derive(Clone, Default)]
pub struct Runtime {
    inner: Arc<Inner>,
}

/// Another name for [`Runtime`], kept for callers that use it.
pub type SharedRuntime = Runtime;

impl Default for Inner {
    fn default() -> Inner {
        Inner {
            registry: RwLock::new(BTreeMap::new()),
            shards: std::array::from_fn(|_| Shard::default()),
            next_id: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            store: None,
            timers: Mutex::new(TimerState::default()),
        }
    }
}

impl Inner {
    fn shard(&self, id: InstanceId) -> &Shard {
        &self.shards[(id % SHARD_COUNT as u64) as usize]
    }

    /// Resolves an id to its instance cell. Holds the shard lock only for
    /// the lookup: callers then lock the instance itself, so operations
    /// on different instances proceed in parallel.
    fn instance(&self, id: InstanceId) -> Result<InstanceCell, RuntimeError> {
        lock(&self.shard(id).instances)
            .get(&id)
            .cloned()
            .ok_or(RuntimeError::UnknownInstance(id))
    }

    fn deployment(&self, workflow: &str) -> Result<Arc<Deployment>, RuntimeError> {
        self.registry
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(workflow)
            .cloned()
            .ok_or_else(|| RuntimeError::UnknownWorkflow(workflow.to_owned()))
    }
}

impl Runtime {
    /// An empty runtime.
    pub fn new() -> Runtime {
        Runtime::default()
    }

    /// An empty runtime persisting through `store`. Anything the store
    /// already holds is ignored — use [`Runtime::open`] to recover.
    pub fn with_store(store: Arc<dyn Store>) -> Runtime {
        Runtime {
            inner: Arc::new(Inner {
                store: Some(store),
                ..Inner::default()
            }),
        }
    }

    /// Recovers a runtime from everything `store` retained — the latest
    /// checkpoint snapshot first, then every post-checkpoint record in
    /// append order, each re-validated exactly like a live call (replayed
    /// fires count toward [`Runtime::replayed_steps`]). The store is
    /// attached only after replay, so recovery never re-appends its own
    /// input. Fails with [`RuntimeError::Store`] if the store cannot be
    /// read, or a replay-level error if its contents do not re-validate.
    pub fn open(store: Arc<dyn Store>) -> Result<Runtime, RuntimeError> {
        let replay = store
            .replay()
            .map_err(|e| RuntimeError::Store(e.to_string()))?;
        let mut rt = match &replay.snapshot {
            Some(snapshot) => Runtime::restore(snapshot)?,
            None => Runtime::new(),
        };
        // Arm-before-visible buffering: a TimerArm only takes effect
        // when its Start follows. A crash between the two appends
        // leaves an orphan arm, which simply never leaves this map.
        let mut buffered_arms: BTreeMap<InstanceId, Vec<(String, u64)>> = BTreeMap::new();
        for record in replay.records {
            match record {
                Record::Deploy { name, goal } => {
                    let goal = ctr_parser::parse_goal(&goal).map_err(|e| {
                        RuntimeError::Journal(format!("deploy record for `{name}`: {e}"))
                    })?;
                    rt.deploy_compiled(&name, goal)?;
                }
                Record::TimerArm { instance, timers } => {
                    buffered_arms.insert(instance, timers);
                }
                Record::Start { instance, workflow } => {
                    let arms = buffered_arms.remove(&instance).unwrap_or_default();
                    rt.adopt_instance(instance, &workflow, &arms)?;
                }
                Record::Events { instance, events } => {
                    rt.replay_run(instance, &events).map_err(|(i, e)| {
                        RuntimeError::Journal(format!(
                            "instance {instance}: replaying event `{}`: {e}",
                            events[i]
                        ))
                    })?;
                }
                Record::TimerFire {
                    instance,
                    event,
                    at_ms,
                } => {
                    rt.replay_timer_fire(instance, &event, at_ms)?;
                    rt.inner.replayed.fetch_add(1, Ordering::Relaxed);
                }
                Record::TimerCancel { instance, event } => {
                    rt.replay_timer_cancel(instance, &event);
                }
                Record::Complete { instance } => {
                    rt.try_complete(instance)?;
                }
            }
        }
        Arc::get_mut(&mut rt.inner)
            .expect("recovery holds the only handle")
            .store = Some(store);
        Ok(rt)
    }

    /// Restores a runtime from a snapshot, re-validating every journal by
    /// replay.
    pub fn restore(snapshot: &str) -> Result<Runtime, RuntimeError> {
        let mut lines = snapshot.lines();
        if lines.next() != Some(SNAPSHOT_HEADER) {
            return Err(RuntimeError::Snapshot(
                "missing or unknown header".to_owned(),
            ));
        }
        let rt = Runtime::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("workflow ") {
                let (name, goal_text) = rest
                    .split_once(" := ")
                    .ok_or_else(|| RuntimeError::Snapshot(format!("bad workflow line: {line}")))?;
                let goal = ctr_parser::parse_goal(goal_text)
                    .map_err(|e| RuntimeError::Snapshot(e.to_string()))?;
                rt.deploy_compiled(name, goal)?;
            } else if let Some(rest) = line.strip_prefix("instance ") {
                let (head, journal_text) = rest
                    .split_once("]: ")
                    .or_else(|| rest.split_once("]:").map(|(h, _)| (h, "")))
                    .ok_or_else(|| RuntimeError::Snapshot(format!("bad instance line: {line}")))?;
                // head = "<id> of <workflow> [<status>"
                let mut parts = head.split_whitespace();
                let id: InstanceId = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| RuntimeError::Snapshot(format!("bad instance id: {line}")))?;
                let workflow = match (parts.next(), parts.next()) {
                    (Some("of"), Some(w)) => w.to_owned(),
                    _ => return Err(RuntimeError::Snapshot(format!("bad instance line: {line}"))),
                };
                let Ok(deployment) = rt.inner.deployment(&workflow) else {
                    return Err(RuntimeError::Snapshot(format!(
                        "instance {id} references unknown workflow `{workflow}`"
                    )));
                };
                rt.publish(id, Instance::new(workflow, Arc::clone(&deployment.program)));
                // Replay through the public fire path so every journaled
                // event is re-validated. This is the one place cursors
                // are materialized by replay rather than advanced in place.
                let events: Vec<&str> = journal_text.split_whitespace().collect();
                rt.replay_run(id, &events).map_err(|(_, e)| e)?;
                if head.ends_with("[completed") {
                    // Completion may have come from silent finishing.
                    rt.try_complete(id)?;
                }
            } else if let Some(rest) = line.strip_prefix("timer ") {
                // timer <instance> <tick> due <ms>
                let mut parts = rest.split_whitespace();
                let id: InstanceId = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| RuntimeError::Snapshot(format!("bad timer line: {line}")))?;
                let (name, due) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
                    (Some(name), Some("due"), Some(due), None) => (
                        name,
                        due.parse::<u64>().map_err(|_| {
                            RuntimeError::Snapshot(format!("bad timer due: {line}"))
                        })?,
                    ),
                    _ => return Err(RuntimeError::Snapshot(format!("bad timer line: {line}"))),
                };
                let Ok(cell) = rt.inner.instance(id) else {
                    return Err(RuntimeError::Snapshot(format!(
                        "timer line references unknown instance {id}"
                    )));
                };
                // The tick was interned when the workflow goal parsed.
                let tick = Symbol::try_get(name).ok_or_else(|| {
                    RuntimeError::Snapshot(format!("timer line references unknown event `{name}`"))
                })?;
                rt.arm_recovered(&mut lock(&cell), id, tick, due);
            } else {
                return Err(RuntimeError::Snapshot(format!("unrecognized line: {line}")));
            }
        }
        Ok(rt)
    }

    /// Adopts an instance under a caller-chosen id — the recovery path
    /// for durable [`Record::Start`] records, which must reproduce the
    /// exact ids clients were given before the crash. `arms` carries
    /// the instance's buffered [`Record::TimerArm`] dues (absolute ms),
    /// re-armed here exactly as the pre-crash start armed them.
    fn adopt_instance(
        &self,
        id: InstanceId,
        workflow: &str,
        arms: &[(String, u64)],
    ) -> Result<(), RuntimeError> {
        let deployment = self.inner.deployment(workflow)?;
        if self.inner.instance(id).is_ok() {
            return Err(RuntimeError::Journal(format!(
                "duplicate start record for instance {id}"
            )));
        }
        let mut instance = Instance::new(workflow.to_owned(), Arc::clone(&deployment.program));
        for (name, due) in arms {
            let tick = Symbol::try_get(name).ok_or_else(|| {
                RuntimeError::Journal(format!(
                    "arm record for instance {id} references unknown timer event `{name}`"
                ))
            })?;
            self.arm_recovered(&mut instance, id, tick, *due);
        }
        self.publish(id, instance);
        Ok(())
    }

    /// Inserts a recovered instance under its original id; fresh ids
    /// continue past it.
    fn publish(&self, id: InstanceId, instance: Instance) {
        lock(&self.inner.shard(id).instances).insert(id, Arc::new(Mutex::new(instance)));
        self.inner
            .next_id
            .fetch_max(id.saturating_add(1), Ordering::Relaxed);
    }

    /// Arms a recovered timer on the wheel and on its instance; a
    /// deadline tick is disarmed later by its base event.
    fn arm_recovered(&self, inst: &mut Instance, id: InstanceId, tick: Symbol, due: u64) {
        let base = parse_tick(tick.as_str()).and_then(|t| match t.kind {
            TimerKind::Deadline => Symbol::try_get(t.base),
            TimerKind::After => None,
        });
        let token = lock(&self.inner.timers).wheel.arm(due, (id, tick));
        inst.arm_timer(tick, due, base, token);
    }

    /// Re-fires a journaled run through [`Runtime::fire_batch`],
    /// counting each fire as replay work. On rejection, returns the
    /// position of the failing event and its error.
    fn replay_run<S: AsRef<str>>(
        &self,
        id: InstanceId,
        events: &[S],
    ) -> Result<(), (usize, RuntimeError)> {
        if events.is_empty() {
            return Ok(());
        }
        let outcomes = self.fire_batch(id, events).map_err(|e| (0, e))?;
        for (i, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                FireOutcome::Fired(_) => {
                    self.inner.replayed.fetch_add(1, Ordering::Relaxed);
                }
                FireOutcome::Rejected(e) => return Err((i, e)),
                FireOutcome::Skipped => unreachable!("a run skips only after a rejection"),
            }
        }
        Ok(())
    }

    /// Replays a durable [`Record::TimerFire`]: restores the clock
    /// watermark and fires the tick exactly as the pre-crash advance
    /// did.
    fn replay_timer_fire(
        &self,
        id: InstanceId,
        event: &str,
        at_ms: u64,
    ) -> Result<(), RuntimeError> {
        {
            let mut ts = lock(&self.inner.timers);
            ts.clock_ms = ts.clock_ms.max(at_ms);
        }
        let tick = Symbol::try_get(event).ok_or_else(|| {
            RuntimeError::Journal(format!(
                "timer fire for instance {id} references unknown event `{event}`"
            ))
        })?;
        let cell = self
            .inner
            .instance(id)
            .map_err(|_| RuntimeError::Journal(format!("timer fire for unknown instance {id}")))?;
        let mut inst = lock(&cell);
        if let Some(armed) = inst.take_timer(tick) {
            lock(&self.inner.timers).wheel.cancel(armed.token);
        }
        let before = inst.journal.len();
        match inst.fire_timer(id, tick, at_ms, None)? {
            TimerFired::Fired => {
                self.settle(&mut inst, before);
                Ok(())
            }
            TimerFired::Vacuous => Err(RuntimeError::Journal(format!(
                "instance {id}: replaying timer fire `{event}`: not eligible"
            ))),
        }
    }

    /// Replays a durable [`Record::TimerCancel`]. Lenient about an
    /// already-absent timer: the record may follow a derived disarm the
    /// event replay has reproduced on its own.
    fn replay_timer_cancel(&self, id: InstanceId, event: &str) {
        let (Some(tick), Ok(cell)) = (Symbol::try_get(event), self.inner.instance(id)) else {
            return;
        };
        let armed = lock(&cell).take_timer(tick);
        if let Some(armed) = armed {
            lock(&self.inner.timers).wheel.cancel(armed.token);
        }
    }

    /// Deploys a specification from its textual source. Compiles the
    /// graph, triggers, sub-workflows, and constraints once, outside any
    /// lock; inconsistent specifications are rejected outright (there
    /// would be nothing to schedule).
    pub fn deploy_source(&self, source: &str) -> Result<String, RuntimeError> {
        let spec =
            ctr_parser::parse_spec(source).map_err(|e| RuntimeError::Parse(e.to_string()))?;
        let name = spec.name.clone();
        let compiled = spec
            .compile()
            .map_err(|e| RuntimeError::Compile(e.to_string()))?;
        if !compiled.is_consistent() {
            return Err(RuntimeError::Inconsistent(name));
        }
        self.deploy_compiled(&name, compiled.goal)?;
        Ok(name)
    }

    /// Deploys an already-compiled goal under a name.
    ///
    /// Compilation runs outside any lock; the registry write lock
    /// covers the durable deploy append *and* the insert, so the record
    /// is durable before the registry exposes the deployment — and a
    /// fleet frozen under the registry read lock
    /// ([`Runtime::checkpoint`]) has no in-flight deploy whose record
    /// could predate the checkpoint cut yet miss its snapshot.
    /// Re-deploying a name only affects instances started afterwards:
    /// running instances keep (and share, via `Arc`) the program they
    /// were started with.
    pub fn deploy_compiled(&self, name: &str, compiled: Goal) -> Result<(), RuntimeError> {
        let deployment = Deployment::new(compiled)?;
        let mut registry = self
            .inner
            .registry
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(store) = &self.inner.store {
            store
                .append(&Record::Deploy {
                    name: name.to_owned(),
                    goal: deployment.rendered.clone(),
                })
                .map_err(|e| RuntimeError::Store(e.to_string()))?;
        }
        registry.insert(name.to_owned(), Arc::new(deployment));
        Ok(())
    }

    /// Deployed workflow names.
    pub fn workflows(&self) -> Vec<String> {
        self.inner
            .registry
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect()
    }

    /// Starts a new instance of a deployed workflow, materializing its
    /// cursor once (it shares the deployment's compiled program) and
    /// arming its timers at `clock + delay`. Takes the registry read
    /// lock (shared with other starters) and one shard lock covering the durable start
    /// append *and* the insert. With a store attached the start record
    /// is durable before the instance becomes visible — so any event
    /// subsequently fired on it lands in the log strictly after its
    /// start (same stripe, later sequence number) — and, because the
    /// append happens *under the destination shard's lock*, a fleet
    /// frozen by [`Runtime::checkpoint`] (which holds every shard
    /// lock) has no in-flight start whose record could predate the
    /// checkpoint cut yet miss its snapshot. A failed persist burns the
    /// allocated id, which is harmless: ids only ever need to be unique
    /// and monotonic.
    /// Timers declared by the deployment are armed with arm-before-
    /// visible discipline: the [`ctr_store::Record::TimerArm`] record
    /// (absolute dues off one clock read) precedes the start record,
    /// and the instance cell is **locked before it is published** — no
    /// client, and no concurrent [`Runtime::advance`], can
    /// observe the instance until its wheel entries and its own timer
    /// list agree.
    pub fn start(&self, workflow: &str) -> Result<InstanceId, RuntimeError> {
        let deployment = self.inner.deployment(workflow)?;
        let instance = Instance::new(workflow.to_owned(), Arc::clone(&deployment.program));
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let cell = Arc::new(Mutex::new(instance));
        let mut inst = lock(&cell);
        // One clock read fixes the absolute dues: the durable record
        // and the in-memory arms below must agree byte for byte even if
        // an advance moves the clock in between.
        let dues: Vec<u64> = if deployment.timers.is_empty() {
            Vec::new()
        } else {
            let clock = lock(&self.inner.timers).clock_ms;
            deployment
                .timers
                .iter()
                .map(|t| clock.saturating_add(t.delay_ms))
                .collect()
        };
        let mut shard = lock(&self.inner.shard(id).instances);
        if let Some(store) = &self.inner.store {
            if !deployment.timers.is_empty() {
                store
                    .append(&ctr_store::Record::TimerArm {
                        instance: id,
                        timers: deployment
                            .timers
                            .iter()
                            .zip(&dues)
                            .map(|(t, &due)| (t.tick.as_str().to_owned(), due))
                            .collect(),
                    })
                    .map_err(|e| RuntimeError::Store(e.to_string()))?;
            }
            store
                .append(&ctr_store::Record::Start {
                    instance: id,
                    workflow: workflow.to_owned(),
                })
                .map_err(|e| RuntimeError::Store(e.to_string()))?;
        }
        shard.insert(id, Arc::clone(&cell));
        drop(shard);
        if !deployment.timers.is_empty() {
            let mut ts = lock(&self.inner.timers);
            for (t, &due) in deployment.timers.iter().zip(&dues) {
                let token = ts.wheel.arm(due, (id, t.tick));
                inst.arm_timer(t.tick, due, t.base, token);
            }
        }
        Ok(id)
    }

    /// Running and completed instance ids, ascending.
    pub fn instances(&self) -> Vec<InstanceId> {
        let mut ids: Vec<InstanceId> = Vec::new();
        for shard in &self.inner.shards {
            ids.extend(lock(&shard.instances).keys().copied());
        }
        ids.sort_unstable();
        ids
    }

    /// Cancels the wheel entries of timers settled by the journal
    /// suffix `committed_from..` (or by completion). Called with the
    /// instance lock held — the timer lock sits below it in the order.
    fn settle(&self, inst: &mut Instance, committed_from: usize) {
        let dead = inst.settled_tokens(committed_from);
        if dead.is_empty() {
            return;
        }
        let mut ts = lock(&self.inner.timers);
        for token in dead {
            ts.wheel.cancel(token);
        }
    }

    /// Fires an external event against an instance. Rejects events the
    /// compiled schedule does not allow at this stage — no run-time
    /// constraint checking, just structural eligibility. Atomic with
    /// respect to other clients *of this instance*; clients of other
    /// instances proceed concurrently. A one-event
    /// [`Runtime::fire_batch`].
    pub fn fire(&self, id: InstanceId, event: &str) -> Result<InstanceStatus, RuntimeError> {
        match self.fire_batch(id, &[event])?.pop() {
            Some(FireOutcome::Fired(status)) => Ok(status),
            Some(FireOutcome::Rejected(e)) => Err(e),
            _ => unreachable!("a one-event run reports its one event"),
        }
    }

    /// Fires a batch of events against one instance in order, under a
    /// single shard-lock resolution and a single instance-lock
    /// acquisition — the whole batch is one atomic section with respect
    /// to other clients of this instance, and one store append.
    ///
    /// Partial-failure semantics: the batch stops at the first event that
    /// cannot fire — the committed prefix stays journaled (exactly the
    /// journal a sequence of individual [`Runtime::fire`] calls would
    /// have produced), the failing event reports
    /// [`FireOutcome::Rejected`], and the remaining events report
    /// [`FireOutcome::Skipped`] untried. If the store append fails,
    /// nothing commits: the first event reports [`RuntimeError::Store`]
    /// and the rest are skipped. Returns one [`FireOutcome`] per input
    /// event; `Err` when the instance id is unknown, or when rolling back
    /// a failed append finds the journal unreplayable.
    pub fn fire_batch<S: AsRef<str>>(
        &self,
        id: InstanceId,
        events: &[S],
    ) -> Result<Vec<FireOutcome>, RuntimeError> {
        let cell = self.inner.instance(id)?;
        let mut inst = lock(&cell);
        let before = inst.journal.len();
        let mut runs = inst.fire_runs(id, &[events], self.inner.store.as_deref())?;
        self.settle(&mut inst, before);
        Ok(runs.pop().expect("one outcome vector per run"))
    }

    /// Fires a mixed batch of `(instance, event)` pairs as one
    /// [`Runtime::fire_runs`] burst: the pairs are grouped into one run
    /// per instance (keeping their input order), and the outcomes are
    /// spliced back into input positions.
    ///
    /// Each instance's events therefore fire with
    /// [`Runtime::fire_batch`] semantics — the first failure stops *that
    /// instance's* events (committed prefix journaled, rest
    /// [`FireOutcome::Skipped`]) while other instances proceed — under
    /// one instance-lock acquisition and one store append per instance.
    /// An unknown instance id rejects its first event with
    /// [`RuntimeError::UnknownInstance`] and skips the rest. Returns one
    /// [`FireOutcome`] per input pair.
    pub fn fire_many<S: AsRef<str>>(&self, batch: &[(InstanceId, S)]) -> Vec<FireOutcome> {
        // A stable sort keeps each instance's events in input order.
        let mut positions: Vec<usize> = (0..batch.len()).collect();
        positions.sort_by_key(|&i| batch[i].0);
        let events: Vec<&str> = positions.iter().map(|&i| batch[i].1.as_ref()).collect();
        let mut runs: Vec<(InstanceId, &[&str])> = Vec::new();
        let mut start = 0;
        for group in positions.chunk_by(|&a, &b| batch[a].0 == batch[b].0) {
            runs.push((batch[group[0]].0, &events[start..start + group.len()]));
            start += group.len();
        }
        let mut outcomes = vec![FireOutcome::Skipped; batch.len()];
        for (&i, outcome) in positions
            .iter()
            .zip(self.fire_runs(&runs).into_iter().flatten())
        {
            outcomes[i] = outcome;
        }
        outcomes
    }

    /// Fires a burst of independent *runs* — `(instance, events)`
    /// sub-batches — amortizing lock and durability traffic while
    /// preserving each run's identity: runs against the same instance
    /// execute in input order under **one** instance-lock acquisition,
    /// each with [`Runtime::fire_batch`] semantics (its failure stops
    /// that run only, never a later run), and all of an instance's
    /// committed events from the burst reach the store through **one**
    /// append — one WAL group commit per instance per burst.
    ///
    /// This is the service batching primitive: a connection that reads
    /// several pipelined `fire`/`fire_batch` requests submits them as
    /// one burst and gets per-request outcomes identical to submitting
    /// them one by one — batching amortizes, it never merges requests
    /// into a wider failure domain (except store-append failure, where
    /// the burst is one commit unit and nothing is acknowledged).
    ///
    /// Returns one outcome vector per input run, in input positions.
    /// Every run against an unknown instance rejects its first event and
    /// skips the rest. Locks follow the module's lock order: shard locks
    /// one at a time ascending, then instance locks one at a time.
    pub fn fire_runs<S: AsRef<str>>(&self, runs: &[(InstanceId, &[S])]) -> Vec<Vec<FireOutcome>> {
        // Group run positions per instance, first-appearance order.
        let mut order: Vec<InstanceId> = Vec::new();
        let mut groups: BTreeMap<InstanceId, Vec<usize>> = BTreeMap::new();
        for (i, (id, _)) in runs.iter().enumerate() {
            groups
                .entry(*id)
                .or_insert_with(|| {
                    order.push(*id);
                    Vec::new()
                })
                .push(i);
        }
        // Resolve cells shard by shard, ascending.
        let mut by_shard: [Vec<InstanceId>; SHARD_COUNT] = std::array::from_fn(|_| Vec::new());
        for &id in groups.keys() {
            by_shard[(id % SHARD_COUNT as u64) as usize].push(id);
        }
        let mut cells: BTreeMap<InstanceId, Option<InstanceCell>> = BTreeMap::new();
        for (s, ids) in by_shard.iter().enumerate() {
            if ids.is_empty() {
                continue;
            }
            let shard = lock(&self.inner.shards[s].instances);
            for &id in ids {
                cells.insert(id, shard.get(&id).cloned());
            }
        }
        let mut outcomes: Vec<Option<Vec<FireOutcome>>> = Vec::new();
        outcomes.resize_with(runs.len(), || None);
        for id in order {
            let positions = &groups[&id];
            match &cells[&id] {
                None => {
                    // Each run is a separate logical request: every one
                    // rejects its first event, exactly as back-to-back
                    // submissions against the unknown id would.
                    for &i in positions {
                        let events = runs[i].1;
                        let mut run = Vec::with_capacity(events.len());
                        if !events.is_empty() {
                            run.push(FireOutcome::Rejected(RuntimeError::UnknownInstance(id)));
                        }
                        run.resize(events.len(), FireOutcome::Skipped);
                        outcomes[i] = Some(run);
                    }
                }
                Some(cell) => {
                    let instance_runs: Vec<&[S]> = positions.iter().map(|&i| runs[i].1).collect();
                    let mut inst = lock(cell);
                    let before = inst.journal.len();
                    let result = inst.fire_runs(id, &instance_runs, self.inner.store.as_deref());
                    if result.is_ok() {
                        self.settle(&mut inst, before);
                    }
                    drop(inst);
                    match result {
                        Ok(per_run) => {
                            for (&i, run) in positions.iter().zip(per_run) {
                                outcomes[i] = Some(run);
                            }
                        }
                        // Rollback itself failed (unreplayable journal):
                        // surface it on the first event of the first
                        // run, skip everything else for this instance.
                        Err(e) => {
                            let mut first = Some(e);
                            for &i in positions {
                                let events = runs[i].1;
                                let mut run = Vec::with_capacity(events.len());
                                if !events.is_empty() {
                                    if let Some(e) = first.take() {
                                        run.push(FireOutcome::Rejected(e));
                                    }
                                }
                                run.resize(events.len(), FireOutcome::Skipped);
                                outcomes[i] = Some(run);
                            }
                        }
                    }
                }
            }
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every run resolved"))
            .collect()
    }

    // --- Timers -------------------------------------------------------------

    /// The runtime's logical clock, in ms. Starts at zero and moves
    /// only through [`Runtime::advance`] — the runtime has no wall
    /// clock of its own, which keeps expiry deterministic under test.
    pub fn clock_ms(&self) -> u64 {
        lock(&self.inner.timers).clock_ms
    }

    /// Pending timers of an instance as `(tick event, absolute due ms)`
    /// pairs, sorted by tick name — read from the instance's own timer
    /// list, under its lock.
    pub fn pending_timers(&self, id: InstanceId) -> Result<Vec<(String, u64)>, RuntimeError> {
        let cell = self.inner.instance(id)?;
        let inst = lock(&cell);
        let mut out: Vec<(String, u64)> = inst
            .timers
            .iter()
            .map(|t| (t.tick.as_str().to_owned(), t.due))
            .collect();
        out.sort();
        Ok(out)
    }

    /// Total pending timers across the fleet — O(1) from the wheel.
    pub fn pending_timer_count(&self) -> usize {
        lock(&self.inner.timers).wheel.len()
    }

    /// The earliest pending due across all instances, as a lower bound
    /// usable for sleeping; `None` when nothing is armed.
    pub fn next_timer_due(&self) -> Option<u64> {
        lock(&self.inner.timers).wheel.next_due()
    }

    /// Advances the logical clock to `to_ms`, expiring every timer due
    /// by then in deterministic `(due, instance, tick)` order. Each
    /// expired tick fires as an ordinary journal event, write-ahead as
    /// [`Record::TimerFire`]; a tick whose deadline was structurally
    /// satisfied without the derived disarm catching it resolves
    /// vacuously (journaled [`Record::TimerCancel`]). Returns the
    /// `(instance, tick)` pairs that fired.
    ///
    /// The expired batch is popped (and the clock moved) under the timer
    /// lock alone; each expiry then fires under its own instance lock,
    /// so a fleet-wide advance never serializes unrelated client fires.
    /// A timer a client disarmed between pop and fire is skipped — the
    /// instance's own list is the source of truth, and `take_timer`
    /// under the instance lock makes each expiry exactly-once.
    ///
    /// On a store error the failed expiry and the rest of the popped
    /// batch are re-armed untouched, so a retry with the same `to_ms`
    /// fires exactly that unfired tail. Once an advance returns `Ok`, no
    /// pending timer is due at or before `to_ms`.
    pub fn advance(&self, to_ms: u64) -> Result<Vec<(InstanceId, String)>, RuntimeError> {
        let mut due_now = {
            let mut ts = lock(&self.inner.timers);
            let batch = ts.wheel.advance_to(to_ms);
            ts.clock_ms = ts.clock_ms.max(to_ms);
            batch
        };
        due_now.sort_by(|a, b| (a.0, a.1 .0, a.1 .1.as_str()).cmp(&(b.0, b.1 .0, b.1 .1.as_str())));
        let mut out = Vec::new();
        for i in 0..due_now.len() {
            let (due, (id, tick)) = due_now[i];
            let Ok(cell) = self.inner.instance(id) else {
                continue;
            };
            let mut inst = lock(&cell);
            let Some(armed) = inst.take_timer(tick) else {
                continue; // disarmed concurrently, or earlier in this batch
            };
            let before = inst.journal.len();
            match inst.fire_timer(id, tick, due, self.inner.store.as_deref()) {
                Ok(TimerFired::Fired) => {
                    out.push((id, tick.as_str().to_owned()));
                    self.settle(&mut inst, before);
                }
                Ok(TimerFired::Vacuous) => {}
                Err(e) => {
                    // Re-arm the failed expiry and the rest of the
                    // popped batch (their wheel entries are gone and
                    // their instance tokens dead); a later advance
                    // retries exactly the unfired tail.
                    {
                        let mut ts = lock(&self.inner.timers);
                        let token = ts.wheel.arm(armed.due, (id, tick));
                        inst.arm_timer(tick, armed.due, armed.base, token);
                    }
                    drop(inst);
                    for &(_, (id2, tick2)) in &due_now[i + 1..] {
                        let Ok(cell2) = self.inner.instance(id2) else {
                            continue;
                        };
                        let mut inst2 = lock(&cell2);
                        if let Some(armed2) = inst2.take_timer(tick2) {
                            let mut ts = lock(&self.inner.timers);
                            let token = ts.wheel.arm(armed2.due, (id2, tick2));
                            inst2.arm_timer(tick2, armed2.due, armed2.base, token);
                        }
                    }
                    return Err(e);
                }
            }
        }
        Ok(out)
    }

    /// Explicitly disarms a pending timer by its tick event name,
    /// journaling [`Record::TimerCancel`] write-ahead. Unlike the
    /// derived disarms (deadline satisfied, instance completed), an API
    /// cancel is not reproducible from the event journal, so it must be
    /// its own record. The append rides under the instance lock, so a
    /// checkpoint freeze excludes it like any other control record.
    pub fn cancel_timer(&self, id: InstanceId, event: &str) -> Result<(), RuntimeError> {
        let cell = self.inner.instance(id)?;
        let mut inst = lock(&cell);
        let Some(tick) =
            Symbol::try_get(event).filter(|s| inst.timers.iter().any(|t| t.tick == *s))
        else {
            return Err(RuntimeError::UnknownTimer {
                instance: id,
                event: event.to_owned(),
            });
        };
        if let Some(store) = &self.inner.store {
            store
                .append(&ctr_store::Record::TimerCancel {
                    instance: id,
                    event: event.to_owned(),
                })
                .map_err(|e| RuntimeError::Store(e.to_string()))?;
        }
        let armed = inst.take_timer(tick).expect("checked pending above");
        lock(&self.inner.timers).wheel.cancel(armed.token);
        Ok(())
    }

    /// The observable events eligible to fire now, deduplicated and
    /// sorted — the pro-active scheduler's answer to "what can happen
    /// next?" (§4). Reads the cached cursor: O(eligible), not O(journal).
    /// The answer is a snapshot: another client may commit a branch
    /// before you act on it — `fire` remains the arbiter.
    pub fn eligible(&self, id: InstanceId) -> Result<Vec<String>, RuntimeError> {
        let cell = self.inner.instance(id)?;
        let names = lock(&cell).eligible_names();
        Ok(names)
    }

    /// [`Runtime::eligible`] without the per-name allocations: interned
    /// [`Symbol`]s in the same order — the probe for hot polling loops.
    pub fn eligible_symbols(&self, id: InstanceId) -> Result<Vec<Symbol>, RuntimeError> {
        let cell = self.inner.instance(id)?;
        let events = lock(&cell).eligible_symbols();
        Ok(events)
    }

    /// The journal of fired events.
    pub fn journal(&self, id: InstanceId) -> Result<Vec<String>, RuntimeError> {
        let cell = self.inner.instance(id)?;
        let journal = lock(&cell).journal_names();
        Ok(journal)
    }

    /// Instance status.
    pub fn status(&self, id: InstanceId) -> Result<InstanceStatus, RuntimeError> {
        let cell = self.inner.instance(id)?;
        let status = lock(&cell).status;
        Ok(status)
    }

    /// Completion check.
    pub fn is_complete(&self, id: InstanceId) -> Result<bool, RuntimeError> {
        Ok(self.status(id)? == InstanceStatus::Completed)
    }

    /// Tries to finish an instance through silent steps only (committing
    /// `∨`-branches made of bookkeeping, e.g. an optional tail that was
    /// compiled away). Returns the resulting status.
    pub fn try_complete(&self, id: InstanceId) -> Result<InstanceStatus, RuntimeError> {
        let cell = self.inner.instance(id)?;
        let mut inst = lock(&cell);
        let status = inst.try_complete(id, self.inner.store.as_deref());
        if matches!(status, Ok(InstanceStatus::Completed)) {
            let len = inst.journal.len();
            self.settle(&mut inst, len);
        }
        status
    }

    /// Enacts a deployed workflow with the given [`crate::Enactor`]:
    /// dispatches activity handlers under the compiled schedule and
    /// returns the full [`crate::EnactReport`] — committed trace,
    /// per-attempt outcomes and latencies, and (on abort) the typed error
    /// plus compensation plan.
    ///
    /// Enactment is **deployment-level**: it runs against the
    /// deployment's compiled program and does *not* create a journaled
    /// instance. An enactor may legitimately commit *silent* `∨`-branches
    /// (policy picks), and a silent commit is not an event — replaying
    /// the observable trace through `fire_event` on a fresh cursor could
    /// not reproduce it, which would break the journal-replay invariant
    /// every instance relies on. Callers that want a journaled record can
    /// [`Runtime::start`] an instance and [`Runtime::fire_batch`] the
    /// report's `completed` events, which the runtime then re-validates.
    ///
    /// The deployment `Arc` is resolved under a brief registry read
    /// lock; the enactment itself — which may run for as long as the
    /// slowest handler chain — holds **no** runtime locks, so concurrent
    /// deploys, fires, and snapshots proceed untouched.
    pub fn enact(
        &self,
        workflow: &str,
        enactor: &crate::Enactor,
    ) -> Result<crate::EnactReport, RuntimeError> {
        let deployment = self.inner.deployment(workflow)?;
        Ok(enactor.run_report(&deployment.program))
    }

    /// Discards the cached cursor of `id` and rebuilds it by replaying
    /// the journal from scratch, under that instance's lock — the
    /// crash-recovery code path, exposed so it can be exercised (and its
    /// equivalence with the incremental cursor asserted) directly. A
    /// journal the *current* deployment cannot replay (e.g. the name was
    /// re-deployed with an incompatible body) is a typed
    /// [`RuntimeError::Journal`] error and leaves the instance's cursor
    /// untouched.
    ///
    /// The registry lookup happens *between* two instance-lock critical
    /// sections, never while the instance lock is held — taking the
    /// registry lock inside an instance lock would invert the documented
    /// lock order and deadlock against `snapshot` + a queued deploy (a
    /// waiting writer can block new readers). The workflow name is
    /// immutable for the life of an instance, so the two-step read is not
    /// a TOCTOU; events fired by other clients in the gap are simply part
    /// of the journal the rebuild replays.
    pub fn invalidate(&self, id: InstanceId) -> Result<(), RuntimeError> {
        let cell = self.inner.instance(id)?;
        let workflow = lock(&cell).workflow.clone();
        let deployment = self.inner.deployment(&workflow)?;
        let replayed = lock(&cell).rebuild_cursor(Arc::clone(&deployment.program))?;
        self.inner.replayed.fetch_add(replayed, Ordering::Relaxed);
        Ok(())
    }

    /// Total journal events re-fired to (re)materialize cursors. Zero in
    /// steady state — `eligible`/`fire`/`try_complete` use the cached
    /// incremental cursor; only recovery ([`Runtime::restore`],
    /// [`Runtime::open`]) and [`Runtime::invalidate`] replay.
    pub fn replayed_steps(&self) -> u64 {
        self.inner.replayed.load(Ordering::Relaxed)
    }

    /// Serializes the whole runtime — deployments as compiled goals in
    /// the concrete syntax, instances as journals plus pending timers —
    /// into a line-based textual snapshot.
    ///
    /// Takes the registry read lock, then every shard lock in ascending
    /// index order, then every instance lock — the fleet is frozen while
    /// the text is built, so the snapshot is an atomic cut: it contains
    /// exactly the fires that committed before the cut, instance by
    /// instance, and always restores.
    pub fn snapshot(&self) -> String {
        self.frozen_snapshot(|snapshot| snapshot)
    }

    /// Compacts the attached store behind a consistent cut: freezes the
    /// fleet exactly like [`Runtime::snapshot`], and hands the
    /// snapshot to [`ctr_store::Store::checkpoint`] **while the freeze
    /// is still held** — so no fire can slip between the snapshot and
    /// the log truncation and be lost to both. Errors if no store is
    /// attached.
    pub fn checkpoint(&self) -> Result<(), RuntimeError> {
        let store = self.inner.store.clone().ok_or_else(|| {
            RuntimeError::Store("no store attached to checkpoint into".to_owned())
        })?;
        self.frozen_snapshot(|snapshot| {
            store
                .checkpoint(&snapshot)
                .map_err(|e| RuntimeError::Store(e.to_string()))
        })
    }

    /// Traffic counters of the attached store ([`StoreStats`]) —
    /// appends, journal events per append, commit fsyncs, group-size and
    /// fsync-latency histograms, compactions, and recovered/torn byte
    /// counts — or `None` when the runtime is purely in-memory.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.inner.store.as_ref().map(|s| s.stats())
    }

    /// Freezes the fleet (registry read lock, every shard lock in
    /// ascending index order, then every instance lock), renders the
    /// snapshot text, and runs `consume` on it *before* releasing
    /// anything — the shared underpinning of [`Runtime::snapshot`]
    /// and [`Runtime::checkpoint`].
    fn frozen_snapshot<R>(&self, consume: impl FnOnce(String) -> R) -> R {
        let registry = self
            .inner
            .registry
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let shard_guards: Vec<MutexGuard<'_, BTreeMap<InstanceId, InstanceCell>>> = self
            .inner
            .shards
            .iter()
            .map(|s| lock(&s.instances))
            .collect();
        let mut instance_guards: Vec<(InstanceId, MutexGuard<'_, Instance>)> = Vec::new();
        for shard in &shard_guards {
            for (&id, cell) in shard.iter() {
                instance_guards.push((id, lock(cell)));
            }
        }
        // Ids interleave across shards (round-robin); the output orders
        // them globally.
        instance_guards.sort_unstable_by_key(|(id, _)| *id);

        consume(render_snapshot(
            registry.iter().map(|(n, d)| (n, &**d)),
            instance_guards.iter().map(|(id, guard)| (*id, &**guard)),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAY: &str = "workflow pay { graph invoice * (approve + reject) * file; }";

    fn shared_pay() -> Runtime {
        let rt = Runtime::new();
        rt.deploy_source(PAY).unwrap();
        rt
    }

    #[test]
    fn handles_are_send_sync_and_cloneable() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<Runtime>();
    }

    #[test]
    fn racing_exclusive_branches_serialize_per_instance() {
        // Two threads race to decide the same instance; exactly one of
        // approve/reject lands, every time — the per-instance lock is
        // the arbiter now, not a global one.
        for round in 0..20 {
            let rt = shared_pay();
            let id = rt.start("pay").unwrap();
            rt.fire(id, "invoice").unwrap();

            let (a, b) = (rt.clone(), rt.clone());
            let ta = std::thread::spawn(move || a.fire(id, "approve").is_ok());
            let tb = std::thread::spawn(move || b.fire(id, "reject").is_ok());
            let (ra, rb) = (ta.join().unwrap(), tb.join().unwrap());
            assert!(
                ra ^ rb,
                "round {round}: exactly one decision wins (a={ra}, b={rb})"
            );

            let journal = rt.journal(id).unwrap();
            assert_eq!(journal.len(), 2);
            assert!(journal[1] == "approve" || journal[1] == "reject");
        }
    }

    #[test]
    fn loser_gets_post_commit_alternatives() {
        let rt = shared_pay();
        let id = rt.start("pay").unwrap();
        rt.fire(id, "invoice").unwrap();
        rt.fire(id, "approve").unwrap();
        let err = rt.fire(id, "reject").unwrap_err();
        let RuntimeError::NotEligible { event, eligible } = err else {
            panic!("expected NotEligible");
        };
        assert_eq!(event, "reject");
        assert_eq!(eligible, vec!["file".to_owned()], "post-commit view");
    }

    #[test]
    fn concurrent_instances_do_not_interfere() {
        let rt = shared_pay();
        let ids: Vec<_> = (0..32).map(|_| rt.start("pay").unwrap()).collect();
        let handles: Vec<_> = ids
            .iter()
            .map(|&id| {
                let rt = rt.clone();
                std::thread::spawn(move || {
                    rt.fire(id, "invoice").unwrap();
                    rt.fire(id, "approve").unwrap();
                    rt.fire(id, "file").unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for id in ids {
            assert_eq!(rt.status(id).unwrap(), InstanceStatus::Completed);
        }
    }

    #[test]
    fn instances_stripe_across_shards() {
        let rt = shared_pay();
        let ids: Vec<_> = (0..SHARD_COUNT as u64 * 2)
            .map(|_| rt.start("pay").unwrap())
            .collect();
        // Sequential ids land round-robin: every shard holds exactly two.
        for shard in &rt.inner.shards {
            assert_eq!(lock(&shard.instances).len(), 2);
        }
        assert_eq!(rt.instances(), ids);
        // The snapshot orders instances by id across the shards.
        let snapshot = rt.snapshot();
        let listed: Vec<InstanceId> = snapshot
            .lines()
            .filter_map(|line| line.strip_prefix("instance "))
            .map(|rest| rest.split(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(listed, ids);
    }

    #[test]
    fn deploy_while_firing_does_not_disturb_running_instances() {
        let rt = shared_pay();
        let id = rt.start("pay").unwrap();
        rt.fire(id, "invoice").unwrap();
        // Redeploy the same name with a different body mid-flight.
        rt.deploy_source("workflow pay { graph invoice * file; }")
            .unwrap();
        // The running instance still follows the program it pinned …
        assert_eq!(
            rt.eligible(id).unwrap(),
            vec!["approve".to_owned(), "reject".to_owned()]
        );
        // … and new instances follow the new deployment.
        let id2 = rt.start("pay").unwrap();
        rt.fire(id2, "invoice").unwrap();
        assert_eq!(rt.eligible(id2).unwrap(), vec!["file".to_owned()]);
    }

    #[test]
    fn enact_resolves_the_deployment_and_holds_no_locks() {
        let rt = shared_pay();
        // Handlers fire events on the *same* shared runtime while the
        // enactment is in flight: if `enact` held any runtime lock this
        // would deadlock instead of completing.
        let rt2 = rt.clone();
        let id = rt.start("pay").unwrap();
        let mut enactor = crate::Enactor::new();
        enactor.register(
            "invoice",
            Box::new(move |_| {
                rt2.fire(id, "invoice")
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            }),
        );
        let report = rt.enact("pay", &enactor).unwrap();
        assert!(report.is_success());
        assert_eq!(report.completed.len(), 3);
        assert_eq!(rt.journal(id).unwrap(), vec!["invoice"]);
        assert!(matches!(
            rt.enact("ghost", &crate::Enactor::new()).unwrap_err(),
            RuntimeError::UnknownWorkflow(_)
        ));
    }

    #[test]
    fn snapshot_restore_round_trips_through_shards() {
        let rt = shared_pay();
        let i1 = rt.start("pay").unwrap();
        let i2 = rt.start("pay").unwrap();
        rt.fire(i1, "invoice").unwrap();
        rt.fire(i1, "approve").unwrap();
        rt.fire(i2, "invoice").unwrap();
        let restored = Runtime::restore(&rt.snapshot()).unwrap();
        assert_eq!(restored.journal(i1).unwrap(), vec!["invoice", "approve"]);
        assert_eq!(
            restored.eligible(i2).unwrap(),
            vec!["approve".to_owned(), "reject".to_owned()]
        );
        // Fresh ids allocate past the restored ones.
        let i3 = restored.start("pay").unwrap();
        assert!(i3 > i2);
    }

    #[test]
    fn snapshot_under_concurrency_is_consistent() {
        let rt = shared_pay();
        let id = rt.start("pay").unwrap();
        rt.fire(id, "invoice").unwrap();
        let writer = {
            let rt = rt.clone();
            std::thread::spawn(move || {
                let _ = rt.fire(id, "approve");
                let _ = rt.fire(id, "file");
            })
        };
        // Snapshots taken at any point restore cleanly.
        for _ in 0..10 {
            let snap = rt.snapshot();
            Runtime::restore(&snap).expect("snapshot is internally consistent");
        }
        writer.join().unwrap();
        let final_snap = rt.snapshot();
        let restored = Runtime::restore(&final_snap).unwrap();
        assert!(restored.is_complete(id).unwrap());
    }

    #[test]
    fn invalidate_replays_and_matches_incremental_cursor() {
        let rt = shared_pay();
        let id = rt.start("pay").unwrap();
        rt.fire(id, "invoice").unwrap();
        rt.fire(id, "reject").unwrap();
        assert_eq!(rt.replayed_steps(), 0);
        rt.invalidate(id).unwrap();
        assert_eq!(rt.replayed_steps(), 2);
        assert_eq!(rt.eligible(id).unwrap(), vec!["file".to_owned()]);
        rt.fire(id, "file").unwrap();
        assert!(rt.is_complete(id).unwrap());
    }

    #[test]
    fn snapshot_invalidate_deploy_storm_does_not_deadlock() {
        // Regression: invalidate used to take the registry read lock
        // while holding an instance lock. With snapshot holding the
        // registry read lock while collecting instance locks and a deploy
        // writer queued (std RwLock may block new readers behind waiting
        // writers), the fleet could deadlock. Hammer all three paths
        // concurrently; completion of every thread is the assertion.
        let rt = shared_pay();
        let ids: Vec<_> = (0..8).map(|_| rt.start("pay").unwrap()).collect();
        for &id in &ids {
            rt.fire(id, "invoice").unwrap();
        }
        std::thread::scope(|scope| {
            for &id in &ids {
                let rt = rt.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        rt.invalidate(id).unwrap();
                    }
                });
            }
            let snapper = rt.clone();
            scope.spawn(move || {
                for _ in 0..50 {
                    Runtime::restore(&snapper.snapshot()).expect("consistent snapshot");
                }
            });
            let deployer = rt.clone();
            scope.spawn(move || {
                for _ in 0..50 {
                    deployer.deploy_source(PAY).unwrap();
                }
            });
        });
        for &id in &ids {
            assert_eq!(
                rt.eligible(id).unwrap(),
                vec!["approve".to_owned(), "reject".to_owned()]
            );
        }
    }

    #[test]
    fn fire_many_splices_outcomes_to_input_positions() {
        let rt = shared_pay();
        let i1 = rt.start("pay").unwrap();
        let i2 = rt.start("pay").unwrap();
        let ghost = 999u64;
        // Interleave two instances and an unknown id; per-instance event
        // order is the input order regardless of interleaving.
        let batch = [
            (i1, "invoice"),
            (i2, "invoice"),
            (ghost, "invoice"),
            (i1, "approve"),
            (ghost, "file"),
            (i2, "file"), // ineligible: i2 has not decided yet
            (i2, "reject"),
            (i1, "file"),
        ];
        let outcomes = rt.fire_many(&batch);
        use FireOutcome::{Fired, Rejected, Skipped};
        use InstanceStatus::{Completed, Running};
        assert_eq!(outcomes.len(), batch.len());
        assert_eq!(outcomes[0], Fired(Running));
        assert_eq!(outcomes[1], Fired(Running));
        assert_eq!(outcomes[2], Rejected(RuntimeError::UnknownInstance(ghost)));
        assert_eq!(outcomes[3], Fired(Running));
        assert_eq!(outcomes[4], Skipped, "later event of the unknown id");
        assert!(
            matches!(&outcomes[5], Rejected(RuntimeError::NotEligible { event, .. }) if event == "file")
        );
        assert_eq!(outcomes[6], Skipped, "after i2's failure");
        assert_eq!(outcomes[7], Fired(Completed));
        // Committed prefixes landed; i2 remains decidable.
        assert_eq!(rt.journal(i1).unwrap(), vec!["invoice", "approve", "file"]);
        assert_eq!(rt.journal(i2).unwrap(), vec!["invoice"]);
        rt.fire(i2, "reject").unwrap();
        rt.fire(i2, "file").unwrap();
        assert!(rt.is_complete(i2).unwrap());
    }

    #[test]
    fn fire_many_matches_sequential_fires_across_shards() {
        // A batch spanning more instances than shards produces the same
        // fleet state as firing every pair individually.
        let many = shared_pay();
        let single = shared_pay();
        let n = SHARD_COUNT as u64 * 2 + 3;
        let mut batch: Vec<(InstanceId, &str)> = Vec::new();
        for _ in 0..n {
            let a = many.start("pay").unwrap();
            let b = single.start("pay").unwrap();
            assert_eq!(a, b);
        }
        for round in ["invoice", "approve", "file"] {
            for id in 0..n {
                batch.push((id, round));
            }
        }
        let outcomes = many.fire_many(&batch);
        for (&(id, event), outcome) in batch.iter().zip(&outcomes) {
            assert_eq!(single.fire(id, event).unwrap(), {
                let FireOutcome::Fired(status) = outcome else {
                    panic!("expected Fired, got {outcome:?}");
                };
                *status
            });
        }
        assert_eq!(many.snapshot(), single.snapshot());
    }

    #[test]
    fn fire_many_singleton_batches_match_individual_fires() {
        // Mostly pairwise-distinct ids — one-event runs — plus an
        // unknown id: outcomes (including unknown-instance and
        // not-eligible rejections) must be exactly those of per-pair
        // fires.
        let batched = shared_pay();
        let sequential = shared_pay();
        let n = SHARD_COUNT as u64 + 5;
        for _ in 0..n {
            assert_eq!(
                batched.start("pay").unwrap(),
                sequential.start("pay").unwrap()
            );
        }
        let ghost = 999u64;
        let mut batch: Vec<(InstanceId, &str)> = (0..n).map(|id| (id, "invoice")).collect();
        batch.push((ghost, "invoice"));
        batch.push((n - 1, "file")); // a second event for one instance
        let outcomes = batched.fire_many(&batch);
        for (&(id, event), outcome) in batch.iter().zip(&outcomes) {
            match sequential.fire(id, event) {
                Ok(status) => assert_eq!(*outcome, FireOutcome::Fired(status)),
                Err(e) => assert_eq!(*outcome, FireOutcome::Rejected(e)),
            }
        }
        assert_eq!(batched.snapshot(), sequential.snapshot());
        // And the same batch with every id distinct.
        batch.pop();
        let outcomes = batched.fire_many(&batch[..]);
        assert!(
            matches!(&outcomes[..n as usize], o if o.iter().all(|o| matches!(o, FireOutcome::Rejected(RuntimeError::NotEligible { .. })))),
            "second invoice is no longer eligible anywhere"
        );
        assert_eq!(
            outcomes[n as usize],
            FireOutcome::Rejected(RuntimeError::UnknownInstance(ghost))
        );
    }

    #[test]
    fn fire_runs_matches_back_to_back_fire_batches() {
        // A burst of runs — including two runs on the same instance
        // where the first fails mid-way — must produce exactly the
        // outcomes and journals of sequential fire_batch calls.
        let burst = shared_pay();
        let seq = shared_pay();
        let a = burst.start("pay").unwrap();
        assert_eq!(a, seq.start("pay").unwrap());
        let b = burst.start("pay").unwrap();
        assert_eq!(b, seq.start("pay").unwrap());
        let runs: Vec<(InstanceId, &[&str])> = vec![
            (a, &["invoice", "file"]), // "file" ineligible: stops run 1
            (b, &["invoice"]),
            (a, &["approve", "file"]), // run 3 proceeds despite run 1's failure
            (b, &["reject", "file"]),
        ];
        let outcomes = burst.fire_runs(&runs);
        assert_eq!(outcomes.len(), runs.len());
        for ((id, events), outcome) in runs.iter().zip(&outcomes) {
            assert_eq!(outcome, &seq.fire_batch(*id, events).unwrap());
        }
        assert_eq!(burst.snapshot(), seq.snapshot());
        assert_eq!(
            burst.journal(a).unwrap(),
            vec!["invoice", "approve", "file"]
        );
        // Every run against an unknown id rejects its own first event —
        // each run is a separate logical request.
        let ghost = 999u64;
        let ghost_runs: Vec<(InstanceId, &[&str])> =
            vec![(ghost, &["invoice", "file"]), (ghost, &["approve"])];
        let outcomes = burst.fire_runs(&ghost_runs);
        assert_eq!(
            outcomes[0],
            vec![
                FireOutcome::Rejected(RuntimeError::UnknownInstance(ghost)),
                FireOutcome::Skipped
            ]
        );
        assert_eq!(
            outcomes[1],
            vec![FireOutcome::Rejected(RuntimeError::UnknownInstance(ghost))]
        );
    }

    #[test]
    fn fire_runs_appends_once_per_instance_per_burst() {
        use ctr_store::MemStore;
        let store = Arc::new(MemStore::new());
        let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn Store>);
        rt.deploy_source(PAY).unwrap();
        let a = rt.start("pay").unwrap();
        let b = rt.start("pay").unwrap();
        let before = store.stats().appends;
        // Three runs on `a`, one on `b` → exactly two Events appends.
        let runs: Vec<(InstanceId, &[&str])> = vec![
            (a, &["invoice"]),
            (b, &["invoice", "approve"]),
            (a, &["approve"]),
            (a, &["file"]),
        ];
        for outcome in rt.fire_runs(&runs).into_iter().flatten() {
            assert!(matches!(outcome, FireOutcome::Fired(_)));
        }
        assert_eq!(store.stats().appends - before, 2);
        // The grouped appends replay to the same fleet.
        let recovered = Runtime::open(store).unwrap();
        assert_eq!(recovered.snapshot(), rt.snapshot());
    }

    /// A store that fails every append once `fail` is set — the
    /// burst-rollback probe.
    struct FaultyStore {
        inner: ctr_store::MemStore,
        fail: std::sync::atomic::AtomicBool,
    }

    impl Store for FaultyStore {
        fn append(&self, record: &ctr_store::Record) -> Result<(), ctr_store::StoreError> {
            if self.fail.load(Ordering::Relaxed) {
                return Err(ctr_store::StoreError::Io(
                    "injected append failure".to_owned(),
                ));
            }
            self.inner.append(record)
        }
        fn replay(&self) -> Result<ctr_store::Replay, ctr_store::StoreError> {
            self.inner.replay()
        }
        fn checkpoint(&self, snapshot: &str) -> Result<(), ctr_store::StoreError> {
            self.inner.checkpoint(snapshot)
        }
        fn stats(&self) -> ctr_store::StoreStats {
            self.inner.stats()
        }
    }

    #[test]
    fn fire_runs_store_failure_rolls_back_the_whole_burst() {
        let store = Arc::new(FaultyStore {
            inner: ctr_store::MemStore::new(),
            fail: std::sync::atomic::AtomicBool::new(false),
        });
        let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn Store>);
        rt.deploy_source(PAY).unwrap();
        let id = rt.start("pay").unwrap();
        rt.fire(id, "invoice").unwrap();
        store.fail.store(true, Ordering::Relaxed);
        let runs: Vec<(InstanceId, &[&str])> = vec![(id, &["approve"]), (id, &["file"])];
        let outcomes = rt.fire_runs(&runs);
        // Every run reports the store failure shape; nothing committed.
        assert!(matches!(
            outcomes[0][0],
            FireOutcome::Rejected(RuntimeError::Store(_))
        ));
        assert!(matches!(
            outcomes[1][0],
            FireOutcome::Rejected(RuntimeError::Store(_))
        ));
        assert_eq!(rt.journal(id).unwrap(), vec!["invoice"]);
        assert_eq!(rt.status(id).unwrap(), InstanceStatus::Running);
        // The instance stays usable once the store heals.
        store.fail.store(false, Ordering::Relaxed);
        rt.fire(id, "approve").unwrap();
        rt.fire(id, "file").unwrap();
        assert!(rt.is_complete(id).unwrap());
    }

    #[test]
    fn shared_store_survives_crash_and_recovers_sharded() {
        use ctr_store::MemStore;
        let store = Arc::new(MemStore::new());
        let snap_before;
        {
            let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn Store>);
            rt.deploy_source(PAY).unwrap();
            // Span several shards.
            let ids: Vec<_> = (0..SHARD_COUNT as u64 + 3)
                .map(|_| rt.start("pay").unwrap())
                .collect();
            let batch: Vec<(InstanceId, &str)> = ids.iter().map(|&id| (id, "invoice")).collect();
            for outcome in rt.fire_many(&batch) {
                assert!(matches!(outcome, FireOutcome::Fired(_)));
            }
            rt.fire(3, "approve").unwrap();
            snap_before = rt.snapshot();
        }
        let rt = Runtime::open(store).unwrap();
        assert_eq!(rt.snapshot(), snap_before);
        assert_eq!(rt.journal(3).unwrap(), vec!["invoice", "approve"]);
        let stats = rt.store_stats().expect("store stays attached");
        assert!(stats.appends > 0);
    }

    #[test]
    fn shared_checkpoint_compacts_under_the_freeze() {
        use ctr_store::{MemStore, Store as _};
        let store = Arc::new(MemStore::new());
        let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn Store>);
        rt.deploy_source(PAY).unwrap();
        let id = rt.start("pay").unwrap();
        rt.fire(id, "invoice").unwrap();
        rt.checkpoint().unwrap();
        rt.fire(id, "approve").unwrap();
        let replay = store.replay().unwrap();
        assert!(replay.snapshot.is_some());
        assert_eq!(replay.records.len(), 1, "pre-checkpoint records truncated");
        // Concurrent fires + checkpoints never lose an event.
        let writer = {
            let rt = rt.clone();
            std::thread::spawn(move || {
                let _ = rt.fire(id, "file");
            })
        };
        for _ in 0..5 {
            rt.checkpoint().unwrap();
        }
        writer.join().unwrap();
        rt.checkpoint().unwrap();
        let recovered = Runtime::open(store).unwrap();
        assert_eq!(recovered.snapshot(), rt.snapshot());
        assert!(recovered.is_complete(id).unwrap());
    }

    #[test]
    fn checkpoint_never_loses_concurrent_starts_or_deploys() {
        use ctr_store::MemStore;
        // Regression: `start` used to append its Start record *before*
        // taking the shard lock (and deploys appended before the
        // registry write lock), so a checkpoint could freeze the fleet
        // without the new instance, truncate its already-appended Start
        // record behind the snapshot, and recovery would then fail with
        // UnknownInstance on the instance's surviving event records.
        // Hammer starts, fires, redeploys, and checkpoints concurrently;
        // recovery reproducing the exact fleet is the assertion.
        let store = Arc::new(MemStore::new());
        let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn Store>);
        rt.deploy_source(PAY).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let rt = rt.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        let id = rt.start("pay").unwrap();
                        rt.fire(id, "invoice").unwrap();
                    }
                });
            }
            let deployer = rt.clone();
            scope.spawn(move || {
                for _ in 0..50 {
                    deployer.deploy_source(PAY).unwrap();
                }
            });
            let compactor = rt.clone();
            scope.spawn(move || {
                for _ in 0..50 {
                    compactor.checkpoint().unwrap();
                }
            });
        });
        let recovered = Runtime::open(store).unwrap();
        assert_eq!(recovered.snapshot(), rt.snapshot());
        assert_eq!(recovered.instances().len(), 200);
    }

    const TIMED: &str = "workflow timed { graph invoice * approve * file; after(approve, 30s); }";
    const GUARDED: &str = "workflow guarded { graph invoice * approve; deadline(approve, 1h); }";

    /// A store that fails the `k`-th `TimerFire` append (1-based) once.
    struct FailKthTimerFire {
        inner: ctr_store::MemStore,
        k: usize,
        seen: std::sync::atomic::AtomicUsize,
    }

    impl Store for FailKthTimerFire {
        fn append(&self, record: &Record) -> Result<(), ctr_store::StoreError> {
            if matches!(record, Record::TimerFire { .. })
                && self.seen.fetch_add(1, Ordering::Relaxed) + 1 == self.k
            {
                return Err(ctr_store::StoreError::Io(
                    "injected TimerFire failure".to_owned(),
                ));
            }
            self.inner.append(record)
        }
        fn replay(&self) -> Result<ctr_store::Replay, ctr_store::StoreError> {
            self.inner.replay()
        }
        fn checkpoint(&self, snapshot: &str) -> Result<(), ctr_store::StoreError> {
            self.inner.checkpoint(snapshot)
        }
        fn stats(&self) -> StoreStats {
            self.inner.stats()
        }
    }

    #[test]
    fn retried_advance_fires_the_rearmed_expiries_exactly_once() {
        let tick = "approve@after30000";
        for k in 1..=4 {
            let store = Arc::new(FailKthTimerFire {
                inner: ctr_store::MemStore::new(),
                k,
                seen: std::sync::atomic::AtomicUsize::new(0),
            });
            let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn Store>);
            rt.deploy_source(TIMED).unwrap();
            let ids: Vec<_> = (0..4).map(|_| rt.start("timed").unwrap()).collect();
            for &id in &ids {
                rt.fire(id, "invoice").unwrap();
            }
            assert!(matches!(rt.advance(30_000), Err(RuntimeError::Store(_))));
            assert_eq!(rt.clock_ms(), 30_000);
            // Expiry runs in id order: the k-th failed, and it stays
            // pending together with the popped tail behind it.
            let pending: Vec<_> = ids
                .iter()
                .copied()
                .filter(|&id| !rt.pending_timers(id).unwrap().is_empty())
                .collect();
            assert_eq!(pending, ids[k - 1..], "k = {k}");
            for &id in &pending {
                assert_eq!(
                    rt.pending_timers(id).unwrap(),
                    vec![(tick.to_owned(), 30_000)]
                );
            }
            // A retry with the same target fires each of them once.
            let fired = rt.advance(30_000).unwrap();
            let expected: Vec<_> = pending.iter().map(|&id| (id, tick.to_owned())).collect();
            assert_eq!(fired, expected, "k = {k}");
            assert_eq!(rt.pending_timer_count(), 0);
            assert!(rt.advance(30_000).unwrap().is_empty());
            // The store holds exactly one TimerFire per tick.
            let records = store.inner.replay().unwrap().records;
            for &id in &ids {
                let fires = records
                    .iter()
                    .filter(|r| matches!(r, Record::TimerFire { instance, .. } if *instance == id))
                    .count();
                assert_eq!(fires, 1, "k = {k}, instance {id}");
                assert_eq!(rt.journal(id).unwrap(), vec!["invoice", tick]);
            }
        }
    }

    #[test]
    fn concurrent_advances_fire_each_timer_exactly_once() {
        let rt = Runtime::new();
        rt.deploy_source(TIMED).unwrap();
        let n = 64u64;
        let ids: Vec<_> = (0..n).map(|_| rt.start("timed").unwrap()).collect();
        for &id in &ids {
            rt.fire(id, "invoice").unwrap();
        }
        assert_eq!(rt.pending_timer_count(), n as usize);
        let mut total = 0usize;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let rt = rt.clone();
                    scope.spawn(move || rt.advance(30_000).unwrap().len())
                })
                .collect();
            for h in handles {
                total += h.join().unwrap();
            }
        });
        assert_eq!(total, n as usize, "every tick fired exactly once");
        assert_eq!(rt.pending_timer_count(), 0);
        for &id in &ids {
            assert_eq!(
                rt.journal(id).unwrap(),
                vec!["invoice", "approve@after30000"]
            );
            rt.fire(id, "approve").unwrap();
        }
    }

    #[test]
    fn shared_timer_recovery_rearms_from_the_wal() {
        use ctr_store::MemStore;
        let store = Arc::new(MemStore::new());
        let snap_before;
        {
            let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn Store>);
            rt.deploy_source(TIMED).unwrap();
            let id = rt.start("timed").unwrap();
            rt.fire(id, "invoice").unwrap();
            snap_before = rt.snapshot();
        }
        // Arm-before-visible: the arm record precedes the start record.
        let records = store.replay().unwrap().records;
        let arm = records
            .iter()
            .position(|r| matches!(r, ctr_store::Record::TimerArm { .. }))
            .expect("arm record present");
        let start = records
            .iter()
            .position(|r| matches!(r, ctr_store::Record::Start { .. }))
            .expect("start record present");
        assert!(arm < start, "arm-before-visible: {records:?}");
        let rt = Runtime::open(store).unwrap();
        assert_eq!(rt.snapshot(), snap_before);
        assert_eq!(
            rt.pending_timers(0).unwrap(),
            vec![("approve@after30000".to_owned(), 30_000)]
        );
        let fired = rt.advance(30_000).unwrap();
        assert_eq!(fired, vec![(0, "approve@after30000".to_owned())]);
        assert_eq!(rt.clock_ms(), 30_000);
    }

    #[test]
    fn shared_timer_fires_are_durable_and_survive_checkpoint() {
        use ctr_store::MemStore;
        let store = Arc::new(MemStore::new());
        let rt = Runtime::with_store(Arc::clone(&store) as Arc<dyn Store>);
        rt.deploy_source(TIMED).unwrap();
        rt.deploy_source(GUARDED).unwrap();
        let t = rt.start("timed").unwrap();
        let g = rt.start("guarded").unwrap();
        rt.fire(t, "invoice").unwrap();
        rt.advance(30_000).unwrap();
        rt.checkpoint().unwrap();
        rt.fire(g, "invoice").unwrap();
        let snap = rt.snapshot();
        drop(rt);
        let rt = Runtime::open(store).unwrap();
        assert_eq!(rt.snapshot(), snap);
        assert_eq!(rt.clock_ms(), 0, "clock is not part of the snapshot");
        // The surviving deadline still expires (files past-due on the
        // recovered wheel) and fires as a compensationable event.
        let fired = rt.advance(3_600_000).unwrap();
        assert_eq!(fired, vec![(g, "approve@deadline3600000".to_owned())]);
    }
}
