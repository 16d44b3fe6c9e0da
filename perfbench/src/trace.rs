//! In-memory spans, recorded by the benchmark around its calls into each
//! layer. Off by default: an untraced run pays one relaxed load per
//! call site.
//!
//! A span has a name, a start and an end (ns since the tracer's epoch),
//! a parent (the enclosing span on the same thread) and a request id.
//! A layer's self time is its span's duration minus the time its
//! children cover.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACER: OnceLock<Tracer> = OnceLock::new();

thread_local! {
    static PARENT: Cell<u32> = const { Cell::new(0) };
}

fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
        next_id: AtomicU32::new(1),
    })
}

pub fn set_enabled(on: bool) {
    tracer();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns(t: &Tracer) -> u64 {
    t.epoch.elapsed().as_nanos() as u64
}

/// Runs `f` inside a span named `name`; spans opened by `f` on this
/// thread become its children.
pub fn span<R>(name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let t = tracer();
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = PARENT.with(|p| p.replace(id));
    let start_ns = now_ns(t);
    let out = f();
    let end_ns = now_ns(t);
    PARENT.with(|p| p.set(parent));
    t.spans.lock().expect("span list poisoned").push(Span {
        name,
        start_ns,
        end_ns,
        id,
        parent,
        req,
    });
    out
}

/// Records a finished span measured by the caller (for intervals that do
/// not nest as a closure, such as a request's send-to-reply time).
pub fn record(name: &'static str, req: u64, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let t = tracer();
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let base = t.epoch;
    let ns = |i: Instant| i.saturating_duration_since(base).as_nanos() as u64;
    t.spans.lock().expect("span list poisoned").push(Span {
        name,
        start_ns: ns(start),
        end_ns: ns(end).max(ns(start)),
        id,
        parent: PARENT.with(Cell::get),
        req,
    });
}

/// Takes every recorded span out of the tracer.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *tracer().spans.lock().expect("span list poisoned"))
}

/// Per-name totals: spans, and their summed self time in ns.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layer {
    pub count: u64,
    pub self_ns: u64,
}

/// Each span's self time (ns), in `spans` order.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns: HashMap<u32, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            s.dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
        })
        .collect()
}

/// Sums self times per span name.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        let layer = out.entry(s.name).or_default();
        layer.count += 1;
        layer.self_ns += own;
    }
    out
}

/// Writes spans as tab-separated lines (name, start, end, id, parent,
/// request), at most `limit` of them; returns how many were written.
pub fn write_tsv(spans: &[Span], path: &Path, limit: usize) -> std::io::Result<usize> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tstart_ns\tend_ns\tid\tparent\treq")?;
    let n = spans.len().min(limit);
    for s in &spans[..n] {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.name, s.start_ns, s.end_ns, s.id, s.parent, s.req
        )?;
    }
    out.flush()?;
    Ok(n)
}
