//! The per-thread **event journal** behind event-timeline tracing.
//!
//! Aggregate metrics (`metrics.rs`) answer "how much, in total"; the
//! journal answers "what happened, when, on which thread". Every
//! instrumentation site that records a counter or opens a span also — when
//! the journal is enabled — appends a timestamped event to a thread-local
//! buffer: span begin/end pairs, instant (point) events and counter
//! deltas.
//!
//! ## Cost discipline
//!
//! With the journal (and every other sink) disabled, an event site is a
//! single relaxed atomic load and an early return — the same contract the
//! metrics recorder has always had, asserted by the
//! `disabled_event_sites_stay_cheap` guard test. With the journal enabled,
//! an event is a `Vec::push` into thread-local storage; the global mutex is
//! taken only when a thread's outermost span closes (or for the rare event
//! recorded outside any span), mirroring the span buffer's flush policy.
//!
//! ## Draining
//!
//! [`crate::take_trace`] disables the journal and assembles the flushed
//! chunks into a [`crate::TraceLog`]: events grouped per thread in record
//! order (per-thread timestamps are therefore monotonic), threads ordered
//! by their stable ordinal, timestamps normalized to the earliest event.
//! Buffers left over from a previous run (a thread that died with the
//! journal off, a run that was never drained) are discarded by run-id
//! mismatch, so consecutive traced runs in one process cannot bleed into
//! each other.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::trace::{TraceEvent, TraceEventKind, TraceLog};

/// Process-lifetime monotonic epoch; all journal timestamps are nanoseconds
/// since this instant. Normalization to the run's own start happens at
/// drain time, keeping the hot path at one `Instant::elapsed` call.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch.
pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Stable per-thread ordinal, assigned on first use and used as the trace
/// track id. The main thread almost always claims 0 (it records the first
/// event); worker ordinals depend on spawn order, which only affects track
/// numbering in the timed export, never the stripped structure.
pub(crate) fn thread_ordinal() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static ORDINAL: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

/// Current journal run id; bumped by [`reset`] so thread-local buffers from
/// an earlier run can be recognized and discarded.
static RUN: AtomicU64 = AtomicU64::new(0);

/// One journal entry. Names and paths are `&'static str` on the hot path;
/// they widen to `String` only at drain time.
pub(crate) enum JEvent {
    Begin { path: &'static str, label: String, ts: u64 },
    End { path: &'static str, ts: u64 },
    Instant { name: &'static str, label: String, ts: u64 },
    Counter { name: &'static str, delta: u64, ts: u64 },
}

struct ThreadJournal {
    /// Run id the buffered events belong to.
    run: u64,
    /// Open-span depth as seen by the journal (Begin minus End); the flush
    /// trigger.
    depth: u32,
    events: Vec<JEvent>,
}

thread_local! {
    static TLS: RefCell<ThreadJournal> =
        const { RefCell::new(ThreadJournal { run: 0, depth: 0, events: Vec::new() }) };
}

/// Flushed per-thread chunks of the current run, in flush order (each
/// thread's chunks are chronological; threads interleave arbitrarily).
static CHUNKS: Mutex<Vec<(u32, Vec<JEvent>)>> = Mutex::new(Vec::new());

/// Start a fresh journal run: discard any chunks from a previous run and
/// invalidate stale thread-local buffers via the run id.
pub(crate) fn reset() {
    let mut chunks = CHUNKS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    chunks.clear();
    RUN.fetch_add(1, Ordering::AcqRel);
}

fn with_tls(f: impl FnOnce(&mut ThreadJournal)) {
    TLS.with(|t| {
        let mut j = t.borrow_mut();
        let run = RUN.load(Ordering::Acquire);
        if j.run != run {
            // A buffer from a previous run that was never flushed (or the
            // thread's first event of this run): start clean.
            j.run = run;
            j.depth = 0;
            j.events.clear();
        }
        f(&mut j);
    });
}

/// Merge a thread's buffered events into the global chunk list. A no-op
/// when the journal was disabled (or reset) while the events were buffered.
fn flush(j: &mut ThreadJournal) {
    if j.events.is_empty() {
        return;
    }
    let events = std::mem::take(&mut j.events);
    if !crate::journal_enabled() || j.run != RUN.load(Ordering::Acquire) {
        return; // this run's trace was already taken; drop the stragglers
    }
    let mut chunks = CHUNKS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    chunks.push((thread_ordinal(), events));
}

pub(crate) fn begin(path: &'static str, label: String) {
    with_tls(|j| {
        j.events.push(JEvent::Begin { path, label, ts: now_ns() });
        j.depth += 1;
    });
}

pub(crate) fn end(path: &'static str) {
    with_tls(|j| {
        j.events.push(JEvent::End { path, ts: now_ns() });
        j.depth = j.depth.saturating_sub(1);
        if j.depth == 0 {
            flush(j);
        }
    });
}

pub(crate) fn instant(name: &'static str, label: String) {
    with_tls(|j| {
        j.events.push(JEvent::Instant { name, label, ts: now_ns() });
        if j.depth == 0 {
            flush(j);
        }
    });
}

pub(crate) fn counter(name: &'static str, delta: u64) {
    with_tls(|j| {
        j.events.push(JEvent::Counter { name, delta, ts: now_ns() });
        if j.depth == 0 {
            flush(j);
        }
    });
}

/// Drain everything flushed since [`reset`] into a stable-ordered
/// [`TraceLog`]: events sorted by (thread ordinal, record order), then
/// timestamps normalized so the earliest event is `t = 0`.
pub(crate) fn take() -> TraceLog {
    let chunks: Vec<(u32, Vec<JEvent>)> = {
        let mut g = CHUNKS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        std::mem::take(&mut *g)
    };
    // Group per thread, preserving chunk (and therefore record) order: each
    // thread flushes its chunks chronologically, so concatenation keeps
    // per-thread timestamps monotonic.
    let mut per_thread: std::collections::BTreeMap<u32, Vec<JEvent>> =
        std::collections::BTreeMap::new();
    for (tid, events) in chunks {
        per_thread.entry(tid).or_default().extend(events);
    }
    let mut events: Vec<TraceEvent> = Vec::new();
    for (tid, list) in per_thread {
        for e in list {
            let (ts_ns, kind) = match e {
                JEvent::Begin { path, label, ts } => {
                    (ts, TraceEventKind::Begin { path: path.to_string(), label })
                }
                JEvent::End { path, ts } => (ts, TraceEventKind::End { path: path.to_string() }),
                JEvent::Instant { name, label, ts } => {
                    (ts, TraceEventKind::Instant { name: name.to_string(), label })
                }
                JEvent::Counter { name, delta, ts } => {
                    (ts, TraceEventKind::Counter { name: name.to_string(), delta })
                }
            };
            events.push(TraceEvent { tid, ts_ns, kind });
        }
    }
    let t0 = events.iter().map(|e| e.ts_ns).min().unwrap_or(0);
    for e in &mut events {
        e.ts_ns -= t0;
    }
    let mut log = TraceLog { meta: crate::trace::build_meta(&[]), events };
    log.meta.insert("schema".to_string(), "xdata-trace v1".to_string());
    log
}
