//! Span tracing: lightweight trees of timed spans with `u64`
//! trace/span ids, a bounded in-memory span ring, and a head-sampling
//! [`Tracer`].
//!
//! A *trace* is a tree of spans sharing one trace id — here, the
//! journey of one MRT file from feed discovery (`feed_poll`) through
//! decode, shard apply, and history append to the published epoch, or
//! of one HTTP request through parse → route → serialize. Spans are
//! cheap: a sampled span takes two clock reads and one uncontended
//! per-slot lock on finish; an *unsampled* span takes a single atomic
//! load and records nothing.
//!
//! Sampling is head-based: the root decides once (1-in-N) and every
//! child inherits the decision through its [`SpanContext`], so a trace
//! is always complete or absent, never partial.
//!
//! Two recording shapes cover the codebase's measurement styles:
//! guard spans ([`Tracer::span`] / [`Tracer::child`]) for scoped work,
//! and [`Tracer::record_child`] for stages that already measure an
//! elapsed `Duration` — the record is backdated so span trees still
//! nest correctly.
//!
//! The *current context* ([`Tracer::set_current`]) is an ambient slot
//! for the active ingest trace: the feed driver sets it for the span
//! of one poll so downstream stages on other threads (shard workers
//! receive it by message; the history store and compaction daemon read
//! it directly) attach as children without threading a context through
//! every call signature. It is a single global slot written by the one
//! feed thread — writers other than the feed should pass contexts
//! explicitly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime};

/// Default capacity of the span ring (spans, not traces).
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

/// A span's identity within its trace: the trace id shared by the
/// whole tree plus this span's own id. A zeroed context means "not
/// sampled" and makes every downstream recording a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanContext {
    /// Trace id shared by every span in the tree (the root's span id).
    pub trace: u64,
    /// This span's id (0 = unsampled).
    pub span: u64,
}

impl SpanContext {
    /// The explicit "not sampled / no active trace" context.
    pub const NONE: SpanContext = SpanContext { trace: 0, span: 0 };

    /// Whether this context belongs to a sampled trace.
    pub fn is_sampled(&self) -> bool {
        self.span != 0
    }
}

/// One finished span in the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace id of the tree this span belongs to.
    pub trace: u64,
    /// This span's id.
    pub span: u64,
    /// Parent span id (0 for a root span).
    pub parent: u64,
    /// Stage name (`feed_poll`, `mrt_decode`, `request_route`, …).
    pub name: &'static str,
    /// Wall-clock start, microseconds since the Unix epoch.
    pub start_unix_us: u64,
    /// Span duration in microseconds.
    pub duration_us: u64,
}

/// A live span guard: finishes (records) on drop.
///
/// Unsampled spans carry a zeroed context and record nothing.
#[must_use = "a span measures the scope it lives in"]
pub struct Span<'t> {
    tracer: &'t Tracer,
    ctx: SpanContext,
    parent: u64,
    name: &'static str,
    started: Option<(Instant, SystemTime)>,
}

impl Span<'_> {
    /// This span's context, for handing to children (possibly on other
    /// threads). Zeroed when unsampled.
    pub fn context(&self) -> SpanContext {
        self.ctx
    }

    /// Whether this span will be recorded.
    pub fn is_sampled(&self) -> bool {
        self.ctx.is_sampled()
    }

    /// Finishes the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some((started, wall)) = self.started else {
            return;
        };
        self.tracer.push(SpanRecord {
            trace: self.ctx.trace,
            span: self.ctx.span,
            parent: self.parent,
            name: self.name,
            start_unix_us: unix_micros(wall),
            duration_us: started.elapsed().as_micros() as u64,
        });
    }
}

/// The head-sampling tracer: id allocator, sampling decision, span
/// ring, and the ambient current-ingest context.
#[derive(Debug)]
pub struct Tracer {
    /// 0 disables tracing entirely; N samples 1 trace in N.
    sample_every: AtomicU64,
    /// Root counter driving the 1-in-N decision.
    heads: AtomicU64,
    /// Monotonic span-id allocator (ids start at 1; 0 means none).
    next_id: AtomicU64,
    /// Bounded span ring: per-slot mutexes stay uncontended (each
    /// writer owns a distinct slot via the cursor), keeping the write
    /// path lock-free in practice while staying within
    /// `forbid(unsafe_code)`. Each slot remembers the push sequence
    /// that wrote it, so [`Tracer::drain_new`] can hand out each span
    /// exactly once even while writers race the drain.
    slots: Vec<Mutex<Option<(u64, SpanRecord)>>>,
    cursor: AtomicU64,
    /// Ambient (trace, span) of the active ingest trace.
    current_trace: AtomicU64,
    current_span: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::with_capacity(DEFAULT_SPAN_CAPACITY)
    }
}

impl Tracer {
    /// A tracer whose ring holds `capacity` spans (minimum 1); the
    /// default sampling is 1 (record every trace — the ring bounds
    /// memory, and per-span cost is nanoseconds against the
    /// millisecond-scale stages being traced).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Tracer {
            sample_every: AtomicU64::new(1),
            heads: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
            current_trace: AtomicU64::new(0),
            current_span: AtomicU64::new(0),
        }
    }

    /// Sets head sampling: 0 records nothing, 1 records every trace,
    /// N records one root (and its whole tree) in N.
    pub fn set_sampling(&self, every: u64) {
        self.sample_every.store(every, Ordering::Relaxed);
    }

    /// The current sampling divisor (see [`Tracer::set_sampling`]).
    pub fn sampling(&self) -> u64 {
        self.sample_every.load(Ordering::Relaxed)
    }

    /// Ring capacity in spans.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Retained bytes of the span ring — fixed at construction
    /// (capacity × slot size); the
    /// `moas_resource_bytes{component="spans"}` probe.
    pub fn approx_bytes(&self) -> u64 {
        (self.slots.len() * std::mem::size_of::<Mutex<Option<(u64, SpanRecord)>>>()) as u64
    }

    /// Starts a root span, making the head-sampling decision for the
    /// whole trace. The unsampled path is one relaxed atomic load.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        let every = self.sample_every.load(Ordering::Relaxed);
        let sampled = match every {
            0 => false,
            1 => true,
            n => self.heads.fetch_add(1, Ordering::Relaxed).is_multiple_of(n),
        };
        if !sampled {
            return Span {
                tracer: self,
                ctx: SpanContext::NONE,
                parent: 0,
                name,
                started: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Span {
            tracer: self,
            ctx: SpanContext {
                trace: id,
                span: id,
            },
            parent: 0,
            name,
            started: Some((Instant::now(), SystemTime::now())),
        }
    }

    /// Starts a child span under `parent`; inherits the sampling
    /// decision (an unsampled parent yields an unsampled child).
    pub fn child(&self, parent: SpanContext, name: &'static str) -> Span<'_> {
        if !parent.is_sampled() {
            return Span {
                tracer: self,
                ctx: SpanContext::NONE,
                parent: 0,
                name,
                started: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Span {
            tracer: self,
            ctx: SpanContext {
                trace: parent.trace,
                span: id,
            },
            parent: parent.span,
            name,
            started: Some((Instant::now(), SystemTime::now())),
        }
    }

    /// Records an already-measured child span under `parent`,
    /// backdated so the record's start is `duration` ago. This is the
    /// hook for stages that time themselves with an `Instant` and hand
    /// the elapsed duration over (`mrt_decode`, `event_append`, …).
    /// Returns the recorded span's context (NONE when unsampled).
    pub fn record_child(
        &self,
        parent: SpanContext,
        name: &'static str,
        duration: Duration,
    ) -> SpanContext {
        if !parent.is_sampled() {
            return SpanContext::NONE;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let duration_us = duration.as_micros() as u64;
        let now_us = unix_micros(SystemTime::now());
        self.push(SpanRecord {
            trace: parent.trace,
            span: id,
            parent: parent.span,
            name,
            start_unix_us: now_us.saturating_sub(duration_us),
            duration_us,
        });
        SpanContext {
            trace: parent.trace,
            span: id,
        }
    }

    /// Records an already-measured stage span: under `parent` when
    /// that trace is sampled, otherwise as its own single-span root
    /// trace, subject to a fresh head-sampling decision. Stages that
    /// observe a duration histogram should record through this rather
    /// than [`Tracer::record_child`]: work that runs outside any
    /// trace — a daemon flush, a finalize drain — still reaches the
    /// wall-clock profiler, which is what keeps per-stage profile
    /// time reconciled with the `moas_stage_duration_us` sums.
    pub fn record_stage(
        &self,
        parent: SpanContext,
        name: &'static str,
        duration: Duration,
    ) -> SpanContext {
        if parent.is_sampled() {
            return self.record_child(parent, name, duration);
        }
        let every = self.sample_every.load(Ordering::Relaxed);
        let sampled = match every {
            0 => false,
            1 => true,
            n => self.heads.fetch_add(1, Ordering::Relaxed).is_multiple_of(n),
        };
        if !sampled {
            return SpanContext::NONE;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let duration_us = duration.as_micros() as u64;
        let now_us = unix_micros(SystemTime::now());
        self.push(SpanRecord {
            trace: id,
            span: id,
            parent: 0,
            name,
            start_unix_us: now_us.saturating_sub(duration_us),
            duration_us,
        });
        SpanContext {
            trace: id,
            span: id,
        }
    }

    /// Publishes `ctx` as the ambient ingest context (see the module
    /// docs); downstream stages pick it up via [`Tracer::current`].
    pub fn set_current(&self, ctx: SpanContext) {
        self.current_trace.store(ctx.trace, Ordering::Relaxed);
        self.current_span.store(ctx.span, Ordering::Relaxed);
    }

    /// Clears the ambient ingest context.
    pub fn clear_current(&self) {
        self.set_current(SpanContext::NONE);
    }

    /// The ambient ingest context ([`SpanContext::NONE`] when no
    /// ingest trace is active).
    pub fn current(&self) -> SpanContext {
        SpanContext {
            trace: self.current_trace.load(Ordering::Relaxed),
            span: self.current_span.load(Ordering::Relaxed),
        }
    }

    fn push(&self, record: SpanRecord) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let i = seq as usize % self.slots.len();
        *self.slots[i].lock().expect("span slot poisoned") = Some((seq, record));
    }

    /// All spans of one trace, parents before children (start order,
    /// root first). Empty when the trace has rotated out of the ring.
    pub fn trace_spans(&self, trace: u64) -> Vec<SpanRecord> {
        let mut spans: Vec<SpanRecord> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().expect("span slot poisoned").clone())
            .map(|(_, r)| r)
            .filter(|r| r.trace == trace)
            .collect();
        spans.sort_by_key(|r| (r.parent != 0, r.start_unix_us, r.span));
        spans
    }

    /// The slowest root spans still in the ring, longest first,
    /// truncated to `limit`.
    pub fn slowest_roots(&self, limit: usize) -> Vec<SpanRecord> {
        let mut roots: Vec<SpanRecord> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().expect("span slot poisoned").clone())
            .map(|(_, r)| r)
            .filter(|r| r.parent == 0)
            .collect();
        roots.sort_by_key(|r| (std::cmp::Reverse(r.duration_us), r.span));
        roots.truncate(limit);
        roots
    }

    /// Total spans currently held in the ring.
    pub fn recorded(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.lock().expect("span slot poisoned").is_some())
            .count()
    }

    /// Spans pushed since a previous checkpoint, exactly once.
    ///
    /// `from` is the cursor a prior call returned (0 to start).
    /// Returns `(spans, next_cursor, missed)` where `missed` counts
    /// spans that were overwritten by ring wrap before this drain
    /// reached them — the continuous profiler's signal to tick more
    /// often (surfaced as `moas_profile_spans_dropped_total`). Each
    /// slot is matched against the push sequence that should occupy
    /// it, so a racing writer can neither duplicate an old span into
    /// the answer nor leak one pushed after `next_cursor`.
    pub fn drain_new(&self, from: u64) -> (Vec<SpanRecord>, u64, u64) {
        let end = self.cursor.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let start = from.max(end.saturating_sub(cap));
        let missed = start - from;
        let mut spans = Vec::with_capacity((end - start) as usize);
        for seq in start..end {
            let i = seq as usize % self.slots.len();
            let slot = self.slots[i].lock().expect("span slot poisoned");
            if let Some((slot_seq, record)) = &*slot {
                if *slot_seq == seq {
                    spans.push(record.clone());
                }
            }
        }
        (spans, end, missed)
    }
}

fn unix_micros(t: SystemTime) -> u64 {
    t.duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_stage_falls_back_to_a_root_trace_outside_any_parent() {
        let tracer = Tracer::default();
        // With a sampled parent it behaves exactly like record_child.
        let root = tracer.span("feed_poll");
        let ctx = tracer.record_stage(root.context(), "shard_apply", Duration::from_micros(9));
        assert_eq!(ctx.trace, root.context().trace);
        root.finish();
        // Without one, the stage still records — as its own root —
        // so profiles stay reconciled with the stage histograms.
        let orphan =
            tracer.record_stage(SpanContext::NONE, "shard_apply", Duration::from_micros(4));
        assert!(orphan.is_sampled());
        let spans = tracer.trace_spans(orphan.trace);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].parent, 0, "the fallback span is a root");
        assert_eq!(spans[0].duration_us, 4);
        // Sampling 0 silences the fallback path too.
        tracer.set_sampling(0);
        let none = tracer.record_stage(SpanContext::NONE, "shard_apply", Duration::from_micros(4));
        assert!(!none.is_sampled());
    }

    #[test]
    fn root_and_children_share_a_trace_and_link_parents() {
        let tracer = Tracer::default();
        let root = tracer.span("feed_poll");
        let root_ctx = root.context();
        assert!(root_ctx.is_sampled());
        let child = tracer.child(root_ctx, "feed_tail");
        let child_ctx = child.context();
        assert_eq!(child_ctx.trace, root_ctx.trace);
        assert_ne!(child_ctx.span, root_ctx.span);
        let grand = tracer.record_child(child_ctx, "mrt_decode", Duration::from_micros(7));
        assert_eq!(grand.trace, root_ctx.trace);
        child.finish();
        root.finish();

        let spans = tracer.trace_spans(root_ctx.trace);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "feed_poll");
        assert_eq!(spans[0].parent, 0);
        let tail = spans.iter().find(|s| s.name == "feed_tail").unwrap();
        assert_eq!(tail.parent, root_ctx.span);
        let decode = spans.iter().find(|s| s.name == "mrt_decode").unwrap();
        assert_eq!(decode.parent, child_ctx.span);
        assert_eq!(decode.duration_us, 7);
    }

    #[test]
    fn sampling_zero_records_nothing_and_children_inherit() {
        let tracer = Tracer::default();
        tracer.set_sampling(0);
        let root = tracer.span("feed_poll");
        assert!(!root.is_sampled());
        let ctx = root.context();
        let child = tracer.child(ctx, "feed_tail");
        assert!(!child.is_sampled());
        assert_eq!(
            tracer.record_child(ctx, "mrt_decode", Duration::from_micros(5)),
            SpanContext::NONE
        );
        child.finish();
        root.finish();
        assert_eq!(tracer.recorded(), 0);
    }

    #[test]
    fn one_in_n_sampling_keeps_whole_trees() {
        let tracer = Tracer::default();
        tracer.set_sampling(3);
        let mut sampled = 0;
        for _ in 0..9 {
            let root = tracer.span("r");
            if root.is_sampled() {
                sampled += 1;
                tracer.child(root.context(), "c").finish();
            }
        }
        assert_eq!(sampled, 3, "1-in-3 heads over 9 roots");
        assert_eq!(tracer.recorded(), 6, "each sampled tree has 2 spans");
    }

    #[test]
    fn ring_overwrites_oldest_spans() {
        let tracer = Tracer::with_capacity(4);
        let mut last = 0;
        for _ in 0..10 {
            let s = tracer.span("r");
            last = s.context().trace;
            s.finish();
        }
        assert_eq!(tracer.recorded(), 4);
        assert_eq!(tracer.trace_spans(last).len(), 1, "newest survives");
        assert!(tracer.trace_spans(1).is_empty(), "oldest rotated out");
    }

    #[test]
    fn slowest_roots_sorts_and_truncates() {
        let tracer = Tracer::default();
        let root = tracer.span("outer");
        let ctx = root.context();
        for us in [5u64, 50, 500] {
            // Fabricated root spans via a parentless record: use
            // fresh root guards instead, with recorded durations via
            // record_child under a throwaway root.
            tracer.record_child(ctx, "inner", Duration::from_micros(us));
        }
        root.finish();
        let another = tracer.span("outer2");
        another.finish();
        let roots = tracer.slowest_roots(10);
        assert!(roots.len() >= 2);
        assert!(roots.iter().all(|r| r.parent == 0));
        assert!(roots
            .windows(2)
            .all(|w| w[0].duration_us >= w[1].duration_us));
        assert_eq!(tracer.slowest_roots(1).len(), 1);
    }

    #[test]
    fn drain_new_hands_out_each_span_exactly_once_and_counts_misses() {
        let tracer = Tracer::with_capacity(4);
        tracer.span("a").finish();
        tracer.span("b").finish();
        let (spans, cursor, missed) = tracer.drain_new(0);
        assert_eq!(spans.len(), 2);
        assert_eq!((cursor, missed), (2, 0));
        // Nothing new: an empty drain from the checkpoint.
        let (spans, cursor2, missed) = tracer.drain_new(cursor);
        assert!(spans.is_empty());
        assert_eq!((cursor2, missed), (2, 0));
        // Overflow the 4-slot ring by 6 pushes: 2 are unrecoverable.
        for _ in 0..6 {
            tracer.span("c").finish();
        }
        let (spans, cursor3, missed) = tracer.drain_new(cursor2);
        assert_eq!(spans.len(), 4, "only the ring's worth survives");
        assert_eq!(cursor3, 8);
        assert_eq!(missed, 2, "overwritten spans are counted, not silent");
    }

    #[test]
    fn ambient_current_context_round_trips() {
        let tracer = Tracer::default();
        assert_eq!(tracer.current(), SpanContext::NONE);
        let root = tracer.span("feed_poll");
        tracer.set_current(root.context());
        assert_eq!(tracer.current(), root.context());
        tracer.clear_current();
        assert_eq!(tracer.current(), SpanContext::NONE);
        root.finish();
    }
}
