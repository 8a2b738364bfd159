//! Request tracing: 128-bit trace IDs, span recording, and the bounded
//! ring of slow-request exemplars behind `GET /v1/debug/requests`.

use std::collections::VecDeque;
use std::fmt;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime};

/// A non-zero 128-bit trace identifier. Wire form (the `x-rpg-trace-id`
/// header) is exactly 32 hex characters; parsing accepts either case,
/// formatting always emits lowercase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(u128);

impl TraceId {
    /// Parses the wire form. `None` for anything other than exactly 32 hex
    /// chars, and for the all-zero ID (which the W3C/OTel trace-context
    /// convention reserves as invalid).
    pub fn parse(text: &str) -> Option<TraceId> {
        if text.len() != 32 || !text.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let value = u128::from_str_radix(text, 16).ok()?;
        if value == 0 {
            return None;
        }
        Some(TraceId(value))
    }

    /// Mints a fresh ID: wall-clock nanoseconds and a process-wide counter
    /// pushed through two independently-keyed SipHash instances
    /// ([`std::collections::hash_map::RandomState`] is randomly seeded per
    /// process), giving unique, unpredictable IDs without a rand crate.
    pub fn mint() -> TraceId {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        static KEYS: OnceLock<(
            std::collections::hash_map::RandomState,
            std::collections::hash_map::RandomState,
        )> = OnceLock::new();
        let (hi_state, lo_state) = KEYS.get_or_init(|| {
            (
                std::collections::hash_map::RandomState::new(),
                std::collections::hash_map::RandomState::new(),
            )
        });
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let nanos = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let hi = hi_state.hash_one((seq, nanos));
        let lo = lo_state.hash_one((nanos, seq, 0x5bd1e995u64));
        let value = ((hi as u128) << 64) | lo as u128;
        // The all-zero ID is reserved as invalid; one extra bit of bias on a
        // 2^-128 event is a fair trade for infallibility.
        TraceId(if value == 0 { 1 } else { value })
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// One timed span in a request's tree. Offsets are relative to the
/// recorder's epoch (request admission), so a rendered tree reads as a
/// waterfall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What the span covers (`queue_wait`, `compute`, `stage:seed`, ...).
    pub name: &'static str,
    /// Offset of the span start from the recorder epoch.
    pub start: Duration,
    /// How long the span lasted (zero while still open).
    pub duration: Duration,
    /// Index of the parent span within the same recorder, if nested.
    pub parent: Option<usize>,
}

/// Records the span tree of one request. Cheap to create; spans are
/// appended in completion order and reference parents by index.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanRecorder {
    /// A recorder whose epoch is `epoch` (usually the instant the request
    /// head finished parsing, so queue wait shows up as a span, not as
    /// missing time).
    pub fn with_epoch(epoch: Instant) -> SpanRecorder {
        SpanRecorder {
            epoch,
            spans: Vec::with_capacity(8),
        }
    }

    /// A recorder whose epoch is now.
    pub fn new() -> SpanRecorder {
        SpanRecorder::with_epoch(Instant::now())
    }

    /// Records a span that started at `started` and ends now. Returns its
    /// index for use as a parent.
    pub fn record(&mut self, parent: Option<usize>, name: &'static str, started: Instant) -> usize {
        self.record_between(parent, name, started, Instant::now())
    }

    /// Records a fully-bounded span.
    pub fn record_between(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        started: Instant,
        ended: Instant,
    ) -> usize {
        let start = started.saturating_duration_since(self.epoch);
        let duration = ended.saturating_duration_since(started);
        self.spans.push(Span {
            name,
            start,
            duration,
            parent,
        });
        self.spans.len() - 1
    }

    /// Opens a span starting now; [`close`](Self::close) it to stamp the
    /// duration. An open span left unclosed renders with zero duration.
    pub fn open(&mut self, parent: Option<usize>, name: &'static str) -> usize {
        let start = Instant::now().saturating_duration_since(self.epoch);
        self.spans.push(Span {
            name,
            start,
            duration: Duration::ZERO,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened with [`open`](Self::open).
    pub fn close(&mut self, index: usize) {
        let now = Instant::now().saturating_duration_since(self.epoch);
        if let Some(span) = self.spans.get_mut(index) {
            span.duration = now.saturating_sub(span.start);
        }
    }

    /// The spans recorded so far, in completion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves the spans out, leaving the recorder empty.
    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder::new()
    }
}

/// A recorder shared between the event-loop driver (which owns the
/// request lifecycle) and the compute worker (which fills in queue-wait,
/// compute, and stage spans). The mutex is uncontended in practice: the
/// two sides touch it in strictly sequential phases of the request.
pub type SharedRecorder = Arc<Mutex<SpanRecorder>>;

/// The slice of a trace handed down to the pipeline: where to record and
/// which span (the worker's `compute` span) to nest stage spans under.
/// Carried on the thread-local `PipelineScratch` exactly like the request
/// deadline, so request construction sites stay untouched.
#[derive(Clone)]
pub struct StageTrace {
    /// The request's shared recorder.
    pub recorder: SharedRecorder,
    /// Parent index for recorded stage spans.
    pub parent: Option<usize>,
}

impl fmt::Debug for StageTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StageTrace")
            .field("parent", &self.parent)
            .finish_non_exhaustive()
    }
}

impl StageTrace {
    /// Records a closed span (started at `started`, ending now) under the
    /// stage parent. Poisoned-lock errors are swallowed: tracing must never
    /// take down the pipeline.
    pub fn record(&self, name: &'static str, started: Instant) {
        if let Ok(mut recorder) = self.recorder.lock() {
            recorder.record(self.parent, name, started);
        }
    }
}

/// A completed request retained as an exemplar: identity, outcome, and the
/// span tree.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// The request's trace ID.
    pub id: TraceId,
    /// Billing tenant, when the request was admitted under one.
    pub tenant: Option<String>,
    /// HTTP status the request was answered with.
    pub status: u16,
    /// Wall-clock latency from head parse to last response byte flushed.
    pub latency: Duration,
    /// Completion time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// The recorded span tree.
    pub spans: Vec<Span>,
}

/// Bounded ring of recent [`TraceRecord`] exemplars. One short-held mutex
/// around a `VecDeque`: pushes are O(1) amortised and the lock covers a
/// few pointer moves, never allocation-heavy rendering (snapshots clone
/// out before any serialisation happens).
#[derive(Debug)]
pub struct TraceLog {
    capacity: usize,
    inner: Mutex<VecDeque<TraceRecord>>,
}

impl TraceLog {
    /// A ring retaining at most `capacity` exemplars (oldest evicted
    /// first). A zero capacity disables retention entirely.
    pub fn new(capacity: usize) -> TraceLog {
        TraceLog {
            capacity,
            inner: Mutex::new(VecDeque::with_capacity(capacity.min(64))),
        }
    }

    /// Retains `record`, evicting the oldest exemplar when full.
    pub fn push(&self, record: TraceRecord) {
        if self.capacity == 0 {
            return;
        }
        let mut ring = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// The retained exemplars, newest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let ring = match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        ring.iter().rev().cloned().collect()
    }

    /// How many exemplars are currently retained.
    pub fn len(&self) -> usize {
        match self.inner.lock() {
            Ok(guard) => guard.len(),
            Err(poisoned) => poisoned.into_inner().len(),
        }
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Milliseconds since the Unix epoch, for stamping completed records.
pub fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_round_trips_through_wire_form() {
        let id = TraceId::parse("00ff00ff00ff00ff00ff00ff00ff00ff").expect("valid id");
        assert_eq!(id.to_string(), "00ff00ff00ff00ff00ff00ff00ff00ff");
        let upper = TraceId::parse("ABCDEF0123456789ABCDEF0123456789").expect("uppercase ok");
        assert_eq!(upper.to_string(), "abcdef0123456789abcdef0123456789");
    }

    #[test]
    fn trace_id_rejects_malformed_forms() {
        for bad in [
            "",
            "abc",
            "00000000000000000000000000000000", // reserved all-zero
            "abcdef0123456789abcdef012345678",  // 31 chars
            "abcdef0123456789abcdef01234567890", // 33 chars
            "zzcdef0123456789abcdef0123456789", // non-hex
            "abcdef0123456789 abcdef012345678", // embedded space
            "abcdef0123456789abcdef012345678\u{e9}", // non-ascii
        ] {
            assert!(TraceId::parse(bad).is_none(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn minted_ids_are_distinct_and_valid() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert_ne!(a, b);
        assert_eq!(TraceId::parse(&a.to_string()), Some(a));
    }

    #[test]
    fn recorder_builds_a_parented_tree() {
        let epoch = Instant::now();
        let mut recorder = SpanRecorder::with_epoch(epoch);
        let queue = recorder.record(None, "queue_wait", epoch);
        let compute = recorder.open(None, "compute");
        recorder.record(Some(compute), "stage:seed", Instant::now());
        recorder.close(compute);
        let spans = recorder.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[queue].parent, None);
        assert_eq!(spans[2].name, "stage:seed");
        assert_eq!(spans[2].parent, Some(compute));
        assert!(spans[2].start >= spans[compute].start);
        let taken = recorder.take_spans();
        assert_eq!(taken.len(), 3);
        assert!(recorder.spans().is_empty());
    }

    #[test]
    fn trace_log_evicts_oldest_and_snapshots_newest_first() {
        let log = TraceLog::new(2);
        for status in [200u16, 429, 503] {
            log.push(TraceRecord {
                id: TraceId::mint(),
                tenant: None,
                status,
                latency: Duration::from_millis(1),
                unix_ms: 0,
                spans: Vec::new(),
            });
        }
        let snapshot = log.snapshot();
        assert_eq!(snapshot.len(), 2);
        assert_eq!(snapshot[0].status, 503);
        assert_eq!(snapshot[1].status, 429);
    }

    #[test]
    fn zero_capacity_trace_log_retains_nothing() {
        let log = TraceLog::new(0);
        log.push(TraceRecord {
            id: TraceId::mint(),
            tenant: None,
            status: 200,
            latency: Duration::ZERO,
            unix_ms: 0,
            spans: Vec::new(),
        });
        assert!(log.is_empty());
    }
}
