//! Spans, simulated-cost counts and allocation counts, recorded from the
//! benchmark's own files around calls into each crate.
//!
//! A span is named after the per-layer metric it feeds (`core.build_mst_s`),
//! and its layer is the crate before the first dot. The benchmark's own glue
//! is the `perfbench` layer: the two root spans of every repetition,
//! `perfbench.setup` and `perfbench.op`. Spans stay in memory and are written
//! out as JSONL when the run ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use kkt_congest::{CostReport, PhaseLedger};

/// Counts every heap acquisition of the process and the bytes it asked for;
/// the work itself is delegated to the system allocator.
pub struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only publish statistics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `layout` are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }
}

fn alloc_totals() -> (u64, u64) {
    (ALLOC_CALLS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed))
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub rep: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Heap acquisitions and bytes requested inside the span.
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// The crate the span belongs to: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans (when the repetition is traced) and simulated-cost counts
/// (always: they are the determinism anchor every repetition is checked on).
pub struct Tracer {
    origin: Instant,
    rep: u32,
    traced: bool,
    stack: Vec<usize>,
    spans: Vec<Span>,
    counts: BTreeMap<String, u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            rep: 0,
            traced: false,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Starts repetition `rep`; spans are recorded only if `traced`.
    pub fn begin_rep(&mut self, rep: u32, traced: bool) {
        self.rep = rep;
        self.traced = traced;
        self.counts.clear();
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; pair with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.traced {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            rep: self.rep,
            parent: self.stack.last().copied(),
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.stack.push(id);
        // Read the counters only after the bookkeeping above, which may
        // itself allocate.
        let (allocs, alloc_bytes) = alloc_totals();
        let start_ns = self.now_ns();
        let span = &mut self.spans[id];
        (span.allocs, span.alloc_bytes, span.start_ns) = (allocs, alloc_bytes, start_ns);
        Some(id)
    }

    pub fn exit(&mut self, token: Option<usize>) {
        let Some(id) = token else { return };
        let end_ns = self.now_ns();
        let (allocs, alloc_bytes) = alloc_totals();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.allocs = allocs - span.allocs;
        span.alloc_bytes = alloc_bytes - span.alloc_bytes;
        // Spans a panic left open stay unclosed (`end_ns` 0).
        while self.stack.pop().is_some_and(|top| top != id) {}
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let token = self.enter(name);
        let out = f();
        self.exit(token);
        out
    }

    /// Adds `value` to the exact count `name` of this repetition.
    pub fn count(&mut self, name: String, value: u64) {
        *self.counts.entry(name).or_insert(0) += value;
    }

    /// Charges one core call's simulated cost: to the repetition's totals
    /// (`sim.*`), to congest (`congest.<call>.msgs`) and to each protocol
    /// phase that carried messages (`obs.<call>.<phase>.msgs`).
    pub fn charge(&mut self, call: &str, cost: CostReport, phases: PhaseLedger) {
        self.count("sim.messages".into(), cost.messages);
        self.count("sim.bits".into(), cost.bits);
        self.count("sim.rounds".into(), cost.time);
        self.count(format!("congest.{call}.msgs"), cost.messages);
        for (phase, share) in phases.entries() {
            if share.messages > 0 {
                self.count(format!("obs.{call}.{}.msgs", phase.label()), share.messages);
            }
        }
    }

    /// The exact counts of the current repetition.
    pub fn counts(&self) -> &BTreeMap<String, u64> {
        &self.counts
    }

    /// The spans of repetition `rep`.
    pub fn spans_of(&self, rep: u32) -> impl Iterator<Item = (usize, &Span)> + '_ {
        self.spans.iter().enumerate().filter(move |(_, s)| s.rep == rep)
    }

    /// Every span as one JSON object per line.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"rep\":{},\"parent\":{parent},\"start_ns\":{},\
                 \"end_ns\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
                s.name, s.rep, s.start_ns, s.end_ns, s.allocs, s.alloc_bytes
            );
        }
        out
    }
}
