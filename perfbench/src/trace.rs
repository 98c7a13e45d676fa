//! Spans for the traced run.
//!
//! A span is one timed call from the benchmark into a layer of the program.
//! Spans live in per-thread memory (one buffer per thread, registered once,
//! so pool threads can exit without losing theirs) and are collected when
//! the workload ends. Nesting follows the calling thread's stack of open
//! spans; spans that cross threads (a request sent by one thread and
//! answered on another) are recorded whole with [`record`].

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are nanoseconds since [`start_clock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// Enclosing span on the same thread, `0` for a root.
    pub parent: u64,
    /// Request (episode, sample or served request) the span belongs to.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static LOCAL: Buffer = {
        let buffer = Buffer::default();
        BUFFERS.lock().expect("span registry lock").push(Arc::clone(&buffer));
        buffer
    };
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Starts the span clock; instants before this read as time zero.
pub fn start_clock() {
    EPOCH.get_or_init(Instant::now);
}

fn nanos(at: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(at.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

fn push(span: Span) {
    LOCAL.with(|buffer| buffer.lock().expect("span buffer lock").push(span));
}

/// Tags the spans this thread opens from now on with request `req`.
pub fn set_request(req: u64) {
    REQUEST.with(|r| r.set(req));
}

/// An open span; it closes when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start_ns: u64,
}

/// Opens a span named `name`, nested in this thread's innermost open span.
pub fn span(name: &'static str) -> Guard {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied().unwrap_or(0);
        open.push(id);
        parent
    });
    Guard {
        id,
        parent,
        req: REQUEST.with(Cell::get),
        name,
        start_ns: nanos(Instant::now()),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = nanos(Instant::now());
        OPEN.with(|open| open.borrow_mut().pop());
        push(Span {
            id: self.id,
            parent: self.parent,
            req: self.req,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: end_ns.max(self.start_ns),
        });
    }
}

/// Records a root span measured elsewhere (for intervals that start on one
/// thread and end on another).
pub fn record(name: &'static str, req: u64, start: Instant, end: Instant) {
    let start_ns = nanos(start);
    push(Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: 0,
        req,
        name,
        start_ns,
        end_ns: nanos(end).max(start_ns),
    });
}

/// Takes every span recorded so far, in opening order.
pub fn drain() -> Vec<Span> {
    let buffers = BUFFERS.lock().expect("span registry lock");
    let mut spans = Vec::new();
    for buffer in buffers.iter() {
        spans.append(&mut buffer.lock().expect("span buffer lock"));
    }
    spans.sort_unstable_by_key(|s| s.id);
    spans
}

/// Self time of each span: its duration minus the part of it that its
/// children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let position: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(&parent) = position.get(&span.parent) {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(cursor), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Work one layer did, summed over its spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layer {
    pub count: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
    /// Every span's duration, for percentiles.
    pub durations_ns: Vec<u64>,
}

/// Groups spans by name.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let layer = out.entry(span.name).or_default();
        layer.count += 1;
        layer.busy_ns += span.duration_ns();
        layer.self_ns += self_ns;
        layer.durations_ns.push(span.duration_ns());
    }
    out
}

/// Serialises the tests that drain the process-wide span buffers.
#[cfg(test)]
pub static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Writes `spans` as JSON lines after a `provenance` header line.
pub fn write_jsonl(path: &str, provenance: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"provenance\":{provenance}}}")?;
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.id,
            s.parent,
            s.req,
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = [
            at(1, 0, "agent.episode", 0, 100),
            at(2, 1, "rag.retrieve", 10, 30),
            at(3, 1, "llm.turn", 40, 70),
            // Overlaps its sibling and runs past the parent's end: only
            // the uncovered part inside the parent counts.
            at(4, 1, "llm.turn", 60, 120),
            at(5, 2, "inner", 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![20, 14, 30, 60, 6]);
        let by_name = layers(&spans);
        let turns = &by_name["llm.turn"];
        assert_eq!((turns.count, turns.busy_ns, turns.self_ns), (2, 90, 90));
        assert_eq!(by_name["agent.episode"].self_ns, 20);
    }

    #[test]
    fn guards_nest_on_their_thread() {
        let _drain = TEST_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let worker = std::thread::spawn(|| {
            set_request(7);
            let outer = span("test.outer");
            drop(span("test.inner"));
            drop(outer);
            let start = Instant::now();
            record("test.cross", 9, start, start);
        });
        worker.join().expect("tracing thread");
        let spans: Vec<Span> = drain()
            .into_iter()
            .filter(|s| s.name.starts_with("test."))
            .collect();
        let outer = spans
            .iter()
            .find(|s| s.name == "test.outer")
            .expect("outer span");
        let inner = spans
            .iter()
            .find(|s| s.name == "test.inner")
            .expect("inner span");
        let cross = spans
            .iter()
            .find(|s| s.name == "test.cross")
            .expect("cross span");
        assert_eq!(inner.parent, outer.id);
        assert_eq!((outer.parent, outer.req, inner.req), (0, 7, 7));
        assert_eq!((cross.parent, cross.req), (0, 9));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
