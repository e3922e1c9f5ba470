//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each crate,
//! never inside the crates themselves, so the untraced run executes the
//! same program code. Spans stay in memory and are written out as JSON
//! lines when the run ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run, in order of opening.
    pub id: u64,
    /// The span this one ran under (0 = the run itself).
    pub parent: u64,
    /// Layer boundary name, e.g. `train.epoch`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
struct Inner {
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

/// A cheap-to-clone handle to one run's span list; clones share it, so
/// an observer closure running on the training driver thread can record
/// into the same list as the main thread.
#[derive(Debug, Clone)]
pub struct Spans(Arc<Mutex<Inner>>);

impl Spans {
    pub fn new() -> Self {
        Spans(Arc::new(Mutex::new(Inner {
            origin: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        })))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.0.lock().expect("span recorder poisoned")
    }

    /// Records a span that ended now and lasted `length`, under `id` if
    /// it was reserved with [`Spans::open`].
    fn push(&self, id: Option<u64>, name: &'static str, parent: u64, length: Duration) {
        let mut inner = self.lock();
        let end_ns = inner.origin.elapsed().as_nanos() as u64;
        let id = id.unwrap_or_else(|| {
            inner.next_id += 1;
            inner.next_id - 1
        });
        inner.spans.push(Span {
            id,
            parent,
            name,
            start_ns: end_ns.saturating_sub(length.as_nanos() as u64),
            end_ns,
        });
    }

    /// Records a span that ended now and lasted `length`.
    pub fn record_ending_now(&self, name: &'static str, parent: u64, length: Duration) {
        self.push(None, name, parent, length);
    }

    /// Records a span from `start` to now.
    pub fn record_since(&self, name: &'static str, parent: u64, start: Instant) {
        self.push(None, name, parent, start.elapsed());
    }

    /// Reserves an id for a parent span whose children are recorded
    /// before it ends; end it with [`Spans::close`].
    pub fn open(&self) -> (u64, Instant) {
        let mut inner = self.lock();
        inner.next_id += 1;
        (inner.next_id - 1, Instant::now())
    }

    /// Ends a span reserved with [`Spans::open`].
    pub fn close(&self, (id, start): (u64, Instant), name: &'static str, parent: u64) {
        self.push(Some(id), name, parent, start.elapsed());
    }

    /// Every span named `name`, in the order they closed.
    pub fn named(&self, name: &str) -> Vec<Span> {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .cloned()
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let inner = self.lock();
        let mut out = String::new();
        for s in &inner.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
