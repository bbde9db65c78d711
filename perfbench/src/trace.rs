//! An in-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around each
//! call into a layer crate, so the program under test is unchanged. A
//! span keeps its name, start, end, parent and op id; nothing is written
//! until the run ends. When the recorder is off every call is a single
//! branch and records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u64,
}

/// The recorder. Op ids group the spans of one operation; setup
/// repetitions get op ids of their own.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// The id of the latest op.
    pub fn current_op(&self) -> u64 {
        self.op
    }

    /// Starts the next op: spans opened from now on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. Returns a handle for
    /// [`Tracer::close`]; `None` when tracing is off.
    pub fn open(&mut self, name: &'static str) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.stack.push(id);
        Some(id)
    }

    pub fn close(&mut self, handle: Option<u32>) {
        if let Some(id) = handle {
            let end = self.now_ns();
            self.spans[id as usize].end_ns = end;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let h = self.open(name);
        let r = f();
        self.close(h);
        r
    }

    /// Self time of every span, summed per `(name, op)`: the span's
    /// duration minus the part its children cover.
    pub fn self_ns(&self) -> BTreeMap<&'static str, BTreeMap<u64, u64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, BTreeMap<u64, u64>> = BTreeMap::new();
        for (s, &kids) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(kids);
            *out.entry(s.name).or_default().entry(s.op).or_default() += own;
        }
        out
    }

    /// Duration of the spans named `name`, children included, summed
    /// per op.
    pub fn total_ns(&self, name: &str) -> BTreeMap<u64, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.op).or_default() += s.end_ns - s.start_ns;
        }
        out
    }

    /// The recorded spans as tab-separated text, one per line:
    /// `id parent op name start_ns end_ns` (parent `-` for a root).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\top\tname\tstart_ns\tend_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_owned()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
