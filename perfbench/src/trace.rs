//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer's public API can be wrapped in
//! [`span`]: the recorder notes name, start, end, parent span and op id.
//! Spans nest through a per-thread stack, so a span opened while another is
//! open on the same thread is its child; a layer's *self* time is its
//! duration minus the time its children cover.  Totals per span name are
//! folded in as spans close, and the first [`KEEP_SPANS`] spans of each
//! thread are kept for [`write_spans`] at the end of the run.
//!
//! Recording is off unless [`enable`] was called on the thread, so the
//! untraced run pays one thread-local flag test per wrapped call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Closed spans kept per thread for the span file; totals cover every span.
const KEEP_SPANS: usize = 100_000;

/// One closed span.  Ids are per-thread sequence numbers; `parent` is
/// `u64::MAX` for a top-level span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// What one thread recorded.
#[derive(Debug, Default)]
pub struct ThreadTrace {
    pub totals: BTreeMap<&'static str, Totals>,
    /// Time covered by top-level spans (no open parent on the thread).
    pub top_level_ns: u64,
    pub spans: Vec<Span>,
}

impl ThreadTrace {
    /// Adds `other`'s totals into `self` (kept spans stay with `other`).
    pub fn add_totals(&mut self, other: &ThreadTrace) {
        for (name, t) in &other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.calls += t.calls;
            mine.total_ns += t.total_ns;
            mine.self_ns += t.self_ns;
        }
        self.top_level_ns += other.top_level_ns;
    }

    /// Totals of `name` (zero if it never ran).
    pub fn get(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Mean self time per call of `name`, in nanoseconds (0 if never called).
    pub fn self_ns_per_call(&self, name: &str) -> f64 {
        let t = self.get(name);
        if t.calls == 0 {
            0.0
        } else {
            t.self_ns as f64 / t.calls as f64
        }
    }
}

struct Open {
    id: u64,
    name: &'static str,
    op: u64,
    start: Instant,
    child_ns: u64,
}

struct Recorder {
    epoch: Instant,
    next_id: u64,
    stack: Vec<Open>,
    out: ThreadTrace,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on the calling thread; `epoch` is the common time origin
/// of the span file.
pub fn enable(epoch: Instant) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch,
            next_id: 0,
            stack: Vec::new(),
            out: ThreadTrace::default(),
        })
    });
}

/// Stops recording on the calling thread and returns what it recorded.
pub fn take() -> ThreadTrace {
    RECORDER.with(|r| r.borrow_mut().take().map(|rec| rec.out).unwrap_or_default())
}

/// Runs `f` inside a span named `name` for operation `op`.
#[inline]
pub fn span<R>(name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
    let on = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else { return false };
        let id = rec.next_id;
        rec.next_id += 1;
        rec.stack.push(Open {
            id,
            name,
            op,
            start: Instant::now(),
            child_ns: 0,
        });
        true
    });
    let out = f();
    if on {
        let end = Instant::now();
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let rec = r.as_mut().expect("recorder disabled inside a span");
            let open = rec.stack.pop().expect("span stack underflow");
            let dur = end.duration_since(open.start).as_nanos() as u64;
            let parent = match rec.stack.last_mut() {
                Some(p) => {
                    p.child_ns += dur;
                    p.id
                }
                None => {
                    rec.out.top_level_ns += dur;
                    u64::MAX
                }
            };
            let t = rec.out.totals.entry(open.name).or_default();
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(open.child_ns);
            if rec.out.spans.len() < KEEP_SPANS {
                let start_ns = open.start.duration_since(rec.epoch).as_nanos() as u64;
                rec.out.spans.push(Span {
                    id: open.id,
                    parent,
                    name: open.name,
                    op: open.op,
                    start_ns,
                    end_ns: start_ns + dur,
                });
            }
        });
    }
    out
}

/// Writes kept spans as tab-separated `thread id parent name op start_ns
/// end_ns` lines.
pub fn write_spans(path: &std::path::Path, threads: &[(&str, ThreadTrace)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread\tid\tparent\tname\top\tstart_ns\tend_ns")?;
    for (thread, trace) in threads {
        for s in &trace.spans {
            let parent = if s.parent == u64::MAX {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{thread}\t{}\t{parent}\t{}\t{}\t{}\t{}",
                s.id, s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        enable(Instant::now());
        span("outer", 1, || {
            span("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        span("inner", 2, || {});
        let t = take();
        let (outer, inner) = (t.get("outer"), t.get("inner"));
        assert_eq!((outer.calls, inner.calls), (1, 2));
        // Spans close innermost first: the nested inner, outer, the second inner.
        let (nested, second) = (t.spans[0], t.spans[2]);
        let nested_ns = nested.end_ns - nested.start_ns;
        assert!(nested_ns >= 5_000_000);
        assert_eq!((nested.parent, t.spans[1].id), (t.spans[1].id, 0));
        assert_eq!(second.parent, u64::MAX);
        assert_eq!(outer.self_ns, outer.total_ns - nested_ns);
        let second_ns = second.end_ns - second.start_ns;
        assert_eq!(t.top_level_ns, outer.total_ns + second_ns);
    }

    #[test]
    fn disabled_records_nothing() {
        assert_eq!(span("x", 0, || 7), 7);
        assert!(take().totals.is_empty());
    }
}
