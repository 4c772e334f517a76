//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program (nothing inside the program is instrumented), kept in memory,
//! and written out once when the run ends. Each span has a name, start,
//! end, parent and a trace id shared by all spans of one code run or one
//! request.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::host::{cpu_ticks, least_stolen};

#[derive(Debug, Clone)]
pub struct Span {
    pub trace: u64,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    /// `None` while the span is open.
    pub end_ns: Option<u64>,
    /// The host's steal and total CPU ticks when the span opened, and
    /// the share of CPU time stolen while it was open once it closed.
    ticks: Option<(u64, u64)>,
    pub steal: f64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.map_or(0, |e| e.saturating_sub(self.start_ns))
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Index of a recorded span.
pub type SpanId = usize;

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span recorder poisoned by a panicking thread")
    }

    pub fn open(&self, name: &str, parent: Option<SpanId>, trace: u64) -> SpanId {
        // The steal counters are read outside the span's interval.
        let ticks = cpu_ticks();
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            trace,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns: None,
            ticks,
            steal: 0.0,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: SpanId) {
        let end = self.now_ns();
        let ticks = cpu_ticks();
        let mut spans = self.lock();
        let s = &mut spans[id];
        s.end_ns = Some(end);
        if let (Some((s0, t0)), Some((s1, t1))) = (s.ticks, ticks) {
            if t1 > t0 {
                s.steal = s1.saturating_sub(s0) as f64 / (t1 - t0) as f64;
            }
        }
    }

    /// Run `f` inside a span.
    pub fn scope<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        trace: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, trace);
        let out = f();
        self.close(id);
        out
    }

    pub fn duration_ms(&self, id: SpanId) -> f64 {
        self.lock()[id].duration_ns() as f64 / 1e6
    }

    /// Durations in milliseconds of every closed span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name && s.end_ns.is_some())
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// The steal share of every closed span called `name`, in the order
    /// of [`Tracer::durations_ms`].
    pub fn steals(&self, name: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name && s.end_ns.is_some())
            .map(|s| s.steal)
            .collect()
    }

    /// [`Tracer::durations_ms`] of the [`least_stolen`] spans called
    /// `name`, the ones a steal burst did not hit.
    pub fn least_stolen_ms(&self, name: &str) -> Vec<f64> {
        let spans: Vec<Span> =
            self.lock().iter().filter(|s| s.name == name && s.end_ns.is_some()).cloned().collect();
        least_stolen(&spans, |s| s.steal).iter().map(|s| s.duration_ns() as f64 / 1e6).collect()
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Write every span as one JSON line, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.snapshot();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"trace\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"steal\":{:.4}}}",
                s.trace,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start_ns,
                s.end_ns.map_or("null".to_string(), |e| e.to_string()),
                self_time_ns(&spans, id),
                s.steal
            )?;
        }
        out.flush()
    }
}

/// Where a traced call records its child spans: the recorder, the trace
/// id of the run or request, and the span the children belong to.
pub type TraceCtx<'a> = (&'a Tracer, u64, SpanId);

/// Run `f` in a child span when the call is traced, bare otherwise.
pub fn child<T>(ctx: Option<TraceCtx>, name: &str, f: impl FnOnce() -> T) -> T {
    match ctx {
        Some((tr, trace, parent)) => tr.scope(name, Some(parent), trace, f),
        None => f(),
    }
}

/// A span's duration minus the part of its interval that its child
/// spans cover (overlapping children are counted once).
pub fn self_time_ns(spans: &[Span], id: SpanId) -> u64 {
    let me = &spans[id];
    let Some(end) = me.end_ns else { return 0 };
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .filter_map(|s| Some((s.start_ns.max(me.start_ns), s.end_ns?.min(end))))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in kids {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            _ => {
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                cur = Some((a, b));
            }
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    me.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            trace: 1,
            parent,
            name: "s".into(),
            start_ns: start,
            end_ns: Some(end),
            ticks: None,
            steal: 0.0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 20, 40),  // overlaps the first child
            span(Some(0), 90, 120), // sticks out past the parent
            span(Some(1), 12, 14),  // grandchild: not the root's business
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 30 - 10);
        assert_eq!(self_time_ns(&spans, 1), 20 - 2);
        assert_eq!(self_time_ns(&spans, 4), 2);
    }

    #[test]
    fn recorder_keeps_parents_traces_and_durations() {
        let t = Tracer::new();
        let root = t.open("run", None, 7);
        t.scope("child", Some(root), 7, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.close(root);
        let spans = t.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.trace == 7));
        assert!(t.durations_ms("child")[0] >= 2.0);
        assert!(self_time_ns(&spans, 0) < spans[0].duration_ns());
    }
}
