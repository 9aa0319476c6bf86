//! In-memory span recording around the calls the benchmark makes into
//! each layer.
//!
//! A span is a named interval with an operation id (one round or one
//! request) and a parent span. Spans stay in memory while the run
//! measures and are written out as JSON lines when it ends. A disabled
//! recorder runs the wrapped call and records nothing, so untraced
//! runs take no clock readings beyond their own.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// The operation (round or request) the span belongs to.
    pub op: u64,
    /// Unique id within the recorder.
    pub id: u64,
    /// The enclosing span, `None` for an operation's root.
    pub parent: Option<u64>,
    /// `layer.function`, e.g. `lab.run_campaign_on`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Collects spans for one thread of the benchmark.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    id_base: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder; `id_base` keeps ids of several recorders sharing an
    /// epoch (one per client thread) distinct.
    pub fn new(epoch: Instant, id_base: u64) -> Recorder {
        Recorder {
            enabled: false,
            epoch,
            next_id: 0,
            id_base,
            spans: Vec::new(),
        }
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether calls are currently recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; pair with [`Recorder::close`]. Returns `None`
    /// while disabled.
    pub fn open(&mut self, op: u64, parent: Option<u64>, name: &'static str) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let id = self.id_base + self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Some(id)
    }

    /// Closes a span opened by [`Recorder::open`].
    pub fn close(&mut self, id: Option<u64>) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            span.end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        op: u64,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(op, parent, name);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another recorder's spans into this one.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }
}

/// Sum of the durations of spans named `name` in operation `op`.
pub fn op_total(spans: &[Span], op: u64, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.op == op && s.name == name)
        .map(Span::secs)
        .sum()
}

/// The lowest share, over operations, of a root span's wall time that
/// its direct children cover, in percent; `0.0` without operations. A
/// root without children is a standalone call, not an operation.
pub fn min_coverage_pct(spans: &[Span]) -> f64 {
    let mut worst: Option<f64> = None;
    for root in spans.iter().filter(|s| s.parent.is_none()) {
        let children: Vec<&Span> = spans.iter().filter(|s| s.parent == Some(root.id)).collect();
        let covered: f64 = children.iter().map(|s| s.secs()).sum();
        let wall = root.secs();
        if !children.is_empty() && wall > 0.0 {
            let pct = 100.0 * covered / wall;
            worst = Some(worst.map_or(pct, |w: f64| w.min(pct)));
        }
    }
    worst.unwrap_or(0.0)
}

/// Writes spans as JSON lines (`op`, `id`, `parent`, `name`, start and
/// duration in microseconds).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3}}}",
            s.op,
            s.id,
            parent,
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(Instant::now(), 0);
        assert_eq!(rec.span(0, None, "a", || 5), 5);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn children_cover_their_root() {
        let mut rec = Recorder::new(Instant::now(), 0);
        rec.set_enabled(true);
        let root = rec.open(3, None, "op");
        rec.span(3, root, "child", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        rec.close(root);
        let cov = min_coverage_pct(rec.spans());
        assert!(cov > 50.0 && cov <= 100.0, "{cov}");
        assert!(op_total(rec.spans(), 3, "child") >= 0.005);
        assert_eq!(rec.spans()[1].parent, root);
    }
}
