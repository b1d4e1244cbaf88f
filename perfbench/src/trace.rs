//! In-memory spans for the traced run.
//!
//! A span is a name, a start, an end and the span that caused it. The
//! benchmark opens spans around its own calls into each layer's public
//! functions; the program itself is not instrumented. Spans are kept in
//! memory and written out when the run ends. A disabled tracer records
//! nothing, so the same code path gives the untraced reference timing.
//!
//! The layer of a span is its name up to the first `.` (`store.get` is in
//! `store`). [`self_time_by_layer`] splits every instant of the root span
//! evenly among the innermost spans active at that instant, so per-layer
//! self times add up to the root's wall time even where trials run on
//! several threads at once.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a span within one tracer.
pub type SpanId = u32;

/// Parent of a top-level span.
pub const NO_PARENT: SpanId = u32::MAX;

/// Layers that carry spans, in reporting order; every span name starts
/// with one of these. GF kernels run inside `ec` spans, and the core
/// layer's share is measured as a difference of walls, not spanned.
pub const LAYERS: [&str; 6] = ["bench", "ec", "store", "sim", "analysis", "runner"];

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has been opened but not closed.
#[must_use]
pub struct Open {
    id: SpanId,
    parent: SpanId,
    start_ns: u64,
}

impl Open {
    /// The id children of this span pass as their parent.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&self, parent: SpanId) -> Open {
        if !self.enabled {
            return Open {
                id: NO_PARENT,
                parent,
                start_ns: 0,
            };
        }
        Open {
            // Relaxed: the counter only hands out unique ids.
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            start_ns: self.now_ns(),
        }
    }

    /// Close `open` under `name`, chosen at close time so a call can be
    /// classified by its outcome (a get that turned out degraded).
    pub fn close(&self, open: &Open, name: &'static str) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        self.spans.lock().expect("span buffer lock").push(span);
    }

    /// Run `f` inside a span named `name`; `f` receives the span's id.
    pub fn span<R>(&self, name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> R) -> R {
        let open = self.open(parent);
        let out = f(open.id());
        self.close(&open, name);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("span buffer lock");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Durations in nanoseconds of every span with this name.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

/// Total duration in seconds of every span with this name.
pub fn busy_s(spans: &[Span], name: &str) -> f64 {
    durations(spans, name).iter().sum::<u64>() as f64 * 1e-9
}

/// Self time per layer in seconds: each instant is shared evenly among the
/// innermost spans active at that instant. The shares sum to the time
/// covered by top-level spans.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    // `spans` is sorted by id and ids are dense, so an id is an index.
    let layer_idx = |s: &Span| {
        let layer = layer_of(s.name);
        LAYERS.iter().position(|l| *l == layer).unwrap_or(0)
    };
    // Ends sort before starts at the same instant; a child's id is larger
    // than its parent's, so parents open first and close last.
    let mut events: Vec<(u64, u8, i64, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        events.push((s.start_ns, 1, i64::from(s.id), i));
        events.push((s.end_ns, 0, -i64::from(s.id), i));
    }
    events.sort_unstable();
    let mut active = vec![false; spans.len()];
    let mut active_children = vec![0u32; spans.len()];
    let mut innermost = [0u64; LAYERS.len()];
    let mut acc = [0f64; LAYERS.len()];
    let mut prev = events.first().map_or(0, |e| e.0);
    let parent_index = |s: &Span| -> Option<usize> {
        let p = usize::try_from(s.parent).ok()?;
        (p < spans.len() && spans[p].id == s.parent).then_some(p)
    };
    for &(t, kind, _, i) in &events {
        let total: u64 = innermost.iter().sum();
        if total > 0 && t > prev {
            let dt = (t - prev) as f64 / total as f64;
            for (a, &n) in acc.iter_mut().zip(&innermost) {
                *a += dt * n as f64;
            }
        }
        prev = t;
        let s = &spans[i];
        let parent = parent_index(s).filter(|&p| active[p]);
        if kind == 1 {
            active[i] = true;
            innermost[layer_idx(s)] += 1;
            if let Some(p) = parent {
                if active_children[p] == 0 {
                    innermost[layer_idx(&spans[p])] -= 1;
                }
                active_children[p] += 1;
            }
        } else {
            active[i] = false;
            if active_children[i] == 0 {
                innermost[layer_idx(s)] -= 1;
            }
            if let Some(p) = parent {
                active_children[p] -= 1;
                if active_children[p] == 0 {
                    innermost[layer_idx(&spans[p])] += 1;
                }
            }
        }
    }
    LAYERS
        .iter()
        .zip(acc)
        .map(|(l, a)| (*l, a * 1e-9))
        .collect()
}

/// Write every span as one `id parent name start_ns end_ns` line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{} {parent} {} {} {}",
            s.id, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_partitions_the_root() {
        // root 0..100; a runner span 10..90 with two parallel sim trials.
        let spans = [
            span(0, NO_PARENT, "bench.root", 0, 100),
            span(1, 0, "runner.campaign", 10, 90),
            span(2, 1, "sim.trial", 20, 60),
            span(3, 1, "sim.trial", 30, 80),
        ];
        let by_layer = self_time_by_layer(&spans);
        let total: f64 = by_layer.values().sum();
        assert!((total - 100e-9).abs() < 1e-15);
        assert!((by_layer["bench"] - 20e-9).abs() < 1e-15);
        // 10..20 and 80..90 are runner-only.
        assert!((by_layer["runner"] - 20e-9).abs() < 1e-15);
        assert!((by_layer["sim"] - 60e-9).abs() < 1e-15);
    }
}
