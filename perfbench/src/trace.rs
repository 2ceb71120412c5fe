//! Spans recorded around the benchmark's calls into each engine layer.
//!
//! A span holds the layer, the batch it belongs to (spans of one batch
//! share the id), its start and end, and how many tuples or rows it
//! covered. Spans stay in memory and are written out when the round ends;
//! per-layer totals are kept for every span, the span list itself only up
//! to a cap.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const MAX_KEPT: usize = 200_000;

struct Span {
    layer: &'static str,
    batch: u64,
    start_ns: u64,
    end_ns: u64,
    items: u64,
}

#[derive(Default, Clone, Copy)]
pub struct LayerTotal {
    pub ns: f64,
    pub items: u64,
}

/// Span recorder; a disabled tracer records nothing and costs one branch.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    kept: Vec<Span>,
    totals: BTreeMap<&'static str, LayerTotal>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            kept: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span of `layer`; `f` returns its result and the
    /// number of items the span covered.
    pub fn span<R>(&mut self, layer: &'static str, batch: u64, f: impl FnOnce() -> (R, u64)) -> R {
        if !self.enabled {
            return f().0;
        }
        let start = Instant::now();
        let (r, items) = f();
        let end = Instant::now();
        self.record(layer, batch, start, end, items);
        r
    }

    pub fn record(
        &mut self,
        layer: &'static str,
        batch: u64,
        start: Instant,
        end: Instant,
        items: u64,
    ) {
        let busy = (end - start).as_nanos() as u64;
        self.record_busy(layer, batch, start, end, busy, items);
    }

    /// Like [`Tracer::record`], for a span whose layer was busy for only
    /// `busy_ns` of its interval (several timed calls in one burst).
    pub fn record_busy(
        &mut self,
        layer: &'static str,
        batch: u64,
        start: Instant,
        end: Instant,
        busy_ns: u64,
        items: u64,
    ) {
        if !self.enabled {
            return;
        }
        let t = self.totals.entry(layer).or_default();
        t.ns += busy_ns as f64;
        t.items += items;
        if self.kept.len() < MAX_KEPT {
            self.kept.push(Span {
                layer,
                batch,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: (end - self.origin).as_nanos() as u64,
                items,
            });
        }
    }

    pub fn total(&self, layer: &str) -> LayerTotal {
        self.totals.get(layer).copied().unwrap_or_default()
    }

    /// Mean ns per item of `layer` (0 when the layer recorded nothing).
    pub fn ns_per_item(&self, layer: &str) -> f64 {
        let t = self.total(layer);
        if t.items == 0 {
            0.0
        } else {
            t.ns / t.items as f64
        }
    }

    /// Write the kept spans as CSV (`layer,batch,start_ns,end_ns,items`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "layer,batch,start_ns,end_ns,items")?;
        for s in &self.kept {
            writeln!(
                out,
                "{},{},{},{},{}",
                s.layer, s.batch, s.start_ns, s.end_ns, s.items
            )?;
        }
        out.flush()
    }
}
