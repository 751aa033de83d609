//! Spans recorded from the benchmark's side of each call into a layer.
//! They are kept in memory and written out when the run ends, with the
//! self time of every layer (a span's duration minus the part its child
//! spans cover).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NONE: u32 = u32::MAX;

struct Span {
    name: &'static str,
    parent: u32,
    /// The root span of the request this span belongs to.
    request: u32,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder.  When off, `begin`/`end` do nothing.
pub struct Tracer {
    pub on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Per-name totals over the recorded spans.
#[derive(Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
}

impl SpanTotals {
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        let request = if parent == NONE {
            id
        } else {
            self.spans[parent as usize].request
        };
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("end matches a begin");
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    pub fn totals(&self, name: &str) -> SpanTotals {
        let mut t = SpanTotals::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
        }
        t
    }

    /// Self time per layer (the span name up to its first `.`).
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *by_layer.entry(layer).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(child);
        }
        by_layer
    }

    /// Write every span (one JSON object a line) and a closing summary
    /// line with the self time per layer and the per-layer metrics.
    pub fn write(&self, path: &std::path::Path, summary: &[(String, f64)]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        let layers: Vec<String> = self
            .self_time_by_layer()
            .iter()
            .map(|(layer, ns)| format!("\"{layer}\":{:.3}", *ns as f64 / 1e6))
            .collect();
        let metrics: Vec<String> = summary
            .iter()
            .map(|(name, value)| format!("\"{name}\":{value}"))
            .collect();
        writeln!(
            out,
            "{{\"self_ms_by_layer\":{{{}}},\"per_layer\":{{{}}}}}",
            layers.join(","),
            metrics.join(",")
        )?;
        out.flush()
    }
}
