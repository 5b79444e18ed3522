//! In-memory spans recorded by the benchmark's own code around the public
//! calls it makes, written out once when the traced pass ends.
//!
//! A span has a name, a start, an end, the span that caused it and — for
//! spans of one request — the request's identifier.  Spans measured by the
//! benchmark's wall clock carry `clock: "wall"`; spans derived from the
//! program's own per-request timeline carry the clock that timeline lives on
//! (`"driver"` for a cluster run, `"service"` for the step loop).

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Handle of an open or recorded span; `None` while recording is off.
pub type SpanId = Option<usize>;

struct Span {
    name: String,
    parent: SpanId,
    request: Option<u64>,
    clock: &'static str,
    start_us: f64,
    end_us: f64,
}

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a wall-clock span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &str, parent: SpanId, request: Option<u64>) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            request,
            clock: "wall",
            start_us,
            end_us: start_us,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_us = self.now_us();
        }
    }

    /// Runs `f` inside a wall-clock span.
    pub fn scoped<T>(
        &mut self,
        name: &str,
        parent: SpanId,
        f: impl FnOnce(&mut Self, SpanId) -> T,
    ) -> T {
        let id = self.open(name, parent, None);
        let out = f(self, id);
        self.close(id);
        out
    }

    /// Records a span whose bounds (seconds on `clock`) come from the
    /// program's own timeline of a request.
    pub fn derived(
        &mut self,
        name: &str,
        parent: SpanId,
        request: u64,
        clock: &'static str,
        start_s: f64,
        end_s: f64,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name: name.to_string(),
                parent,
                request: Some(request),
                clock,
                start_us: start_s * 1e6,
                end_us: end_s * 1e6,
            });
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut doc = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                doc,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {}, \"request\": {}, \"clock\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.name,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
                s.clock,
                s.start_us,
                s.end_us
            );
            doc.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        doc.push_str("]}\n");
        let mut file = std::fs::File::create(path)?;
        file.write_all(doc.as_bytes())?;
        file.flush()
    }
}
