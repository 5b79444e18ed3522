//! Chrome trace-event / Perfetto JSON export.
//!
//! [`PerfettoTrace`] serializes one or more [`Trace`]s into the Chrome
//! trace-event JSON format (the `{"traceEvents": [...]}` envelope), which
//! `ui.perfetto.dev` and `chrome://tracing` load directly:
//!
//! * every rank becomes a **thread track** (`tid` = rank) inside the
//!   process (`pid`) the trace was pushed under — push several runs under
//!   different pids to compare layouts side by side;
//! * span events ([`EventKind::dur`] = `Some`) become `"X"` complete events
//!   with microsecond `ts`/`dur`;
//! * instants become `"i"` thread-scoped instant events;
//! * a derived `runs_inflight` counter track (`"C"` events) plots the
//!   number of speculative runs in the pipeline over time;
//! * [`push_bubbles`](PerfettoTrace::push_bubbles) adds one extra track per
//!   rank painting the analyzer's busy/blocked/idle intervals with their
//!   causes.
//!
//! [`validate_json`] checks an emitted document against the subset of the
//! schema the tools require — the envelope, required keys per phase, and
//! monotone per-track timestamps — using a self-contained JSON parser (no
//! external crates), and is what the CI trace-smoke step runs.

use crate::bubble::{BubbleReport, State};
use crate::buffer::Trace;
use crate::event::{Event, EventKind};

const SECONDS_TO_US: f64 = 1e6;

/// Escapes a string for inclusion in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an f64 for JSON (finite values only).
fn num(x: f64) -> String {
    debug_assert!(x.is_finite(), "trace timestamps must be finite");
    format!("{x:?}")
}

/// An in-progress Chrome trace-event document.
#[derive(Debug, Default)]
pub struct PerfettoTrace {
    /// Serialized JSON objects, one per trace event.
    events: Vec<String>,
}

impl PerfettoTrace {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    fn meta(&mut self, pid: u32, tid: u32, which: &str, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{which}\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        ));
    }

    /// Adds every event of `trace` under process `pid` named `process_name`,
    /// one thread track per rank, plus the derived in-flight-runs counter.
    pub fn push(&mut self, pid: u32, process_name: &str, trace: &Trace) {
        self.meta(pid, 0, "process_name", process_name);
        for rank in 0..trace.n_ranks() as u32 {
            self.meta(pid, rank, "thread_name", &format!("rank {rank}"));
        }
        // Per-track (per-rank) events sorted by *start* time so the
        // validator's monotone check holds.
        for rank in 0..trace.n_ranks() as u32 {
            let mut evs: Vec<&Event> = trace.events().iter().filter(|e| e.rank == rank).collect();
            evs.sort_by(|a, b| a.start().total_cmp(&b.start()));
            for e in evs {
                self.push_event(pid, rank, e);
            }
        }
        // Derived counter: speculative runs in flight over time.
        let mut inflight: i64 = 0;
        let mut open: Vec<u64> = Vec::new();
        for e in trace.events() {
            let delta = match e.kind {
                EventKind::RunInflight { run } => {
                    open.push(run);
                    1
                }
                EventKind::RunVerified { run, .. } | EventKind::RunInvalidated { run } => {
                    if let Some(i) = open.iter().position(|&r| r == run) {
                        open.swap_remove(i);
                        -1
                    } else {
                        0
                    }
                }
                _ => 0,
            };
            if delta != 0 {
                inflight += delta;
                self.events.push(format!(
                    "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":900,\"name\":\"runs_inflight\",\
                     \"ts\":{},\"args\":{{\"runs\":{inflight}}}}}",
                    num(e.ts * SECONDS_TO_US)
                ));
            }
        }
    }

    fn push_event(&mut self, pid: u32, tid: u32, e: &Event) {
        let name = e.kind.name();
        let args = match e.kind {
            EventKind::StageForward {
                run,
                layer_lo,
                layer_hi,
                batch,
                cohort,
                ..
            } => format!(
                "{{\"run\":{run},\"layers\":\"[{layer_lo},{layer_hi})\",\"batch\":{batch},\
                 \"cohort\":{cohort}}}"
            ),
            EventKind::DraftServe {
                request, n_nodes, ..
            } => format!("{{\"request\":{request},\"n_nodes\":{n_nodes}}}"),
            EventKind::RunSpawned {
                run,
                speculative,
                n_nodes,
                width,
                depth,
            } => format!(
                "{{\"run\":{run},\"speculative\":{speculative},\"n_nodes\":{n_nodes},\
                 \"width\":{width},\"depth\":{depth}}}"
            ),
            EventKind::RunInflight { run }
            | EventKind::RunInvalidated { run }
            | EventKind::RunRescued { run }
            | EventKind::RunSkipped { run } => format!("{{\"run\":{run}}}"),
            EventKind::RunVerified { run, accepted } => {
                format!("{{\"run\":{run},\"accepted\":{accepted}}}")
            }
            EventKind::SpecGate {
                open,
                estimate_permille,
            } => format!("{{\"open\":{open},\"estimate_permille\":{estimate_permille}}}"),
            EventKind::DraftRequested {
                request,
                context_len,
            } => format!("{{\"request\":{request},\"context_len\":{context_len}}}"),
            EventKind::DraftResponded { request, n_nodes } => {
                format!("{{\"request\":{request},\"n_nodes\":{n_nodes}}}")
            }
            EventKind::DraftCancelled { up_to } => format!("{{\"up_to\":{up_to}}}"),
            EventKind::DraftDropped { n } => format!("{{\"n\":{n}}}"),
            EventKind::BranchCommit { first, n_seqs }
            | EventKind::BranchRollback { first, n_seqs } => {
                format!("{{\"first\":{first},\"n_seqs\":{n_seqs}}}")
            }
            EventKind::WireSend {
                dst,
                tag,
                bytes,
                draft,
            } => format!("{{\"dst\":{dst},\"tag\":{tag},\"bytes\":{bytes},\"draft\":{draft}}}"),
            EventKind::WireRecv { src, tag, bytes } => {
                format!("{{\"src\":{src},\"tag\":{tag},\"bytes\":{bytes}}}")
            }
            _ => "{}".to_string(),
        };
        match e.kind.dur() {
            Some(dur) => self.events.push(format!(
                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{name}\",\
                 \"cat\":\"pipeinfer\",\"ts\":{},\"dur\":{},\"args\":{args}}}",
                num(e.start() * SECONDS_TO_US),
                num(dur.max(0.0) * SECONDS_TO_US)
            )),
            None => self.events.push(format!(
                "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{name}\",\
                 \"cat\":\"pipeinfer\",\"ts\":{},\"s\":\"t\",\"args\":{args}}}",
                num(e.ts * SECONDS_TO_US)
            )),
        }
    }

    /// Adds one extra track per rank (tid `1000 + rank`) painting the bubble
    /// analyzer's intervals, so busy/blocked/idle attribution is visible as
    /// colored blocks next to the raw events.
    pub fn push_bubbles(&mut self, pid: u32, report: &BubbleReport) {
        for t in &report.ranks {
            if t.end <= 0.0 {
                continue;
            }
            let tid = 1000 + t.rank;
            self.meta(pid, tid, "thread_name", &format!("rank {} bubbles", t.rank));
            for iv in &t.intervals {
                let name = match iv.state {
                    State::Busy => "busy".to_string(),
                    State::Blocked(c) => format!("blocked:{}", c.name()),
                    State::Idle(c) => format!("idle:{}", c.name()),
                };
                self.events.push(format!(
                    "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{}\",\
                     \"cat\":\"bubbles\",\"ts\":{},\"dur\":{},\"args\":{{}}}}",
                    escape(&name),
                    num(iv.t0 * SECONDS_TO_US),
                    num(iv.len().max(0.0) * SECONDS_TO_US)
                ));
            }
        }
    }

    /// Serializes the document.  The output loads directly in
    /// `ui.perfetto.dev` (Open trace file) or `chrome://tracing`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(e);
            if i + 1 != self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON parser + schema validator
// ---------------------------------------------------------------------------

/// A parsed JSON value (just enough for validation).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, val: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(val)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn parse(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing data"));
        }
        Ok(v)
    }
}

/// Validates a Chrome trace-event JSON document:
///
/// * parses as JSON with a top-level `traceEvents` array;
/// * every event is an object whose `ph` is one of `X`, `i`, `M`, `C`, with
///   string `name`, numeric `pid`/`tid`, numeric `ts` (except `M`), and a
///   non-negative numeric `dur` for `X` events;
/// * per `(pid, tid)` track, `ts` is monotone non-decreasing in document
///   order.
///
/// Returns `Ok(n_events)` or the first violation.
pub fn validate_json(doc: &str) -> Result<usize, String> {
    let root = Parser::new(doc).parse()?;
    let events = root.get("traceEvents").ok_or("missing traceEvents key")?;
    let Json::Arr(events) = events else {
        return Err("traceEvents is not an array".into());
    };
    let mut last_ts: Vec<((f64, f64), f64)> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let at = |msg: &str| format!("traceEvents[{i}]: {msg}");
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing string ph"))?;
        if !matches!(ph, "X" | "i" | "M" | "C") {
            return Err(at(&format!("unsupported ph {ph:?}")));
        }
        e.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing string name"))?;
        let pid = e
            .get("pid")
            .and_then(Json::as_num)
            .ok_or_else(|| at("missing numeric pid"))?;
        let tid = e
            .get("tid")
            .and_then(Json::as_num)
            .ok_or_else(|| at("missing numeric tid"))?;
        if ph == "M" {
            continue;
        }
        let ts = e
            .get("ts")
            .and_then(Json::as_num)
            .ok_or_else(|| at("missing numeric ts"))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(at("ts must be finite and non-negative"));
        }
        if ph == "X" {
            let dur = e
                .get("dur")
                .and_then(Json::as_num)
                .ok_or_else(|| at("X event missing numeric dur"))?;
            if !dur.is_finite() || dur < 0.0 {
                return Err(at("dur must be finite and non-negative"));
            }
        }
        let key = (pid, tid);
        match last_ts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, last)) => {
                if ts < *last {
                    return Err(at(&format!(
                        "ts {ts} goes backwards on track pid={pid} tid={tid} (last {last})"
                    )));
                }
                *last = ts;
            }
            None => last_ts.push((key, ts)),
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{ClockDomain, TraceBuffer};

    fn sample_trace() -> Trace {
        let mut head = TraceBuffer::new(0, 64);
        head.push(0.5, EventKind::Compute { dur: 0.5 });
        head.push(
            0.5,
            EventKind::RunSpawned {
                run: 0,
                speculative: true,
                n_nodes: 4,
                width: 2,
                depth: 3,
            },
        );
        head.push(0.5, EventKind::RunInflight { run: 0 });
        head.push(
            0.6,
            EventKind::WireSend {
                dst: 1,
                tag: 2,
                bytes: 2048,
                draft: false,
            },
        );
        head.push(
            1.5,
            EventKind::RunVerified {
                run: 0,
                accepted: 3,
            },
        );
        let mut worker = TraceBuffer::new(1, 64);
        worker.push(
            0.7,
            EventKind::WireRecv {
                src: 0,
                tag: 2,
                bytes: 2048,
            },
        );
        worker.push(
            1.2,
            EventKind::StageForward {
                run: 0,
                layer_lo: 0,
                layer_hi: 40,
                batch: 4,
                cohort: 1,
                dur: 0.5,
            },
        );
        worker.push(1.3, EventKind::RankFinished);
        Trace::assemble(vec![head, worker], ClockDomain::Virtual)
    }

    #[test]
    fn export_validates_and_carries_both_processes() {
        let trace = sample_trace();
        let mut doc = PerfettoTrace::new();
        doc.push(1, "head-hosted", &trace);
        doc.push(2, "dedicated", &trace);
        doc.push_bubbles(1, &BubbleReport::analyze(&trace));
        let json = doc.to_json();
        let n = validate_json(&json).expect("emitted trace must validate");
        assert!(n > 10);
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("head-hosted"));
        assert!(json.contains("stage_forward"));
        assert!(json.contains("runs_inflight"));
        assert!(json.contains("bubbles"));
    }

    #[test]
    fn validator_rejects_missing_keys_and_backwards_time() {
        assert!(validate_json("{}").is_err());
        assert!(validate_json("not json").is_err());
        let no_ph = r#"{"traceEvents":[{"pid":1,"tid":0,"name":"x","ts":1}]}"#;
        assert!(validate_json(no_ph).unwrap_err().contains("ph"));
        let bad_dur = r#"{"traceEvents":[
            {"ph":"X","pid":1,"tid":0,"name":"x","ts":1,"dur":-2}]}"#;
        assert!(validate_json(bad_dur).unwrap_err().contains("dur"));
        let backwards = r#"{"traceEvents":[
            {"ph":"i","pid":1,"tid":0,"name":"a","ts":5,"s":"t"},
            {"ph":"i","pid":1,"tid":0,"name":"b","ts":4,"s":"t"}]}"#;
        assert!(validate_json(backwards).unwrap_err().contains("backwards"));
        // Different tracks may interleave timestamps freely.
        let two_tracks = r#"{"traceEvents":[
            {"ph":"i","pid":1,"tid":0,"name":"a","ts":5,"s":"t"},
            {"ph":"i","pid":1,"tid":1,"name":"b","ts":4,"s":"t"}]}"#;
        assert_eq!(validate_json(two_tracks).unwrap(), 2);
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let doc = r#"{"traceEvents":[
            {"ph":"M","pid":3,"tid":7,"name":"thread_name",
             "args":{"name":"rank \"0\" → head\n"}}]}"#;
        assert_eq!(validate_json(doc).unwrap(), 1);
    }

    #[test]
    fn escape_round_trips_through_parser() {
        let nasty = "a\"b\\c\nd";
        let doc = format!(
            "{{\"traceEvents\":[{{\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"name\":\"{}\",\"args\":{{}}}}]}}",
            escape(nasty)
        );
        let parsed = Parser::new(&doc).parse().unwrap();
        let Json::Arr(events) = parsed.get("traceEvents").unwrap().clone() else {
            panic!("array expected");
        };
        assert_eq!(events[0].get("name").unwrap().as_str().unwrap(), nasty);
    }
}
