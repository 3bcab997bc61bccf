//! Hand-rolled JSON export and a minimal parser.
//!
//! Export matches the `harness::bench` report style: a small, stable,
//! machine-readable document under `target/obs-json/OBS_<run>.json`. The
//! parser implements just enough of JSON to validate those documents and
//! to diff `BENCH_*.json` medians in the bench-regression comparator —
//! objects, arrays, strings (with the escapes our writer emits), numbers,
//! booleans and null.

use crate::report::Report;
use std::path::PathBuf;

// ----------------------------------------------------------------------
// Writing
// ----------------------------------------------------------------------

pub(crate) fn escape(s: &str) -> String {
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

/// Serialize a report to its canonical JSON document.
pub fn to_json(report: &Report, run: &str) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"run\": \"{}\",\n", escape(run)));
    s.push_str(&format!("  \"enabled\": {},\n", report.enabled));
    s.push_str(&format!(
        "  \"epoch_unix_nanos\": {},\n",
        report.epoch_unix_nanos
    ));

    s.push_str("  \"counters\": {");
    let counters: Vec<String> = report
        .counters
        .iter()
        .map(|(k, v)| format!("\"{}\": {}", escape(k), v))
        .collect();
    s.push_str(&counters.join(", "));
    s.push_str("},\n");

    s.push_str("  \"histograms\": {\n");
    let hists: Vec<String> = report
        .hists
        .iter()
        .map(|row| {
            let h = &row.hist;
            format!(
                "    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"p50\": {}, \
                 \"p90\": {}, \"p99\": {}, \"max\": {}, \"mean\": {:.1}}}",
                escape(&row.name),
                h.count(),
                h.sum(),
                h.min(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.max(),
                h.mean(),
            )
        })
        .collect();
    s.push_str(&hists.join(",\n"));
    s.push_str("\n  },\n");

    s.push_str("  \"spans\": {\n");
    let spans: Vec<String> = report
        .span_stats
        .iter()
        .map(|(name, st)| {
            format!(
                "    \"{}\": {{\"count\": {}, \"total_ns\": {}, \"mean_ns\": {:.1}, \
                 \"max_ns\": {}}}",
                escape(name),
                st.count,
                st.total_ns,
                st.mean_ns(),
                st.max_ns,
            )
        })
        .collect();
    s.push_str(&spans.join(",\n"));
    s.push_str("\n  },\n");

    s.push_str("  \"events\": [\n");
    let events: Vec<String> = report
        .events
        .iter()
        .map(|e| {
            format!(
                "    {{\"name\": \"{}\", \"at_ns\": {}, \"value\": {}}}",
                escape(e.name),
                e.at_ns,
                e.value
            )
        })
        .collect();
    s.push_str(&events.join(",\n"));
    s.push_str("\n  ],\n");
    s.push_str(&format!("  \"spans_dropped\": {},\n", report.spans_dropped));
    s.push_str(&format!("  \"spans_flushed\": {},\n", report.spans_flushed));
    s.push_str(&format!(
        "  \"events_dropped\": {},\n",
        report.events_dropped
    ));
    // A truncated document's raw span/event lists are incomplete (the
    // aggregates above are not); consumers must not treat them as total.
    s.push_str(&format!(
        "  \"truncated\": {}\n",
        report.spans_dropped > 0 || report.events_dropped > 0
    ));
    s.push_str("}\n");
    s
}

/// Serialize one chunk of raw spans for a streaming span sink: a single
/// self-contained JSON line (trailing `\n`) so a plain append-mode file
/// sink yields newline-delimited JSON that [`parse`] can read back line
/// by line. Each chunk's header repeats the recorder's wall-clock epoch
/// (`epoch_unix_nanos`), so any surviving rotated file is time-alignable
/// on its own.
pub fn span_chunk_json(seq: u64, epoch_unix_nanos: u64, spans: &[crate::SpanRecord]) -> String {
    let mut s = String::with_capacity(96 + spans.len() * 128);
    s.push_str(&format!(
        "{{\"chunk\": {seq}, \"epoch_unix_nanos\": {epoch_unix_nanos}, \"spans\": ["
    ));
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "{{\"name\": \"{}\", \"thread\": {}, \"depth\": {}, \
             \"start_ns\": {}, \"dur_ns\": {}, \"note\": {}, \
             \"span_id\": {}, \"parent\": {}, \"trace\": {}}}",
            escape(sp.name),
            sp.thread,
            sp.depth,
            sp.start_ns,
            sp.dur_ns,
            sp.note,
            sp.span_id,
            sp.parent,
            sp.trace
        ));
    }
    s.push_str("]}\n");
    s
}

/// Default output directory: `$OBS_JSON_DIR`, else
/// `$CARGO_TARGET_DIR/obs-json`, else `<workspace root>/target/obs-json`
/// (found by walking up to the outermost `Cargo.toml`, mirroring
/// `harness::bench`).
pub fn default_dir() -> PathBuf {
    if let Ok(d) = std::env::var("OBS_JSON_DIR") {
        return PathBuf::from(d);
    }
    if let Ok(t) = std::env::var("CARGO_TARGET_DIR") {
        return PathBuf::from(t).join("obs-json");
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = cwd
        .ancestors()
        .filter(|a| a.join("Cargo.toml").exists())
        .last()
        .unwrap_or(&cwd)
        .to_path_buf();
    root.join("target").join("obs-json")
}

/// Write `OBS_<run>.json` into `dir`, returning the path written.
pub fn export_to(report: &Report, run: &str, dir: &std::path::Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("OBS_{run}.json"));
    std::fs::write(&path, to_json(report, run))?;
    Ok(path)
}

/// Write `OBS_<run>.json` into [`default_dir`], returning the path.
pub fn export(report: &Report, run: &str) -> std::io::Result<PathBuf> {
    export_to(report, run, &default_dir())
}

// ----------------------------------------------------------------------
// Parsing
// ----------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts; deeper documents
/// are rejected instead of exhausting the stack.
pub const MAX_DEPTH: usize = 256;

/// Parse a JSON document. Returns `None` on any syntax error, trailing
/// garbage, or nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Option<Value> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos == p.bytes.len() {
        Some(v)
    } else {
        None
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn lit(&mut self, s: &str) -> Option<()> {
        if self.bytes[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            Some(())
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Value> {
        self.skip_ws();
        match self.peek()? {
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => self.string().map(Value::Str),
            b't' => self.lit("true").map(|_| Value::Bool(true)),
            b'f' => self.lit("false").map(|_| Value::Bool(false)),
            b'n' => self.lit("null").map(|_| Value::Null),
            _ => self.number(),
        }
    }

    /// Parse one object or array, refusing nesting past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Option<Value>) -> Option<Value> {
        if self.depth == MAX_DEPTH {
            return None;
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Option<Value> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Some(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Some(Value::Obj(fields));
                }
                _ => return None,
            }
        }
    }

    fn array(&mut self) -> Option<Value> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Some(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Some(Value::Arr(items));
                }
                _ => return None,
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.text.get(self.pos + 1..self.pos + 5)?;
                            // `from_str_radix` alone would accept a sign.
                            if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                                return None;
                            }
                            let code = u32::from_str_radix(hex, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                _ => {
                    // Copy the run of plain bytes up to the next quote or
                    // backslash in one slice. Both are ASCII, which never
                    // occurs inside a multi-byte UTF-8 sequence, so the
                    // run ends on a char boundary.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')?;
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Option<Value> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        if start == self.pos {
            return None;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse::<f64>()
            .ok()
            .map(Value::Num)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn sample_report() -> Report {
        let rec = Recorder::enabled();
        {
            let mut s = rec.span("router.route");
            s.note(2);
        }
        rec.counter("router.pips_set").add(4);
        rec.histogram("maze.search_ns").record(12_345);
        rec.event("pathfinder.overused", 9);
        rec.report()
    }

    #[test]
    fn export_round_trips_through_the_parser() {
        let rep = sample_report();
        let text = to_json(&rep, "unit \"test\"");
        let doc = parse(&text).expect("valid JSON");
        assert_eq!(doc.get("run").unwrap().as_str(), Some("unit \"test\""));
        assert_eq!(doc.get("enabled"), Some(&Value::Bool(true)));
        // Wall-clock epoch in the header (parsed as f64, so only its
        // presence and sign are checked exactly).
        assert!(doc.get("epoch_unix_nanos").unwrap().as_f64().unwrap() > 0.0);
        let counters = doc.get("counters").unwrap();
        assert_eq!(counters.get("router.pips_set").unwrap().as_f64(), Some(4.0));
        let hist = doc
            .get("histograms")
            .unwrap()
            .get("maze.search_ns")
            .unwrap();
        assert_eq!(hist.get("count").unwrap().as_f64(), Some(1.0));
        assert_eq!(hist.get("max").unwrap().as_f64(), Some(12_345.0));
        let span = doc.get("spans").unwrap().get("router.route").unwrap();
        assert_eq!(span.get("count").unwrap().as_f64(), Some(1.0));
        let events = doc.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("value").unwrap().as_f64(), Some(9.0));
        assert_eq!(doc.get("truncated"), Some(&Value::Bool(false)));
    }

    #[test]
    fn shed_spans_flag_the_export_as_truncated() {
        let rec = Recorder::enabled();
        for _ in 0..(crate::MAX_SPANS + 3) {
            rec.span("tick");
        }
        let rep = rec.report();
        let doc = parse(&to_json(&rep, "cap")).expect("valid JSON");
        assert_eq!(doc.get("truncated"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("spans_dropped").unwrap().as_f64(), Some(3.0));
        let counters = doc.get("counters").unwrap();
        assert_eq!(counters.get("obs.spans_shed").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn export_to_writes_the_named_file() {
        let dir = std::env::temp_dir().join("jroute-obs-json-test");
        let path = export_to(&sample_report(), "smoke", &dir).unwrap();
        assert!(path.ends_with("OBS_smoke.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(parse(&body).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parser_handles_the_bench_report_shape() {
        let text = r#"{
  "bench": "e1_census",
  "results": [
    {"id": "e1/a", "samples": 3, "iters_per_sample": 10,
     "ns_per_iter": {"min": 1.5, "median": 2.0, "mean": 2.1, "max": 3.0}}
  ]
}"#;
        let doc = parse(text).unwrap();
        let results = doc.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 1);
        let med = results[0]
            .get("ns_per_iter")
            .unwrap()
            .get("median")
            .unwrap()
            .as_f64()
            .unwrap();
        assert_eq!(med, 2.0);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_none());
        assert!(parse("{").is_none());
        assert!(parse("{}x").is_none());
        assert!(parse("{\"a\": }").is_none());
        assert!(parse("[1, 2,]").is_none());
        assert!(parse("nul").is_none());
    }

    #[test]
    fn parser_reads_multi_megabyte_documents_in_linear_time() {
        // A ~4.5 MB span chunk: a string scan that rescans the rest of
        // the input per character would take minutes here.
        let spans: Vec<crate::SpanRecord> = (0..40_000u64)
            .map(|i| crate::SpanRecord {
                name: "maze.search",
                thread: i % 4,
                depth: 2,
                start_ns: i * 1_000,
                dur_ns: 750,
                note: i,
                span_id: i + 1,
                parent: i / 2,
                trace: 1 + i / 100,
            })
            .collect();
        let text = span_chunk_json(0, 1, &spans);
        assert!(text.len() >= 4 << 20, "document is {} bytes", text.len());
        let doc = parse(&text).expect("chunk parses");
        let parsed = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(parsed.len(), spans.len());
        assert_eq!(
            parsed[39_999].get("name").unwrap().as_str(),
            Some("maze.search")
        );
    }

    #[test]
    fn parser_keeps_multi_byte_text_around_escapes() {
        let doc = parse(r#"["µs → \"x\"\u00e9 ok", "日本"]"#).unwrap();
        let items = doc.as_arr().unwrap();
        assert_eq!(items[0].as_str(), Some("µs → \"x\"é ok"));
        assert_eq!(items[1].as_str(), Some("日本"));
        let round = escape("tab\t µs \"q\" \\");
        assert_eq!(
            parse(&format!("\"{round}\"")).unwrap().as_str(),
            Some("tab\t µs \"q\" \\")
        );
    }

    #[test]
    fn parser_caps_nesting_depth() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_some());
        assert!(parse(&nest(MAX_DEPTH + 1)).is_none());
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).is_none());
        // Deep enough to overflow the stack without the cap.
        assert!(parse(&"[".repeat(1_000_000)).is_none());
    }

    #[test]
    fn parser_rejects_signed_unicode_escapes() {
        assert_eq!(parse(r#""\u0041""#), Some(Value::Str("A".into())));
        assert!(parse(r#""\u+041""#).is_none());
        assert!(parse(r#""\u-041""#).is_none());
        assert!(parse(r#""\u00g1""#).is_none());
        assert!(parse(r#""\u004"#).is_none());
    }

    #[test]
    fn parser_accepts_scalars_and_nesting() {
        assert_eq!(parse("null"), Some(Value::Null));
        assert_eq!(parse(" -12.5e2 "), Some(Value::Num(-1250.0)));
        assert_eq!(
            parse(r#"{"a": [1, {"b": "A\n"}]}"#)
                .unwrap()
                .get("a")
                .unwrap()
                .as_arr()
                .unwrap()[1]
                .get("b")
                .unwrap()
                .as_str(),
            Some("A\n")
        );
    }
}
