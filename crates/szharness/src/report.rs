//! Plain-text table rendering and JSONL trace emission for experiment
//! output.
//!
//! [`TraceSink`] captures the raw observations behind every table and
//! figure: one JSON object per line, either a `run` record (one
//! benchmark execution with its hardware counters and
//! per-randomization-period snapshots) or a `summary` record (one
//! experiment-level result). The JSON is hand-rolled — the tier-1
//! build resolves offline with an empty registry cache, so no serde.

use std::fmt;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use sz_machine::PerfCounters;
use sz_vm::RunReport;

/// Renders an aligned text table with a header row and a separator.
///
/// # Examples
///
/// ```
/// use sz_harness::report::render_table;
///
/// let t = render_table(
///     &["benchmark", "p"],
///     &[vec!["mcf".to_string(), "0.42".to_string()]],
/// );
/// assert!(t.contains("benchmark"));
/// assert!(t.contains("mcf"));
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (i, h) in headers.iter().enumerate() {
        line.push_str(&format!("{:<width$}  ", h, width = widths[i]));
    }
    out.push_str(line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate().take(cols) {
            line.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Formats a p-value the way the paper's Table 1 does (three decimal
/// places, with very small values pinned to "<0.001").
pub fn fmt_p(p: f64) -> String {
    if p < 0.001 {
        "<0.001".to_string()
    } else {
        format!("{p:.3}")
    }
}

/// Marks a p-value that rejects the null at α = 0.05 with an asterisk
/// (boldface in the paper).
pub fn fmt_p_marked(p: f64) -> String {
    let s = fmt_p(p);
    if p < 0.05 {
        format!("{s}*")
    } else {
        s
    }
}

/// Flattens a [`sz_stats::VerdictReport`] into the flat wire fields
/// shared by the service summaries, `szctl`'s renderer, and the CI
/// gate: the four-way verdict plus everything needed to audit it
/// (both CI bounds, the band, n per arm, and the bootstrap seed and
/// resample count that make the numbers reproducible).
pub fn verdict_json(r: &sz_stats::VerdictReport) -> Json {
    Json::obj([
        ("verdict", r.verdict.as_str().into()),
        ("effect_ratio", r.effect.ratio.into()),
        ("effect_lo", r.effect.lo.into()),
        ("effect_hi", r.effect.hi.into()),
        ("confidence", r.effect.confidence.into()),
        ("resamples", r.effect.resamples.into()),
        ("boot_seed", r.effect.seed.into()),
        ("band", r.band.into()),
        ("welch_lo", r.welch.lo.into()),
        ("welch_hi", r.welch.hi.into()),
        ("n_a", r.n_a.into()),
        ("n_b", r.n_b.into()),
    ])
}

/// One-line human rendering of a [`sz_stats::VerdictReport`].
pub fn fmt_verdict(r: &sz_stats::VerdictReport) -> String {
    format!(
        "{} (ratio {:.4} in [{:.4}, {:.4}] @{:.0}%, band ±{:.0}%, n {}+{})",
        r.verdict,
        r.effect.ratio,
        r.effect.lo,
        r.effect.hi,
        100.0 * r.effect.confidence,
        100.0 * r.band,
        r.n_a,
        r.n_b,
    )
}

/// A JSON value, sufficient for trace records.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also used for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (counters, indices, seeds).
    U64(u64),
    /// A floating-point number; non-finite values serialize as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Parses one JSON value from `input` (the whole string must be
    /// consumed, modulo surrounding whitespace). Non-negative integers
    /// without a fraction or exponent become [`Json::U64`]; every other
    /// number becomes [`Json::F64`], so values produced by
    /// [`Json`]'s `Display` round-trip exactly.
    ///
    /// Parsing is linear in the input length, and arrays and objects
    /// may nest at most [`MAX_JSON_DEPTH`] levels deep, so a hostile
    /// wire line can neither stall a caller nor overflow its stack.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] with the byte offset of the first
    /// malformed construct, or of the first container nested deeper
    /// than [`MAX_JSON_DEPTH`].
    pub fn parse(input: &str) -> Result<Json, JsonParseError> {
        let mut p = JsonParser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer ([`Json::U64`], or an
    /// [`Json::F64`] that is exactly a non-negative integer).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as a float (accepts both number shapes).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. Every record
/// this workspace writes nests fewer than 8 levels; the cap bounds the
/// parser's recursion, and so its stack use, on untrusted input.
pub const MAX_JSON_DEPTH: usize = 64;

/// Error from [`Json::parse`]: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the malformed construct.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

struct JsonParser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> JsonParser<'a> {
    fn error(&self, message: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8, what: &str) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(what))
        }
    }

    fn eat_keyword(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_JSON_DEPTH {
                    return Err(self.error("nesting deeper than MAX_JSON_DEPTH"));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.eat_keyword("true", Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Json::Bool(false)),
            Some(b'n') => self.eat_keyword("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.eat(b'{', "expected '{'")?;
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
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let first = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: a \uXXXX low surrogate must follow.
                                self.eat(b'\\', "expected low surrogate")?;
                                self.eat(b'u', "expected low surrogate")?;
                                let second = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                            } else {
                                first
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.error("invalid escape character")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.error("control character in string")),
                Some(_) => {
                    // Copy the whole run up to the next quote, backslash or
                    // control byte. Those are ASCII, so they never fall
                    // inside a multi-byte UTF-8 scalar and the slice ends on
                    // a char boundary.
                    let start = self.pos;
                    while self
                        .peek()
                        .is_some_and(|c| c != b'"' && c != b'\\' && c >= 0x20)
                    {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !fractional && !text.starts_with('-') {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) => Ok(Json::F64(v)),
            Err(_) => Err(JsonParseError {
                offset: start,
                message: format!("invalid number {text:?}"),
            }),
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(u64::from(v))
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(v) => write!(f, "{v}"),
            Json::F64(v) if v.is_finite() => write!(f, "{v}"),
            Json::F64(_) => f.write_str("null"),
            Json::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        '\r' => f.write_str("\\r")?,
                        '\t' => f.write_str("\\t")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => f.write_fmt(format_args!("{c}"))?,
                    }
                }
                f.write_str("\"")
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", Json::Str(k.clone()))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Serializes one [`PerfCounters`] as a JSON object.
fn counters_json(c: &PerfCounters) -> Json {
    Json::obj([
        ("instructions", c.instructions.into()),
        ("cycles", c.cycles.into()),
        ("l1i_misses", c.l1i_misses.into()),
        ("l1d_misses", c.l1d_misses.into()),
        ("l2_misses", c.l2_misses.into()),
        ("l3_misses", c.l3_misses.into()),
        ("itlb_misses", c.itlb_misses.into()),
        ("dtlb_misses", c.dtlb_misses.into()),
        ("branches", c.branches.into()),
        ("branch_mispredicts", c.branch_mispredicts.into()),
    ])
}

/// A thread-safe JSONL trace writer shared by every experiment.
///
/// Records are written one JSON object per line. Two record shapes
/// exist (distinguished by the `"type"` field):
///
/// - `run`: one benchmark execution — experiment, benchmark, variant
///   (configuration label), run index, engine, seconds, cumulative
///   counters, and the per-randomization-period counter deltas;
/// - `summary`: one experiment-level result with free-form fields.
pub struct TraceSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TraceSink")
    }
}

/// In-memory buffer target for [`TraceSink::in_memory`].
#[derive(Clone, Default)]
pub struct TraceBuffer(Arc<Mutex<Vec<u8>>>);

impl TraceBuffer {
    /// The captured trace as a UTF-8 string.
    pub fn contents(&self) -> String {
        String::from_utf8(self.0.lock().expect("trace buffer lock").clone())
            .expect("traces are UTF-8")
    }

    /// Parsed (well, split) JSONL lines.
    pub fn lines(&self) -> Vec<String> {
        self.contents().lines().map(str::to_string).collect()
    }
}

impl Write for TraceBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer lock")
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Version stamped as a `{"schema":N}` header at the top of
/// file-backed traces. Bump when a record shape changes
/// incompatibly; parsers must keep accepting headerless (pre-stamp)
/// streams as version 0.
pub const TRACE_SCHEMA: u64 = 1;

impl TraceSink {
    /// Wraps any writer.
    pub fn to_writer(out: Box<dyn Write + Send>) -> TraceSink {
        TraceSink {
            out: Mutex::new(out),
        }
    }

    /// Creates (truncating) a JSONL trace file, stamped with a
    /// leading `{"schema":N}` header line. Streaming sinks
    /// ([`TraceSink::in_memory`] and [`TraceSink::to_writer`]) stay
    /// headerless: sz-serve relays their records in `run` replies,
    /// and wire clients read `run`/`summary` records until the first
    /// line of any other type, which they take as the terminal reply,
    /// so a header line would end the reply early.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-creation error.
    pub fn create(path: impl AsRef<std::path::Path>) -> io::Result<TraceSink> {
        let sink = TraceSink::to_writer(Box::new(io::BufWriter::new(std::fs::File::create(path)?)));
        sink.record(&Json::obj([("schema", TRACE_SCHEMA.into())]));
        Ok(sink)
    }

    /// An in-memory sink plus a handle to read back what was written.
    pub fn in_memory() -> (TraceSink, TraceBuffer) {
        let buffer = TraceBuffer::default();
        (TraceSink::to_writer(Box::new(buffer.clone())), buffer)
    }

    /// Writes one record (a single line).
    pub fn record(&self, value: &Json) {
        let mut out = self.out.lock().expect("trace sink lock");
        writeln!(out, "{value}").expect("trace writes succeed");
    }

    /// Emits a `run` record for one benchmark execution.
    pub fn run_record(
        &self,
        experiment: &str,
        benchmark: &str,
        variant: &str,
        run: usize,
        report: &RunReport,
    ) {
        let periods: Vec<Json> = report
            .periods
            .iter()
            .map(|p| {
                Json::obj([
                    ("index", p.index.into()),
                    ("start_cycles", p.start_cycles.into()),
                    ("end_cycles", p.end_cycles.into()),
                    ("counters", counters_json(&p.counters)),
                ])
            })
            .collect();
        self.record(&Json::obj([
            ("type", "run".into()),
            ("experiment", experiment.into()),
            ("benchmark", benchmark.into()),
            ("variant", variant.into()),
            ("run", run.into()),
            ("engine", report.engine.as_str().into()),
            ("seconds", report.seconds().into()),
            ("counters", counters_json(&report.counters)),
            ("periods", Json::Arr(periods)),
        ]));
    }

    /// Emits a `summary` record with experiment-specific fields.
    pub fn summary_record(&self, experiment: &str, fields: Vec<(&str, Json)>) {
        let mut obj: Vec<(String, Json)> = vec![
            ("type".to_string(), "summary".into()),
            ("experiment".to_string(), experiment.into()),
        ];
        obj.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        self.record(&Json::Obj(obj));
    }

    /// Emits every report of one `(experiment, benchmark, variant)`
    /// series as `run` records.
    pub fn run_records(
        &self,
        experiment: &str,
        benchmark: &str,
        variant: &str,
        reports: &[RunReport],
    ) {
        for (i, report) in reports.iter().enumerate() {
            self.run_record(experiment, benchmark, variant, i, report);
        }
    }

    /// Flushes the underlying writer.
    pub fn flush(&self) {
        let _ = self.out.lock().expect("trace sink lock").flush();
    }
}

/// Dropping a sink flushes it: short-lived traced runs (e.g. one
/// per-request trace inside the server) must never lose tail records
/// to a buffered writer that was dropped before an explicit
/// [`TraceSink::flush`].
impl Drop for TraceSink {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = render_table(
            &["a", "long_header"],
            &[
                vec!["xxxxxxxx".into(), "1".into()],
                vec!["y".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // The second column starts at the same offset in every row.
        let col = lines[0].find("long_header").unwrap();
        assert_eq!(lines[2].find('1').unwrap(), col);
        assert_eq!(lines[3].find('2').unwrap(), col);
    }

    #[test]
    fn p_value_formatting() {
        assert_eq!(fmt_p(0.5), "0.500");
        assert_eq!(fmt_p(0.0004), "<0.001");
        assert_eq!(fmt_p_marked(0.01), "0.010*");
        assert_eq!(fmt_p_marked(0.2), "0.200");
    }

    #[test]
    fn verdict_report_serializes_flat_and_renders() {
        let r = sz_stats::judge(
            &[10.0, 10.2, 9.8, 10.1, 9.9, 10.0],
            &[8.0, 8.2, 7.8, 8.1, 7.9, 8.0],
            &sz_stats::VerdictConfig::default(),
        )
        .unwrap();
        let j = verdict_json(&r);
        assert_eq!(j.get("verdict").unwrap().as_str(), Some("robustly-faster"));
        assert_eq!(j.get("n_a").unwrap().as_u64(), Some(6));
        assert_eq!(j.get("resamples").unwrap().as_u64(), Some(1000));
        assert_eq!(j.get("boot_seed").unwrap().as_u64(), Some(0x5EED_B007));
        assert_eq!(j.get("band").unwrap().as_f64(), Some(0.05));
        assert!(j.get("effect_lo").unwrap().as_f64().unwrap() > 1.0);
        // The wire object round-trips through the hand-rolled parser.
        assert_eq!(Json::parse(&j.to_string()).unwrap(), j);
        let line = fmt_verdict(&r);
        assert!(line.contains("robustly-faster"), "{line}");
        assert!(line.contains("band ±5%"), "{line}");
    }

    #[test]
    fn json_renders_all_value_shapes() {
        let v = Json::obj([
            ("a", 3u64.into()),
            ("b", 1.5f64.into()),
            ("c", "x\"y\\z\n".into()),
            ("d", Json::Arr(vec![Json::Null, true.into()])),
            ("e", f64::NAN.into()),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"a":3,"b":1.5,"c":"x\"y\\z\n","d":[null,true],"e":null}"#
        );
    }

    #[test]
    fn trace_sink_writes_jsonl_records() {
        let (sink, buffer) = TraceSink::in_memory();
        sink.summary_record("selftest", vec![("k", 7u64.into())]);
        sink.summary_record("selftest", vec![("k", 8u64.into())]);
        let lines = buffer.lines();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"type":"summary","experiment":"selftest","k":7}"#
        );
        assert!(lines[1].contains("\"k\":8"));
    }

    #[test]
    fn parse_round_trips_every_value_shape() {
        let v = Json::obj([
            ("a", 3u64.into()),
            ("b", 1.5f64.into()),
            ("c", "x\"y\\z\n".into()),
            ("d", Json::Arr(vec![Json::Null, true.into(), false.into()])),
            ("e", Json::obj([("nested", 7u64.into())])),
        ]);
        let parsed = Json::parse(&v.to_string()).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn parse_handles_whitespace_numbers_and_escapes() {
        let v = Json::parse(
            " { \"k\" : [ -2.5 , 1e3 , 18446744073709551615, \"\\u00e9\\uD83D\\uDE00\" ] } ",
        )
        .unwrap();
        let arr = v.get("k").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(-2.5));
        assert_eq!(arr[1].as_f64(), Some(1000.0));
        assert_eq!(arr[2].as_u64(), Some(u64::MAX));
        assert_eq!(arr[3].as_str(), Some("é😀"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "\"a\u{1}b\"",
            "\"tab\there\"",
            "\"\\x\"",
            "\"\\uD800\"",
            "\"\\uD800\\u0041\"",
            "\"\\uDC00\"",
            "\"\\u12\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_caps_nesting_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_JSON_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_JSON_DEPTH);
        // Mixed containers count alike, and a hostile depth is an
        // error rather than a stack overflow.
        let objects = format!("{}1{}", "{\"k\":[".repeat(40), "]}".repeat(40));
        assert!(Json::parse(&objects).is_err());
        assert!(Json::parse(&"[".repeat(50_000)).is_err());
    }

    #[test]
    fn long_strings_and_recorded_lines_round_trip() {
        let long: String = "é-ab😀".chars().cycle().take(512 << 10).collect();
        let text = Json::from(long.as_str()).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(long.as_str()));

        // A run record as `sz-bench fig6_overhead` writes it.
        let recorded = r#"{"type":"run","experiment":"fig6","benchmark":"mcf","variant":"linked-baseline","run":0,"engine":"linked","seconds":0.0000431434375,"counters":{"instructions":37257,"cycles":138059,"l1i_misses":7,"l1d_misses":289,"l2_misses":296,"l3_misses":296,"itlb_misses":1,"dtlb_misses":7,"branches":3341,"branch_mispredicts":118},"periods":[{"index":0,"start_cycles":0,"end_cycles":138059,"counters":{"instructions":37257,"cycles":138059,"l1i_misses":7,"l1d_misses":289,"l2_misses":296,"l3_misses":296,"itlb_misses":1,"dtlb_misses":7,"branches":3341,"branch_mispredicts":118}}]}"#;
        assert_eq!(Json::parse(recorded).unwrap().to_string(), recorded);
    }

    #[test]
    fn accessors_distinguish_shapes() {
        let v = Json::parse(r#"{"n":4,"f":4.5,"s":"x","b":true,"a":[1]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(4.0));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(v.get("missing").is_none());
        assert!(Json::Null.get("n").is_none());
    }

    #[test]
    fn drop_flushes_the_underlying_writer() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        struct CountsFlushes(Arc<AtomicUsize>);
        impl Write for CountsFlushes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                self.0.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
        }

        let flushes = Arc::new(AtomicUsize::new(0));
        let sink = TraceSink::to_writer(Box::new(CountsFlushes(flushes.clone())));
        sink.summary_record("selftest", vec![("k", 1u64.into())]);
        assert_eq!(flushes.load(Ordering::SeqCst), 0, "records do not flush");
        drop(sink);
        assert!(
            flushes.load(Ordering::SeqCst) >= 1,
            "drop must flush buffered tail records"
        );
    }

    #[test]
    fn run_record_carries_counters_and_periods() {
        use sz_machine::{PeriodSnapshot, SimTime};
        let counters = PerfCounters {
            instructions: 10,
            cycles: 40,
            l1d_misses: 2,
            ..Default::default()
        };
        let report = RunReport {
            cycles: 40,
            instructions: 10,
            time: SimTime::from_nanos(12.5),
            counters,
            periods: vec![PeriodSnapshot {
                index: 0,
                start_cycles: 0,
                end_cycles: 40,
                counters,
            }],
            return_value: Some(1),
            engine: "stabilizer".to_string(),
        };
        let (sink, buffer) = TraceSink::in_memory();
        sink.run_record("table1", "mcf", "rerandomized", 3, &report);
        let line = buffer.contents();
        assert!(line.contains(r#""type":"run""#));
        assert!(line.contains(r#""benchmark":"mcf""#));
        assert!(line.contains(r#""variant":"rerandomized""#));
        assert!(line.contains(r#""run":3"#));
        assert!(line.contains(r#""l1d_misses":2"#));
        assert!(line.contains(r#""periods":[{"index":0"#));
    }
}
