//! Chrome-trace (catapult JSON) export and validation.
//!
//! [`chrome_trace_json`] renders spans into the Trace Event Format that
//! `chrome://tracing` and Perfetto open directly: `B`/`E` duration events
//! on one process per device (plus one for serve tenants), one thread row
//! per lane. Overlapping spans on one lane are split across numbered
//! sub-rows by a deterministic greedy interval coloring, so every emitted
//! row is strictly well-nested: `B`/`E` strictly alternate and timestamps
//! are monotone — the properties [`validate_chrome_trace`] re-checks from
//! the JSON text (CI validates every exported artifact this way).
//!
//! Timestamps are microseconds with six fixed decimal places
//! (`ps / 1e6`), rendered digit-exactly from the integer picosecond
//! clock — the export is deterministic byte-for-byte.
//!
//! The validator is one streaming pass over the bytes: it checks the full
//! JSON grammar but builds no tree, keeping only `ph`/`pid`/`tid`/`ts` of
//! each event. Its executable specification, a tree-building parser plus
//! the same rules, lives in `chrome_spec.rs` and is compiled into tests
//! only.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use cusync_sim::{json_escape_into, SimTime};

use crate::span::{Lane, Span};

/// Process id used for serve tenant lanes (devices use their own index).
const TENANT_PID: u32 = 1000;

/// `(pid, sort index within the process, lane)` — the deterministic
/// grouping key of one lane. Within one `(pid, sort)` the derived `Lane`
/// order matches the order of the row names (`kernels d…` before
/// `tenant …`, tenants by name).
fn lane_key(lane: &Lane) -> (u32, u32, &Lane) {
    match lane {
        Lane::Device { device } => (*device, 0, lane),
        Lane::Link { device } => (*device, 1, lane),
        Lane::Sm { device, sm } => (*device, 2 + sm, lane),
        Lane::Tenant { .. } => (TENANT_PID, 0, lane),
    }
}

/// Appends the escaped row name of `lane` (without a sub-row suffix).
fn push_lane_name(out: &mut String, lane: &Lane) {
    match lane {
        Lane::Device { device } => {
            let _ = write!(out, "kernels d{device}");
        }
        Lane::Link { device } => {
            let _ = write!(out, "link d{device}");
        }
        Lane::Sm { sm, .. } => {
            let _ = write!(out, "sm {sm}");
        }
        Lane::Tenant { tenant } => {
            out.push_str("tenant ");
            json_escape_into(out, tenant);
        }
    }
}

/// Appends `t` as fixed-point microseconds with six decimals, without
/// going through `fmt`: this runs twice per exported span.
fn push_ts(out: &mut String, t: SimTime) {
    let ps = t.as_picos();
    // "<whole µs>.<6 digits>" needs at most 20 + 7 bytes.
    let mut buf = [b'0'; 27];
    let mut i = buf.len();
    let mut frac = ps % 1_000_000;
    for _ in 0..6 {
        i -= 1;
        buf[i] = b'0' + (frac % 10) as u8;
        frac /= 10;
    }
    i -= 1;
    buf[i] = b'.';
    let mut whole = ps / 1_000_000;
    loop {
        i -= 1;
        buf[i] = b'0' + (whole % 10) as u8;
        whole /= 10;
        if whole == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

/// Renders `spans` as a self-contained catapult JSON document.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    // One stable sort groups spans by lane and orders each lane by
    // (start, end, name); ties keep their input order.
    let mut order: Vec<&Span> = spans.iter().collect();
    order.sort_by(|a, b| {
        (lane_key(&a.lane), a.start, a.end, &a.name).cmp(&(
            lane_key(&b.lane),
            b.start,
            b.end,
            &b.name,
        ))
    });
    // About 120 bytes of B/E framing per span, plus its name.
    let names: usize = spans.iter().map(|s| s.name.len()).sum();
    let mut out = String::with_capacity(128 * spans.len() + names + 256);
    out.push_str("{\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n");
    // Every event is followed by ",\n"; the last separator is cut below.
    let mut last_pid = None;
    for span in &order {
        let pid = lane_key(&span.lane).0;
        if last_pid == Some(pid) {
            continue;
        }
        last_pid = Some(pid);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\""
        );
        if pid == TENANT_PID {
            out.push_str("serve");
        } else {
            let _ = write!(out, "device {pid}");
        }
        let _ = write!(
            out,
            "\"}}}},\n{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_sort_index\",\
             \"args\":{{\"sort_index\":{pid}}}}},\n"
        );
    }
    // Lanes: color into non-overlapping sub-rows, then emit B/E pairs in
    // time order per sub-row. Tids count from 1 within each process.
    let mut tid = 0u32;
    let mut last_pid = None;
    for lane_spans in order.chunk_by(|a, b| a.lane == b.lane) {
        let lane = &lane_spans[0].lane;
        let (pid, sort, _) = lane_key(lane);
        if last_pid != Some(pid) {
            last_pid = Some(pid);
            tid = 0;
        }
        // Greedy interval coloring: first sub-row whose last end fits.
        let mut rows: Vec<Vec<&Span>> = Vec::new();
        for &span in lane_spans {
            match rows
                .iter_mut()
                .find(|row| row.last().is_none_or(|last| last.end <= span.start))
            {
                Some(row) => row.push(span),
                None => rows.push(vec![span]),
            }
        }
        for (color, row) in rows.iter().enumerate() {
            tid += 1;
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"name\":\"thread_name\",\"args\":{{\"name\":\""
            );
            push_lane_name(&mut out, lane);
            if rows.len() > 1 {
                let _ = write!(out, " ·{}", color + 1);
            }
            let _ = write!(
                out,
                "\"}}}},\n{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"name\":\"thread_sort_index\",\"args\":{{\"sort_index\":{}}}}},\n",
                u64::from(sort) * 64 + color as u64
            );
            let begin = format!("{{\"ph\":\"B\",\"pid\":{pid},\"tid\":{tid},\"ts\":");
            let end = format!("\"}},\n{{\"ph\":\"E\",\"pid\":{pid},\"tid\":{tid},\"ts\":");
            for span in row {
                out.push_str(&begin);
                push_ts(&mut out, span.start);
                out.push_str(",\"cat\":\"");
                out.push_str(span.kind.label());
                out.push_str("\",\"name\":\"");
                json_escape_into(&mut out, &span.name);
                out.push_str(&end);
                push_ts(&mut out, span.end);
                out.push_str("},\n");
            }
        }
    }
    if out.ends_with(",\n") {
        out.truncate(out.len() - 2);
    }
    out.push_str("\n]\n}\n");
    out
}

/// Summary counts from a validated Chrome trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChromeTraceStats {
    /// Total events of any phase.
    pub events: usize,
    /// Matched `B`/`E` pairs.
    pub spans: usize,
    /// Distinct `(pid, tid)` rows carrying duration events.
    pub lanes: usize,
}

/// Re-reads an exported document and checks the well-formedness CI (and
/// the proptests) rely on: valid JSON, a `traceEvents` array, and per
/// `(pid, tid)` row strictly alternating `B`/`E` with monotone
/// non-decreasing timestamps and zero open spans at the end.
///
/// One streaming pass, no tree. The JSON grammar is strict (RFC 8259: no
/// leading zeros, no bare `.`, no raw control characters in strings,
/// exactly four hex digits per `\u` escape), numbers must be finite in
/// f64, nesting is limited to 128 levels, and `pid`/`tid` must be
/// non-negative integers ≤ 2^53. Duplicate keys resolve last-wins, for a
/// top-level `traceEvents` as for an event's fields. A syntax error
/// anywhere wins over a rule violation; among violations, the first
/// event's wins.
pub fn validate_chrome_trace(json: &str) -> Result<ChromeTraceStats, String> {
    let mut r = Reader {
        src: json,
        bytes: json.as_bytes(),
        pos: 0,
        depth: 0,
    };
    // `None` until a top-level `traceEvents` member is read.
    let mut trace: Option<Rows> = None;
    if r.peek()? == b'{' {
        r.object(|r, key| {
            if key == "traceEvents" {
                trace = Some(r.trace_events()?);
                Ok(())
            } else {
                r.skip()
            }
        })?;
    } else {
        r.skip()?;
    }
    r.skip_ws();
    if r.pos != r.bytes.len() {
        return Err(format!("trailing garbage at byte {}", r.pos));
    }
    trace.ok_or("missing traceEvents")?.finish()
}

/// Largest `pid`/`tid` accepted: every integer up to 2^53 is exact in f64.
const MAX_ROW_ID: f64 = 9_007_199_254_740_992.0;

/// Deepest nesting of arrays and objects accepted.
const MAX_DEPTH: usize = 128;

/// The `ph` of one event, as far as validation cares.
#[derive(Clone, Copy, Default)]
enum Phase {
    /// Absent, or not a string.
    #[default]
    Missing,
    Begin,
    End,
    /// Any other phase (metadata, instants, …): not checked.
    Other,
}

/// The fields of one event that validation reads; a number field is
/// `None` when absent or not a number.
#[derive(Default)]
struct Event {
    ph: Phase,
    pid: Option<f64>,
    tid: Option<f64>,
    ts: Option<f64>,
}

/// Per-row `B`/`E` state of one `traceEvents` array.
#[derive(Default)]
struct Rows {
    events: usize,
    spans: usize,
    /// `(pid, tid)` → (a span is open, last timestamp).
    rows: BTreeMap<(u64, u64), (bool, f64)>,
    /// The first rule violation (or a `traceEvents` that is not an
    /// array); later events are then only counted.
    error: Option<String>,
}

impl Rows {
    fn push(&mut self, ev: Event) {
        let i = self.events;
        self.events += 1;
        if self.error.is_none() {
            self.error = self.check(i, ev).err();
        }
    }

    fn check(&mut self, i: usize, ev: Event) -> Result<(), String> {
        let begin = match ev.ph {
            Phase::Missing => return Err(format!("event {i}: missing ph")),
            Phase::Other => return Ok(()),
            Phase::Begin => true,
            Phase::End => false,
        };
        let num = |field: &str, v: Option<f64>| {
            v.ok_or_else(|| format!("event {i}: missing numeric {field}"))
        };
        let row_id = |field: &str, v: Option<f64>| {
            let v = num(field, v)?;
            if (0.0..=MAX_ROW_ID).contains(&v) && v.fract() == 0.0 {
                Ok(v as u64)
            } else {
                Err(format!("event {i}: {field} must be a non-negative integer"))
            }
        };
        let pid = row_id("pid", ev.pid)?;
        let tid = row_id("tid", ev.tid)?;
        let ts = num("ts", ev.ts)?;
        let row = self
            .rows
            .entry((pid, tid))
            .or_insert((false, f64::NEG_INFINITY));
        if ts < row.1 {
            return Err(format!(
                "event {i}: ts {ts} went backwards on row ({pid},{tid})"
            ));
        }
        row.1 = ts;
        if begin {
            if row.0 {
                return Err(format!(
                    "event {i}: B while a span is open on ({pid},{tid})"
                ));
            }
            row.0 = true;
        } else {
            if !row.0 {
                return Err(format!("event {i}: E with no open span on ({pid},{tid})"));
            }
            row.0 = false;
            self.spans += 1;
        }
        Ok(())
    }

    fn finish(self) -> Result<ChromeTraceStats, String> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if let Some(((pid, tid), _)) = self.rows.iter().find(|(_, (open, _))| *open) {
            return Err(format!("row ({pid},{tid}) ends with an open span"));
        }
        Ok(ChromeTraceStats {
            events: self.events,
            spans: self.spans,
            lanes: self.rows.len(),
        })
    }
}

/// A cursor over the document. Every method that reads a value checks its
/// full grammar; the error texts and byte offsets are those of the spec
/// parser in `chrome_spec.rs`.
struct Reader<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_owned())
    }

    /// The character at the cursor, for error messages.
    fn found(&self) -> char {
        self.src[self.pos..].chars().next().unwrap_or('\0')
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    /// Enters an array or object whose opening bracket is at the cursor.
    fn enter(&mut self, open: u8) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        self.expect(open)
    }

    /// Reads an object at the cursor (after a `peek` saw `{`), handing each
    /// member's key to `member`, which must consume the member's value.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.enter(b'{')?;
        if self.peek()? == b'}' {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            member(self, key)?;
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => {
                    return Err(format!(
                        "expected ',' or '}}', found {:?} at byte {}",
                        self.found(),
                        self.pos
                    ))
                }
            }
        }
    }

    /// Reads an array at the cursor (after a `peek` saw `[`); `item` must
    /// consume each element.
    fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.enter(b'[')?;
        if self.peek()? == b']' {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => {
                    return Err(format!(
                        "expected ',' or ']', found {:?} at byte {}",
                        self.found(),
                        self.pos
                    ))
                }
            }
        }
    }

    /// Checks and consumes any one value.
    fn skip(&mut self) -> Result<(), String> {
        match self.peek()? {
            b'{' => self.object(|r, _| r.skip()),
            b'[' => self.array(Self::skip),
            b'"' => self.string().map(drop),
            b't' => self.literal("true"),
            b'f' => self.literal("false"),
            b'n' => self.literal("null"),
            b'-' | b'0'..=b'9' => self.number().map(drop),
            _ => Err(format!(
                "unexpected {:?} at byte {}",
                self.found(),
                self.pos
            )),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Reads a string at the cursor; it is borrowed from the document
    /// unless it contains an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let start = self.pos;
        let mut owned: Option<String> = None;
        let mut run = start;
        loop {
            match *self.bytes.get(self.pos).ok_or("unterminated string")? {
                b'"' => {
                    let tail = &self.src[run..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                b'\\' => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(&self.src[run..self.pos]);
                    let c = self.escape()?;
                    s.push(c);
                    run = self.pos;
                }
                b if b < 0x20 => {
                    return Err(format!(
                        "control character U+{b:04X} in string at byte {}",
                        self.pos
                    ))
                }
                _ => self.pos += 1,
            }
        }
    }

    /// Decodes the escape sequence whose backslash is at the cursor.
    fn escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let esc = *self.bytes.get(at + 1).ok_or("unterminated string")?;
        self.pos += 2;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hex = self
                    .bytes
                    .get(self.pos..self.pos + 4)
                    .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                    .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
                let code = hex.iter().fold(0, |acc, &h| {
                    acc * 16 + (h as char).to_digit(16).expect("hex digit")
                });
                self.pos += 4;
                // Surrogates become U+FFFD, as in the spec.
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return Err(format!("bad escape at byte {at}")),
        })
    }

    /// Consumes a run of ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Reads a number at the cursor and returns its text.
    fn number(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let int_digits = self.digits();
        if int_digits == 0 {
            return Err(format!("expected digit at byte {}", self.pos));
        }
        if int_digits > 1 && self.bytes[self.pos - int_digits] == b'0' {
            return Err(format!("leading zero in number at byte {start}"));
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(format!("expected digit at byte {}", self.pos));
            }
        }
        let mut exponent = false;
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            exponent = true;
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(format!("expected digit at byte {}", self.pos));
            }
        }
        let text = &self.src[start..self.pos];
        // Without an exponent, fewer than 309 digits cannot overflow f64.
        if (exponent || text.len() > 300) && !text.parse::<f64>().is_ok_and(f64::is_finite) {
            return Err(format!("number out of range at byte {start}"));
        }
        Ok(text)
    }

    /// Reads a `traceEvents` value and checks its events.
    fn trace_events(&mut self) -> Result<Rows, String> {
        let mut rows = Rows::default();
        if self.peek()? != b'[' {
            self.skip()?;
            rows.error = Some("traceEvents is not an array".to_owned());
            return Ok(rows);
        }
        self.array(|r| {
            let ev = r.event()?;
            rows.push(ev);
            Ok(())
        })?;
        Ok(rows)
    }

    /// Reads one `traceEvents` element, keeping the fields validation
    /// needs (the last of duplicate keys wins).
    fn event(&mut self) -> Result<Event, String> {
        let mut ev = Event::default();
        if self.peek()? != b'{' {
            self.skip()?;
            return Ok(ev);
        }
        self.object(|r, key| {
            match &*key {
                "ph" => ev.ph = r.phase()?,
                "pid" => ev.pid = r.field_number()?,
                "tid" => ev.tid = r.field_number()?,
                "ts" => ev.ts = r.field_number()?,
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(ev)
    }

    fn phase(&mut self) -> Result<Phase, String> {
        if self.peek()? != b'"' {
            self.skip()?;
            return Ok(Phase::Missing);
        }
        Ok(match &*self.string()? {
            "B" => Phase::Begin,
            "E" => Phase::End,
            _ => Phase::Other,
        })
    }

    /// Reads any value; returns it if it is a number.
    fn field_number(&mut self) -> Result<Option<f64>, String> {
        if !matches!(self.peek()?, b'-' | b'0'..=b'9') {
            self.skip()?;
            return Ok(None);
        }
        // A grammar-checked JSON number always parses.
        Ok(self.number()?.parse().ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome_spec;
    use crate::span::SpanKind;

    /// Validates `doc` with both the streaming validator and the tree
    /// spec, asserts they agree on the whole result, and returns it.
    fn validate_both(doc: &str) -> Result<ChromeTraceStats, String> {
        let got = validate_chrome_trace(doc);
        assert_eq!(
            got,
            chrome_spec::validate(doc),
            "validators disagree on {doc:?}"
        );
        got
    }

    /// A one-span document with `pid`, `tid` and `ts` spliced in as raw
    /// JSON text.
    fn one_span(pid: &str, tid: &str, ts: &str) -> String {
        format!(
            r#"{{"traceEvents":[{{"ph":"B","pid":{pid},"tid":{tid},"ts":{ts}}},{{"ph":"E","pid":{pid},"tid":{tid},"ts":{ts}}}]}}"#
        )
    }

    fn span(name: &str, lane: Lane, start: u64, end: u64) -> Span {
        Span {
            name: name.to_owned(),
            kind: SpanKind::Block,
            lane,
            start: SimTime::from_picos(start),
            end: SimTime::from_picos(end),
        }
    }

    #[test]
    fn export_validates_and_counts_spans() {
        let spans = vec![
            span("a", Lane::Sm { device: 0, sm: 0 }, 0, 10),
            span("b", Lane::Sm { device: 0, sm: 0 }, 5, 15), // overlaps a
            span("c", Lane::Device { device: 1 }, 3, 9),
            span(
                "req \"x\"\n",
                Lane::Tenant {
                    tenant: "t0".to_owned(),
                },
                0,
                4,
            ),
        ];
        let json = chrome_trace_json(&spans);
        let stats = validate_chrome_trace(&json).expect("valid export");
        assert_eq!(stats.spans, 4);
        // a and b overlap: they must land on different rows.
        assert_eq!(stats.lanes, 4);
    }

    #[test]
    fn export_is_deterministic() {
        let spans = vec![
            span("x", Lane::Device { device: 0 }, 1, 2),
            span("y", Lane::Link { device: 0 }, 2, 8),
        ];
        assert_eq!(chrome_trace_json(&spans), chrome_trace_json(&spans));
    }

    #[test]
    fn validator_rejects_malformed_rows() {
        let unbalanced = r#"{"traceEvents":[
            {"ph":"B","pid":0,"tid":1,"ts":1.5,"name":"a"}
        ]}"#;
        assert!(validate_chrome_trace(unbalanced)
            .unwrap_err()
            .contains("open span"));
        let backwards = r#"{"traceEvents":[
            {"ph":"B","pid":0,"tid":1,"ts":5.0,"name":"a"},
            {"ph":"E","pid":0,"tid":1,"ts":4.0}
        ]}"#;
        assert!(validate_chrome_trace(backwards)
            .unwrap_err()
            .contains("backwards"));
        assert!(validate_chrome_trace("not json").is_err());
    }

    #[test]
    fn ts_is_fixed_point_microseconds() {
        let ts_us = |ps| {
            let mut out = String::new();
            push_ts(&mut out, SimTime::from_picos(ps));
            out
        };
        assert_eq!(ts_us(0), "0.000000");
        assert_eq!(ts_us(1_234_567), "1.234567");
        assert_eq!(ts_us(42), "0.000042");
        assert_eq!(ts_us(u64::MAX), "18446744073709.551615");
    }

    #[test]
    fn rejects_leading_zero_numbers() {
        assert!(validate_both(&one_span("0", "1", "2.5")).is_ok());
        let err = validate_both(&one_span("0", "01", "2.5")).unwrap_err();
        assert!(err.contains("leading zero in number"), "{err}");
        assert!(validate_both(&one_span("-00", "1", "2")).is_err());
    }

    #[test]
    fn rejects_a_bare_trailing_dot() {
        for ts in ["1.", "1.e5"] {
            let err = validate_both(&one_span("0", "1", ts)).unwrap_err();
            assert!(err.starts_with("expected digit at byte"), "{ts}: {err}");
        }
        assert!(validate_both(&one_span("0", "1", "1.0e5")).is_ok());
    }

    #[test]
    fn rejects_raw_control_characters_in_strings() {
        let doc = "{\"traceEvents\":[{\"ph\":\"i\",\"name\":\"a\u{1}b\"}]}";
        let err = validate_both(doc).unwrap_err();
        assert_eq!(err, "control character U+0001 in string at byte 35");
        let escaped = r#"{"traceEvents":[{"ph":"i","name":"a\u0001b"}]}"#;
        assert!(validate_both(escaped).is_ok());
    }

    #[test]
    fn rejects_non_finite_numbers() {
        let err = validate_both(&one_span("0", "1", "1e400")).unwrap_err();
        assert!(err.starts_with("number out of range at byte"), "{err}");
        let huge = "9".repeat(400);
        assert!(validate_both(&one_span("0", "1", &huge)).is_err());
        // Underflow is finite: 1e-400 reads as zero.
        assert!(validate_both(&one_span("0", "1", "1e-400")).is_ok());
    }

    #[test]
    fn rejects_row_ids_that_are_not_non_negative_integers() {
        // A `B` on pid -1 must not be closed by an `E` on pid 0.
        let aliased = r#"{"traceEvents":[
            {"ph":"B","pid":-1,"tid":1,"ts":1},
            {"ph":"E","pid":0,"tid":1,"ts":2}
        ]}"#;
        assert_eq!(
            validate_both(aliased),
            Err("event 0: pid must be a non-negative integer".to_owned())
        );
        assert_eq!(
            validate_both(&one_span("0", "0.7", "1")),
            Err("event 0: tid must be a non-negative integer".to_owned())
        );
        assert!(validate_both(&one_span("9007199254740994", "1", "1")).is_err());
        assert!(validate_both(&one_span("9007199254740992", "2.0", "1")).is_ok());
    }

    #[test]
    fn streaming_validator_matches_the_spec_on_edge_cases() {
        let deep = |n: usize| {
            format!(
                r#"{{"traceEvents":[],"x":{}{}}}"#,
                "[".repeat(n),
                "]".repeat(n)
            )
        };
        let docs = [
            "",
            "  ",
            "[]",
            "{}",
            "null",
            r#"{"traceEvents":{}}"#,
            r#"{"traceEvents":[1,"x",null,{}]}"#,
            r#"{"traceEvents":[{"ph":"X"}]} x"#,
            // Duplicate top-level key: the last one wins, either way.
            r#"{"traceEvents":[{"ph":"B","pid":0,"tid":0,"ts":1}],"traceEvents":[]}"#,
            r#"{"traceEvents":[],"traceEvents":[{"ph":"B","pid":0,"tid":0,"ts":1}]}"#,
            r#"{"traceEvents":[],"traceEvents":7}"#,
            // Duplicate event key: the last `ph` wins.
            r#"{"traceEvents":[{"ph":"B","ph":"M","pid":0,"tid":0,"ts":1}]}"#,
            r#"{"traceEvents":[{"ph":"M","ph":5}]}"#,
            // Escaped keys and values decode before matching.
            r#"{"trace\u0045vents":[{"\u0070h":"\u0042","pid":0,"tid":0,"ts":1},{"ph":"E","pid":0,"tid":0,"ts":1}]}"#,
            r#"{"traceEvents":[{"ph":"\ud800","x":"é\/\b\f\n\r\t"}]}"#,
            r#"{"traceEvents":[{"ph":"B","x":"\x"}]}"#,
            r#"{"traceEvents":[{"ph":"B","x":"\u12g4"}]}"#,
            r#"{"traceEvents":[{"ph":"B","x":"\u12"#,
            r#"{"traceEvents":[{"ph":"é"}],"é":tru}"#,
            r#"{"traceEvents":[{"ph":"B","pid":0,"tid":0,"ts":-}]}"#,
            r#"{"traceEvents":[{"ph":"B","pid":0,"tid":0,"ts":1e+}]}"#,
            r#"{"traceEvents":[{"ph":"B","pid":0,"tid":0,"ts":"1"}]}"#,
            r#"{"traceEvents":[{"ph":"B","pid":0,"tid":0,"ts":1},]}"#,
            r#"{"traceEvents":[{"ph":"B","pid":0,"tid":0,"ts":1,}]}"#,
            r#"{"traceEvents" [] }"#,
            r#"{"traceEvents":[] "#,
            // A syntax error after a rule violation still wins.
            r#"{"traceEvents":[{"ph":"E","pid":0,"tid":0,"ts":1}], oops}"#,
        ];
        let results: Vec<_> = docs.iter().map(|doc| validate_both(doc)).collect();
        let stats = |events, spans, lanes| {
            Ok(ChromeTraceStats {
                events,
                spans,
                lanes,
            })
        };
        assert_eq!(results[8], stats(0, 0, 0), "the last traceEvents wins");
        assert!(results[9].as_ref().unwrap_err().ends_with("open span"));
        assert_eq!(results[10], Err("traceEvents is not an array".to_owned()));
        assert_eq!(results[11], stats(1, 0, 0), "the last ph wins");
        assert_eq!(results[13], stats(2, 1, 1), "escaped keys match");
        assert!(results[26]
            .as_ref()
            .unwrap_err()
            .starts_with("expected string"));
        assert!(validate_both(&deep(MAX_DEPTH - 1)).is_ok());
        let err = validate_both(&deep(MAX_DEPTH)).unwrap_err();
        assert!(err.starts_with("nesting deeper than 128"), "{err}");
        assert!(validate_both(&deep(100_000)).is_err());
    }
}
