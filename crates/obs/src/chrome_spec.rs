//! The executable specification of
//! [`validate_chrome_trace`](crate::validate_chrome_trace): parse the whole
//! document into a JSON tree, then check the catapult rules on the tree.
//!
//! The runtime validator checks the same grammar and the same rules in one
//! streaming pass without building a tree; this module states them the
//! slow, obvious way so the two can be compared result for result, error
//! text included (`tests/obs.rs`, `chrome.rs` unit tests). It is compiled
//! into tests only: the crate's unit tests declare it under `#[cfg(test)]`
//! and `tests/obs.rs` includes it by path. Nothing at runtime can reach it.

use std::collections::BTreeMap;

use super::ChromeTraceStats;

/// Largest `pid`/`tid` accepted: every integer up to 2^53 is exact in f64.
const MAX_ROW_ID: f64 = 9_007_199_254_740_992.0;

/// Validates `json` by building its tree first; the same contract as
/// [`validate_chrome_trace`](crate::validate_chrome_trace).
pub fn validate(json: &str) -> Result<ChromeTraceStats, String> {
    let doc = mini_json::parse(json)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    let mut stats = ChromeTraceStats {
        events: events.len(),
        ..ChromeTraceStats::default()
    };
    let mut rows: BTreeMap<(u64, u64), (bool, f64)> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if ph != "B" && ph != "E" {
            continue;
        }
        let num = |field: &str| {
            ev.get(field)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("event {i}: missing numeric {field}"))
        };
        let row_id = |field: &str| {
            let v = num(field)?;
            if (0.0..=MAX_ROW_ID).contains(&v) && v.fract() == 0.0 {
                Ok(v as u64)
            } else {
                Err(format!("event {i}: {field} must be a non-negative integer"))
            }
        };
        let pid = row_id("pid")?;
        let tid = row_id("tid")?;
        let ts = num("ts")?;
        let row = rows.entry((pid, tid)).or_insert((false, f64::NEG_INFINITY));
        if ts < row.1 {
            return Err(format!(
                "event {i}: ts {ts} went backwards on row ({pid},{tid})"
            ));
        }
        row.1 = ts;
        if ph == "B" {
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
            stats.spans += 1;
        }
    }
    if let Some(((pid, tid), _)) = rows.iter().find(|(_, (open, _))| *open) {
        return Err(format!("row ({pid},{tid}) ends with an open span"));
    }
    stats.lanes = rows.len();
    Ok(stats)
}

/// A deliberately small recursive-descent JSON parser that builds the
/// whole tree. It enforces strict RFC 8259 grammar (no leading zeros, no
/// bare `.`, no raw control characters in strings, exactly four hex digits
/// per `\u` escape), rejects numbers that overflow f64, and limits nesting
/// to [`MAX_DEPTH`](mini_json::MAX_DEPTH) levels.
pub mod mini_json {
    use std::collections::BTreeMap;

    /// Deepest nesting of arrays and objects accepted.
    pub const MAX_DEPTH: usize = 128;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number (parsed as f64).
        Num(f64),
        /// A string, unescaped.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object (key order not preserved; the last duplicate wins).
        Obj(BTreeMap<String, Value>),
    }

    impl Value {
        /// Object field lookup.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(map) => map.get(key),
                _ => None,
            }
        }

        /// The array items, if this is an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }

        /// The string contents, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The numeric value, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }
    }

    struct Parser<'a> {
        src: &'a str,
        bytes: &'a [u8],
        pos: usize,
        depth: usize,
    }

    /// Parses one JSON document (trailing whitespace allowed).
    pub fn parse(s: &str) -> Result<Value, String> {
        let mut p = Parser {
            src: s,
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    impl Parser<'_> {
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

        fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(v)
            } else {
                Err(format!("invalid literal at byte {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek()? {
                b'{' => self.nested(Self::object),
                b'[' => self.nested(Self::array),
                b'"' => Ok(Value::Str(self.string()?)),
                b't' => self.literal("true", Value::Bool(true)),
                b'f' => self.literal("false", Value::Bool(false)),
                b'n' => self.literal("null", Value::Null),
                b'-' | b'0'..=b'9' => self.number(),
                _ => Err(format!(
                    "unexpected {:?} at byte {}",
                    self.found(),
                    self.pos
                )),
            }
        }

        fn nested(&mut self, f: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
            if self.depth == MAX_DEPTH {
                return Err(format!(
                    "nesting deeper than {MAX_DEPTH} at byte {}",
                    self.pos
                ));
            }
            self.depth += 1;
            let v = f(self);
            self.depth -= 1;
            v
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut map = BTreeMap::new();
            if self.peek()? == b'}' {
                self.pos += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.expect(b':')?;
                map.insert(key, self.value()?);
                match self.peek()? {
                    b',' => self.pos += 1,
                    b'}' => {
                        self.pos += 1;
                        return Ok(Value::Obj(map));
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

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            if self.peek()? == b']' {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(self.value()?);
                match self.peek()? {
                    b',' => self.pos += 1,
                    b']' => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
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

        fn string(&mut self) -> Result<String, String> {
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(format!("expected string at byte {}", self.pos));
            }
            self.pos += 1;
            let mut out = String::new();
            loop {
                let c = self.src[self.pos..]
                    .chars()
                    .next()
                    .ok_or("unterminated string")?;
                match c {
                    '"' => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    '\\' => out.push(self.escape()?),
                    c if (c as u32) < 0x20 => {
                        return Err(format!(
                            "control character U+{:04X} in string at byte {}",
                            c as u32, self.pos
                        ))
                    }
                    c => {
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
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
                    // Surrogate pairs are not reconstructed: every
                    // surrogate becomes U+FFFD. The exporter never emits
                    // them.
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

        fn number(&mut self) -> Result<Value, String> {
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
            if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
                self.pos += 1;
                if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                    self.pos += 1;
                }
                if self.digits() == 0 {
                    return Err(format!("expected digit at byte {}", self.pos));
                }
            }
            let text = &self.src[start..self.pos];
            let n: f64 = text.parse().expect("grammar-checked JSON number");
            if !n.is_finite() {
                return Err(format!("number out of range at byte {start}"));
            }
            Ok(Value::Num(n))
        }
    }
}
