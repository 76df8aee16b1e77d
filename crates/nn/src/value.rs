//! A tiny self-describing document model with TOML and JSON codecs.
//!
//! This value layer is the workspace's only serialization: every on-disk
//! artifact goes through one [`Value`] tree and two textual codecs (the
//! binary checkpoint codec in `autocat-store` encodes the same tree). It serves scenario files
//! (`autocat-scenario` re-exports this module as `autocat_scenario::value`),
//! trainer checkpoints (`autocat_ppo::checkpoint`) and sweep reports. The
//! TOML codec covers the subset those files need — dotted
//! `[section.headers]`, `key = value` pairs, single-line arrays, inline
//! tables, strings, integers, floats and booleans — and the JSON codec is
//! complete for the same tree.
//!
//! Floats are emitted with Rust's shortest round-trip formatting of the
//! `f64` widening, so an `f32` written through [`to_json`] parses back to
//! the identical bit pattern — the property checkpoint files rely on.

use std::collections::BTreeMap;

/// A dynamically-typed configuration value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A UTF-8 string.
    Str(String),
    /// A signed integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An ordered list.
    Array(Vec<Value>),
    /// A key → value map (sorted, so emission is deterministic).
    Table(BTreeMap<String, Value>),
}

impl Value {
    /// An empty table.
    pub fn table() -> Value {
        Value::Table(BTreeMap::new())
    }

    /// Inserts into a table value (panics on non-tables; builder use only).
    pub fn set(&mut self, key: &str, value: Value) {
        match self {
            Value::Table(map) => {
                map.insert(key.to_string(), value);
            }
            _ => panic!("set on non-table value"),
        }
    }

    /// The table map, or an error naming the actual type.
    pub fn as_table(&self) -> Result<&BTreeMap<String, Value>, String> {
        match self {
            Value::Table(map) => Ok(map),
            other => Err(format!("expected table, found {}", other.kind())),
        }
    }

    /// The array elements, or an error.
    pub fn as_array(&self) -> Result<&[Value], String> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(format!("expected array, found {}", other.kind())),
        }
    }

    /// The string contents, or an error.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(format!("expected string, found {}", other.kind())),
        }
    }

    /// The integer, or an error.
    pub fn as_i64(&self) -> Result<i64, String> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(format!("expected integer, found {}", other.kind())),
        }
    }

    /// The integer as `u64` (rejects negatives).
    pub fn as_u64(&self) -> Result<u64, String> {
        let i = self.as_i64()?;
        u64::try_from(i).map_err(|_| format!("expected non-negative integer, found {i}"))
    }

    /// The integer as `usize`.
    pub fn as_usize(&self) -> Result<usize, String> {
        Ok(self.as_u64()? as usize)
    }

    /// The integer as `u32`.
    pub fn as_u32(&self) -> Result<u32, String> {
        u32::try_from(self.as_i64()?).map_err(|_| "integer out of u32 range".to_string())
    }

    /// The number (integer or float) as `f64`.
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            other => Err(format!("expected number, found {}", other.kind())),
        }
    }

    /// The number as `f32`.
    pub fn as_f32(&self) -> Result<f32, String> {
        Ok(self.as_f64()? as f32)
    }

    /// The boolean, or an error.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, found {}", other.kind())),
        }
    }

    /// Type name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "bool",
            Value::Array(_) => "array",
            Value::Table(_) => "table",
        }
    }
}

/// Fetches a required key from a table map.
pub fn req<'a>(table: &'a BTreeMap<String, Value>, key: &str) -> Result<&'a Value, String> {
    table.get(key).ok_or_else(|| format!("missing key `{key}`"))
}

/// Encodes a `u64` field: as an integer when it fits `i64`, else as a
/// decimal string, so huge values (hash-derived seeds, raw RNG state
/// words) never wrap negative and every saved file stays loadable.
pub fn u64_value(x: u64) -> Value {
    match i64::try_from(x) {
        Ok(i) => Value::Int(i),
        Err(_) => Value::Str(x.to_string()),
    }
}

/// Decodes a `u64` written by [`u64_value`] (integer or decimal string).
///
/// # Errors
///
/// Returns an error on negative integers or non-numeric strings.
pub fn u64_from(value: &Value) -> Result<u64, String> {
    match value {
        Value::Str(s) => s
            .parse::<u64>()
            .map_err(|_| format!("expected unsigned integer, found `{s}`")),
        other => other.as_u64(),
    }
}

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

fn fmt_float(f: f64) -> String {
    // TOML floats require a fractional part or exponent; Rust's shortest
    // round-trip formatting drops ".0" on whole numbers, so restore it.
    if f.is_finite() && f == f.trunc() && f.abs() < 1e15 {
        format!("{f:.1}")
    } else {
        format!("{f}")
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn inline_toml(value: &Value) -> String {
    match value {
        Value::Str(s) => escape(s),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => fmt_float(*f),
        Value::Bool(b) => b.to_string(),
        Value::Array(items) => {
            let inner: Vec<String> = items.iter().map(inline_toml).collect();
            format!("[{}]", inner.join(", "))
        }
        Value::Table(map) => {
            let inner: Vec<String> = map
                .iter()
                .map(|(k, v)| format!("{k} = {}", inline_toml(v)))
                .collect();
            format!("{{ {} }}", inner.join(", "))
        }
    }
}

fn emit_toml_section(out: &mut String, path: &str, map: &BTreeMap<String, Value>) {
    // TOML requires a section's scalar keys before any child section
    // header, so emit non-table values first.
    for (key, value) in map {
        if !matches!(value, Value::Table(_)) {
            out.push_str(&format!("{key} = {}\n", inline_toml(value)));
        }
    }
    for (key, value) in map {
        if let Value::Table(child) = value {
            let child_path = if path.is_empty() {
                key.clone()
            } else {
                format!("{path}.{key}")
            };
            out.push_str(&format!("\n[{child_path}]\n"));
            emit_toml_section(out, &child_path, child);
        }
    }
}

/// Encodes a table value as TOML.
///
/// # Errors
///
/// Returns an error if `value` is not a table (TOML documents are tables).
pub fn to_toml(value: &Value) -> Result<String, String> {
    let map = value.as_table()?;
    let mut out = String::new();
    emit_toml_section(&mut out, "", map);
    Ok(out)
}

/// Encodes any value as JSON.
pub fn to_json(value: &Value) -> String {
    match value {
        Value::Str(s) => escape(s),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => fmt_float(*f),
        Value::Bool(b) => b.to_string(),
        Value::Array(items) => {
            let inner: Vec<String> = items.iter().map(to_json).collect();
            format!("[{}]", inner.join(", "))
        }
        Value::Table(map) => {
            let inner: Vec<String> = map
                .iter()
                .map(|(k, v)| format!("{}: {}", escape(k), to_json(v)))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// The deepest container nesting any parser of a [`Value`] tree accepts:
/// [`from_json`], [`from_toml`]'s inline values and the binary codec in
/// `autocat-store` return `Err` on a document nested deeper. Parsing
/// recurses once per level, so without the bound a line of `[`s sized
/// like a network request would overflow the thread's stack and abort
/// the process. Every document the workspace writes is nested a handful
/// of levels deep.
pub const MAX_DEPTH: usize = 128;

/// The error for a container opened at `depth` enclosing containers, if
/// that is one level too many (see [`MAX_DEPTH`]).
pub fn check_depth(depth: usize) -> Result<(), String> {
    if depth >= MAX_DEPTH {
        Err(format!("nesting deeper than {MAX_DEPTH} levels"))
    } else {
        Ok(())
    }
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && (self.src[self.pos] as char).is_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {} of `{}`",
                c as char,
                self.pos,
                String::from_utf8_lossy(self.src)
            ))
        }
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.pos >= self.src.len()
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("dangling escape")?;
                    self.pos += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        other => return Err(format!("unsupported escape \\{}", other as char)),
                    });
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest =
                        std::str::from_utf8(&self.src[self.pos..]).map_err(|_| "invalid UTF-8")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_key(&mut self) -> Result<String, String> {
        self.skip_ws();
        if self.peek() == Some(b'"') {
            return self.parse_string();
        }
        let start = self.pos;
        while let Some(c) = self.peek() {
            if (c as char).is_ascii_alphanumeric() || c == b'_' || c == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err("empty key".into());
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if (c as char).is_ascii_digit() || matches!(c, b'+' | b'-' | b'.' | b'e' | b'E' | b'_')
            {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text: String = String::from_utf8_lossy(&self.src[start..self.pos]).replace('_', "");
        if text.is_empty() {
            return Err("expected a number".into());
        }
        if !text.contains('.') && !text.contains('e') && !text.contains('E') {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| format!("invalid number `{text}`"))
    }

    /// Parses one value inside `depth` enclosing containers; `sep` is the
    /// key/value separator for nested tables (`=` for TOML inline tables,
    /// `:` for JSON objects).
    fn parse_value(&mut self, sep: u8, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        match self.peek().ok_or("expected a value")? {
            b'"' => Ok(Value::Str(self.parse_string()?)),
            b'[' => {
                check_depth(depth)?;
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    items.push(self.parse_value(sep, depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {}
                        _ => return Err("expected `,` or `]` in array".into()),
                    }
                }
            }
            b'{' => {
                check_depth(depth)?;
                self.pos += 1;
                let mut map = BTreeMap::new();
                loop {
                    self.skip_ws();
                    if self.peek() == Some(b'}') {
                        self.pos += 1;
                        return Ok(Value::Table(map));
                    }
                    let key = self.parse_key()?;
                    self.skip_ws();
                    self.expect(sep)?;
                    let value = self.parse_value(sep, depth + 1)?;
                    map.insert(key, value);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {}
                        _ => return Err("expected `,` or `}` in table".into()),
                    }
                }
            }
            b't' | b'f' => {
                let rest = &self.src[self.pos..];
                if rest.starts_with(b"true") {
                    self.pos += 4;
                    Ok(Value::Bool(true))
                } else if rest.starts_with(b"false") {
                    self.pos += 5;
                    Ok(Value::Bool(false))
                } else {
                    Err("expected `true` or `false`".into())
                }
            }
            _ => self.parse_number(),
        }
    }
}

/// Cuts a `#` comment off a TOML line, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_string = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_string => i += 1, // skip the escaped byte
            b'"' => in_string = !in_string,
            b'#' if !in_string => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

fn table_at<'a>(
    root: &'a mut BTreeMap<String, Value>,
    path: &[String],
) -> Result<&'a mut BTreeMap<String, Value>, String> {
    let mut current = root;
    for part in path {
        let entry = current.entry(part.clone()).or_insert_with(Value::table);
        current = match entry {
            Value::Table(map) => map,
            _ => return Err(format!("`{part}` is both a value and a section")),
        };
    }
    Ok(current)
}

/// Parses the supported TOML subset into a table [`Value`].
///
/// # Errors
///
/// Returns a message naming the offending line on malformed input.
pub fn from_toml(src: &str) -> Result<Value, String> {
    let mut root: BTreeMap<String, Value> = BTreeMap::new();
    let mut path: Vec<String> = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| format!("line {}: {msg}", idx + 1);
        if let Some(header) = line.strip_prefix('[') {
            let header = header
                .strip_suffix(']')
                .ok_or_else(|| err("unterminated section header".into()))?;
            path = header
                .split('.')
                .map(|part| part.trim().to_string())
                .collect();
            if path.iter().any(String::is_empty) {
                return Err(err(format!("bad section header `{line}`")));
            }
            table_at(&mut root, &path).map_err(err)?;
        } else {
            let (key, rest) = line
                .split_once('=')
                .ok_or_else(|| err(format!("expected `key = value`, found `{line}`")))?;
            let mut parser = Parser::new(rest.trim());
            let value = parser.parse_value(b'=', 0).map_err(err)?;
            if !parser.at_end() {
                return Err(err(format!("trailing input after value in `{line}`")));
            }
            let table = table_at(&mut root, &path).map_err(err)?;
            table.insert(key.trim().trim_matches('"').to_string(), value);
        }
    }
    Ok(Value::Table(root))
}

/// Parses a JSON document into a [`Value`].
///
/// # Errors
///
/// Returns a message describing the first syntax error, or the nesting
/// error for a document deeper than [`MAX_DEPTH`].
pub fn from_json(src: &str) -> Result<Value, String> {
    let mut parser = Parser::new(src);
    let value = parser.parse_value(b':', 0)?;
    if !parser.at_end() {
        return Err("trailing input after JSON value".into());
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        let mut inner = Value::table();
        inner.set("name", Value::Str("prime+probe \"PP\"".into()));
        inner.set("ways", Value::Int(4));
        inner.set("rate", Value::Float(-0.01));
        inner.set("whole", Value::Float(2.0));
        inner.set("on", Value::Bool(true));
        inner.set("hidden", Value::Array(vec![Value::Int(64), Value::Int(64)]));
        let mut member = Value::table();
        member.set("kind", Value::Str("victim-miss".into()));
        member.set("threshold", Value::Int(1));
        inner.set("members", Value::Array(vec![member]));
        let mut root = Value::table();
        root.set("scenario", inner);
        root.set("version", Value::Int(1));
        root
    }

    #[test]
    fn toml_round_trips() {
        let value = sample();
        let text = to_toml(&value).unwrap();
        let back = from_toml(&text).unwrap();
        assert_eq!(value, back, "TOML:\n{text}");
    }

    #[test]
    fn json_round_trips() {
        let value = sample();
        let text = to_json(&value);
        let back = from_json(&text).unwrap();
        assert_eq!(value, back, "JSON:\n{text}");
    }

    #[test]
    fn toml_floats_keep_a_fractional_part() {
        let mut root = Value::table();
        root.set("x", Value::Float(2.0));
        let text = to_toml(&root).unwrap();
        assert!(text.contains("x = 2.0"), "{text}");
    }

    #[test]
    fn toml_comments_and_blank_lines_are_ignored() {
        let src = r##"
# a comment
name = "has # inside" # trailing comment

[section]
value = 3
"##;
        let parsed = from_toml(src).unwrap();
        let table = parsed.as_table().unwrap();
        assert_eq!(
            req(table, "name").unwrap().as_str().unwrap(),
            "has # inside"
        );
        let section = req(table, "section").unwrap().as_table().unwrap();
        assert_eq!(req(section, "value").unwrap().as_i64().unwrap(), 3);
    }

    #[test]
    fn dotted_headers_nest() {
        let src = "[a.b.c]\nx = 1\n[a.b]\ny = 2.5\n";
        let parsed = from_toml(src).unwrap();
        let a = parsed.as_table().unwrap()["a"].as_table().unwrap();
        let b = a["b"].as_table().unwrap();
        assert_eq!(b["y"].as_f64().unwrap(), 2.5);
        assert_eq!(b["c"].as_table().unwrap()["x"].as_i64().unwrap(), 1);
    }

    #[test]
    fn malformed_input_is_reported_with_line_numbers() {
        assert!(from_toml("[broken\n").unwrap_err().contains("line 1"));
        assert!(from_toml("x 3\n").unwrap_err().contains("line 1"));
        assert!(from_toml("ok = 1\nbad = [1, \n")
            .unwrap_err()
            .contains("line 2"));
    }

    #[test]
    fn u64_helpers_cover_the_full_range() {
        for x in [0u64, 1, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX] {
            let v = u64_value(x);
            assert_eq!(u64_from(&v).unwrap(), x);
            // And through a full JSON round trip.
            let back = from_json(&to_json(&v)).unwrap();
            assert_eq!(u64_from(&back).unwrap(), x);
        }
        assert!(u64_from(&Value::Int(-1)).is_err());
        assert!(u64_from(&Value::Str("nope".into())).is_err());
    }

    #[test]
    fn f32_floats_round_trip_bit_exactly_through_json() {
        // Checkpoints depend on this: f32 → f64 widening is exact, the
        // shortest-round-trip f64 text is exact, and the f64 → f32 cast
        // back recovers the original bits.
        let samples = [
            0.0f32,
            -0.0,
            1.0,
            std::f32::consts::PI,
            1.0e-38,
            3.4e38,
            -7.218_641e-5,
            f32::MIN_POSITIVE,
        ];
        for &x in &samples {
            let v = Value::Float(f64::from(x));
            let back = from_json(&to_json(&v)).unwrap();
            assert_eq!(back.as_f32().unwrap().to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn type_errors_name_the_actual_kind() {
        let v = Value::Int(3);
        assert!(v.as_str().unwrap_err().contains("integer"));
        assert!(Value::Bool(true).as_f64().unwrap_err().contains("bool"));
        assert!(Value::Int(-1).as_u64().is_err());
    }

    #[test]
    fn nesting_beyond_max_depth_is_an_error_not_a_stack_overflow() {
        // A default-stack thread, like the daemon's connection handlers:
        // unbounded recursion here aborts the whole test process.
        std::thread::spawn(|| {
            let flood = "[".repeat(100_000);
            assert!(from_json(&flood).unwrap_err().contains("nesting deeper"));
            assert!(from_toml(&format!("x = {flood}")).is_err());
            let objects = r#"{"a":"#.repeat(100_000);
            assert!(from_json(&objects).unwrap_err().contains("nesting deeper"));

            let nested = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
            let mut value = from_json(&nested(MAX_DEPTH)).expect("MAX_DEPTH levels parse");
            for _ in 0..MAX_DEPTH {
                value = value.as_array().expect("one array per level")[0].clone();
            }
            assert_eq!(value, Value::Int(1));
            assert!(from_json(&nested(MAX_DEPTH + 1)).is_err());
            // TOML inline values count the same levels.
            assert!(from_toml(&format!("x = {}", nested(MAX_DEPTH))).is_ok());
            assert!(from_toml(&format!("x = {}", nested(MAX_DEPTH + 1))).is_err());
        })
        .join()
        .expect("parser thread must not panic");
    }
}
