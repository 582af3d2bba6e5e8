//! Flat JSON lines: the workspace's shared line-oriented wire codec.
//!
//! One object per line, string and unsigned-integer fields only, a
//! `kind` discriminator first. The campaign journal, job
//! specifications, and the serving protocol all use it, so a
//! checkpointed job file, a wire request, and a journal line parse with
//! the same ~100 lines of dependency-free code and are greppable with
//! standard tools. It lives in `ipas-ir`, the one crate every user of
//! the format already depends on.
//!
//! Floats ride as their IEEE-754 bit patterns via [`LineBuilder::f64`]
//! / [`Fields::f64`], so values round-trip bit-exactly (the same rule
//! the artifact envelope uses).

/// Escapes `s` into `out` as JSON string contents (no quotes).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Builds one flat JSON line field by field.
///
/// ```
/// use ipas_ir::flatjson::LineBuilder;
/// let line = LineBuilder::new("submit").num("runs", 64).str("name", "mm").finish();
/// assert_eq!(line, "{\"kind\":\"submit\",\"runs\":64,\"name\":\"mm\"}\n");
/// ```
#[derive(Debug)]
pub struct LineBuilder {
    buf: String,
}

impl LineBuilder {
    /// Starts a line with its `kind` discriminator.
    pub fn new(kind: &str) -> Self {
        let mut buf = String::with_capacity(128);
        buf.push_str("{\"kind\":\"");
        escape_into(&mut buf, kind);
        buf.push('"');
        LineBuilder { buf }
    }

    /// Appends an unsigned integer field.
    #[must_use]
    pub fn num(mut self, key: &str, value: u64) -> Self {
        self.buf.push_str(",\"");
        self.buf.push_str(key);
        self.buf.push_str("\":");
        self.buf.push_str(&value.to_string());
        self
    }

    /// Appends a string field (escaped).
    #[must_use]
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.buf.push_str(",\"");
        self.buf.push_str(key);
        self.buf.push_str("\":\"");
        escape_into(&mut self.buf, value);
        self.buf.push('"');
        self
    }

    /// Appends a float as its bit pattern (bit-exact round trip).
    #[must_use]
    pub fn f64(self, key: &str, value: f64) -> Self {
        self.num(key, value.to_bits())
    }

    /// Closes the object; the line is newline-terminated.
    pub fn finish(mut self) -> String {
        self.buf.push_str("}\n");
        self.buf
    }
}

/// A parsed field value.
#[derive(Debug, PartialEq)]
enum JsonVal {
    Num(u64),
    Str(String),
}

/// The parsed fields of one flat JSON line.
#[derive(Debug)]
pub struct Fields(Vec<(String, JsonVal)>);

impl Fields {
    /// Parses one flat JSON object (`{"kind":"x","n":123,"s":"v"}`).
    /// Returns `None` on any syntax error, including trailing garbage.
    pub fn parse(line: &str) -> Option<Fields> {
        let mut chars = line.trim().chars().peekable();
        if chars.next()? != '{' {
            return None;
        }
        let mut fields = Vec::new();
        loop {
            match chars.peek()? {
                '}' => {
                    chars.next();
                    break;
                }
                ',' => {
                    chars.next();
                }
                _ => {}
            }
            if *chars.peek()? != '"' {
                return None;
            }
            let key = parse_string(&mut chars)?;
            if chars.next()? != ':' {
                return None;
            }
            let value = match chars.peek()? {
                '"' => JsonVal::Str(parse_string(&mut chars)?),
                c if c.is_ascii_digit() => {
                    let mut digits = String::new();
                    while chars.peek().is_some_and(|c| c.is_ascii_digit()) {
                        digits.push(chars.next().expect("peeked"));
                    }
                    JsonVal::Num(digits.parse().ok()?)
                }
                _ => return None,
            };
            fields.push((key, value));
        }
        if chars.next().is_some() {
            return None; // trailing garbage
        }
        Some(Fields(fields))
    }

    /// The line's `kind` discriminator (empty when absent).
    pub fn kind(&self) -> &str {
        self.str("kind").unwrap_or("")
    }

    /// Looks up an integer field.
    pub fn num(&self, key: &str) -> Option<u64> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| match v {
                JsonVal::Num(n) => Some(*n),
                JsonVal::Str(_) => None,
            })
    }

    /// Looks up a string field.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| match v {
                JsonVal::Str(s) => Some(s.as_str()),
                JsonVal::Num(_) => None,
            })
    }

    /// Looks up a float stored as its bit pattern.
    pub fn f64(&self, key: &str) -> Option<f64> {
        self.num(key).map(f64::from_bits)
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
    if chars.next()? != '"' {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_parses_round_trip() {
        let line = LineBuilder::new("job")
            .num("runs", 400)
            .str("name", "mat\"mul\n")
            .f64("tol", 1e-9)
            .finish();
        assert!(line.ends_with("}\n"));
        let fields = Fields::parse(&line).expect("parses");
        assert_eq!(fields.kind(), "job");
        assert_eq!(fields.num("runs"), Some(400));
        assert_eq!(fields.str("name"), Some("mat\"mul\n"));
        assert_eq!(fields.f64("tol"), Some(1e-9));
        assert_eq!(fields.num("name"), None, "type confusion is a miss");
        assert_eq!(fields.str("runs"), None);
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1} x",
            "{\"unterminated\":\"",
            "not json",
            "{\"a\":-1}",
        ] {
            assert!(Fields::parse(bad).is_none(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn parser_handles_escapes() {
        let fields = Fields::parse(r#"{"kind":"x","n":42,"s":"a\"b\\c\ndA"}"#).expect("parses");
        assert_eq!(fields.num("n"), Some(42));
        assert_eq!(fields.str("s"), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for v in [0.0, -0.0, 1e-9, f64::MAX, f64::MIN_POSITIVE, 2.5] {
            let line = LineBuilder::new("t").f64("v", v).finish();
            let back = Fields::parse(&line).unwrap().f64("v").unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }
}
