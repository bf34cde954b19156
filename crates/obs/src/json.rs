//! The one JSON reader behind the workspace's tooling formats.
//!
//! Three text formats are read back: chrome `trace_event` documents
//! ([`crate::trace::validate`]), the flight recorder's JSONL samples
//! ([`crate::export::decode_sample`]) and the criterion-shim result files
//! the perf gate compares. Each keeps its schema in its own module; this
//! [`Cursor`] is the shared lexer they walk. It reads the subset those
//! writers emit: objects, arrays, strings with `\"` and `\\` escapes,
//! numbers and `null`; [`escape`] is the matching writer-side helper.
//! Persistence formats do not go through JSON at all — they are
//! `wagg-wire` frames.
//!
//! Strings borrow from the input unless they carry an escape, so decoding
//! a long log costs no allocation per key.

use std::borrow::Cow;

/// Escapes `s` for a JSON string body: `\` becomes `\\` and `"` becomes
/// `\"`, the two escapes [`Cursor::string`] reads back. Borrows when there
/// is nothing to escape.
pub fn escape(s: &str) -> Cow<'_, str> {
    if s.contains(['"', '\\']) {
        Cow::Owned(s.replace('\\', "\\\\").replace('"', "\\\""))
    } else {
        Cow::Borrowed(s)
    }
}

/// A position in one JSON document. Every read skips leading whitespace;
/// errors name the byte offset they hit.
#[derive(Debug)]
pub struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Cursor { text, pos: 0 }
    }

    fn skip_ws(&mut self) {
        let rest = &self.text.as_bytes()[self.pos..];
        self.pos += rest.iter().take_while(|b| b.is_ascii_whitespace()).count();
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `byte` (an ASCII delimiter) if it is next, reporting
    /// whether it was.
    pub fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    /// Consumes `byte`, or fails naming where it was expected.
    pub fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.pos))
        }
    }

    /// Consumes the literal `null`, reporting whether it was next.
    pub fn null(&mut self) -> bool {
        self.skip_ws();
        let hit = self.text.as_bytes()[self.pos..].starts_with(b"null");
        if hit {
            self.pos += 4;
        }
        hit
    }

    /// Succeeds when only whitespace is left.
    pub fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing content at byte {}", self.pos))
        }
    }

    /// A string, borrowed from the input unless it holds an escape. Only
    /// `\"` and `\\` are understood; any other escape is an error.
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let mut out: Option<String> = None;
        let mut start = self.pos;
        loop {
            // Both delimiters are ASCII, so every slice taken here starts
            // and ends on a character boundary.
            let Some(off) = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                return Err(format!("unterminated string at byte {start}"));
            };
            let at = self.pos + off;
            let piece = &self.text[start..at];
            if bytes[at] == b'"' {
                self.pos = at + 1;
                return Ok(match out {
                    None => Cow::Borrowed(piece),
                    Some(mut s) => {
                        s.push_str(piece);
                        Cow::Owned(s)
                    }
                });
            }
            match bytes.get(at + 1) {
                Some(&b) if b == b'"' || b == b'\\' => {
                    let s = out.get_or_insert_with(String::new);
                    s.push_str(piece);
                    s.push(b as char);
                    self.pos = at + 2;
                    start = self.pos;
                }
                _ => return Err(format!("unsupported escape at byte {at}")),
            }
        }
    }

    /// The run of number characters at the cursor.
    fn number_token(&mut self, what: &str) -> Result<&'a str, String> {
        self.skip_ws();
        let start = self.pos;
        let len = self.text.as_bytes()[start..]
            .iter()
            .take_while(|&&b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
            .count();
        self.pos += len;
        if len == 0 {
            return Err(format!("expected {what} at byte {start}"));
        }
        Ok(&self.text[start..self.pos])
    }

    /// A number.
    pub fn f64(&mut self) -> Result<f64, String> {
        let start = self.pos;
        let token = self.number_token("a number")?;
        token
            .parse()
            .map_err(|_| format!("malformed number {token:?} at byte {start}"))
    }

    /// A non-negative integer written as plain digits: a sign, a fraction,
    /// an exponent or a value past `u64::MAX` is an error, not a rounding.
    pub fn u64(&mut self) -> Result<u64, String> {
        let start = self.pos;
        let token = self.number_token("an unsigned integer")?;
        if !token.bytes().all(|b| b.is_ascii_digit()) {
            return Err(format!(
                "{token:?} at byte {start} is not an unsigned integer"
            ));
        }
        token
            .parse()
            .map_err(|_| format!("{token:?} at byte {start} overflows u64"))
    }

    /// Reads one object, handing each key to `field`, which must read that
    /// key's value. An object needs at least one key.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            field(self, &key)?;
            if !self.eat(b',') {
                return self.expect(b'}');
            }
        }
    }

    /// Reads one array, calling `item` once per element.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'[')?;
        if self.eat(b']') {
            return Ok(());
        }
        loop {
            item(self)?;
            if !self.eat(b',') {
                return self.expect(b']');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_borrow_and_unescape() {
        let mut c = Cursor::new(r#" "plain" "µs" "a\"b\\c" "tail\\" "#);
        assert!(matches!(c.string().unwrap(), Cow::Borrowed("plain")));
        assert!(matches!(c.string().unwrap(), Cow::Borrowed("µs")));
        assert_eq!(c.string().unwrap(), "a\"b\\c");
        assert_eq!(c.string().unwrap(), "tail\\");
        assert!(c.end().is_ok());
        assert!(Cursor::new(r#""bad \n""#).string().is_err());
        assert!(Cursor::new(r#""open"#).string().is_err());
        assert!(Cursor::new(r#""open\"#).string().is_err());
        // `escape` writes exactly what `string` reads back.
        assert!(matches!(escape("plain"), Cow::Borrowed("plain")));
        let raw = r#"load "site-7" C:\data\"#;
        let quoted = format!("\"{}\"", escape(raw));
        assert_eq!(Cursor::new(&quoted).string().unwrap(), raw);
    }

    #[test]
    fn integers_are_strict_and_numbers_are_not() {
        assert_eq!(Cursor::new(" 42").u64(), Ok(42));
        assert_eq!(Cursor::new("18446744073709551615").u64(), Ok(u64::MAX));
        for bad in ["18446744073709551616", "1.5", "1e3", "-4", "+4", "x"] {
            assert!(Cursor::new(bad).u64().is_err(), "{bad} read as an integer");
        }
        assert_eq!(Cursor::new("-0.25e1").f64(), Ok(-2.5));
        assert!(Cursor::new("1.2.3").f64().is_err());
        assert!(Cursor::new("nan").f64().is_err());
    }

    #[test]
    fn containers_null_and_end() {
        let mut c = Cursor::new(r#"{"a": [1, 2], "b": null, "c": []} "#);
        let (mut items, mut b_null, mut c_len) = (Vec::new(), false, 0);
        c.object(|c, key| {
            match key {
                "a" => c.array(|c| c.u64().map(|v| items.push(v)))?,
                "b" => b_null = c.null(),
                "c" => c.array(|_| {
                    c_len += 1;
                    Ok(())
                })?,
                other => return Err(format!("unknown key {other}")),
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(items, vec![1, 2]);
        assert!(b_null);
        assert_eq!(c_len, 0);
        assert!(c.end().is_ok());
        assert!(Cursor::new("{}").object(|_, _| Ok(())).is_err());
        assert!(Cursor::new("[1 2]").array(|c| c.u64().map(drop)).is_err());
        assert!(Cursor::new("{} x").end().is_err());
    }
}
