//! A minimal JSON object writer for the one-line records this program
//! prints (`run.py` parses them).

use std::fmt::Write;

/// Builds one flat-or-nested JSON object, fields in insertion order.
#[derive(Debug, Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        write_str(&mut self.body, k);
        self.body.push(':');
    }

    pub fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        if v.is_finite() {
            // `{:?}` prints the shortest string that round-trips.
            let _ = write!(self.body, "{v:?}");
        } else {
            self.body.push_str("null");
        }
        self
    }

    pub fn int(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.body, "{v}");
        self
    }

    pub fn nums(mut self, k: &str, vs: &[f64]) -> Self {
        self.key(k);
        self.body.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.body.push(',');
            }
            let _ = write!(self.body, "{v:?}");
        }
        self.body.push(']');
        self
    }

    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        write_str(&mut self.body, v);
        self
    }

    pub fn strs(mut self, k: &str, vs: &[String]) -> Self {
        self.key(k);
        self.body.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.body.push(',');
            }
            write_str(&mut self.body, v);
        }
        self.body.push(']');
        self
    }

    pub fn obj(mut self, k: &str, v: Obj) -> Self {
        self.key(k);
        self.body.push_str(&v.finish());
        self
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}
