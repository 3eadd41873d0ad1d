//! Result records: one flat JSON object per run, stamped with the host
//! fingerprint and the run's configuration, plus the comparison that
//! refuses to set two records side by side when those stamps differ.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

/// One field value of a flat record.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string field.
    Str(String),
    /// A numeric field.
    Num(f64),
}

/// A flat JSON object with ordered keys.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    fields: BTreeMap<String, Value>,
}

/// Keys that identify the host a record was measured on.
pub const FINGERPRINT_KEYS: [&str; 3] = ["host.nproc", "host.cpu", "host.rustc"];

/// Keys that identify what was measured; two records are comparable only
/// when these agree too.
pub const CONFIG_KEYS: [&str; 4] = ["workload", "seconds", "trace", "config"];

/// Why two records cannot be compared.
#[derive(Debug, Clone, PartialEq)]
pub struct Refusal {
    /// The stamp keys whose values differ (or are missing on one side).
    pub differing: Vec<String>,
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "refusing to compare: fingerprint or config differ in {}",
            self.differing.join(", ")
        )
    }
}

impl Record {
    /// Sets a string field.
    pub fn set_str(&mut self, key: &str, value: impl Into<String>) {
        self.fields
            .insert(key.to_string(), Value::Str(value.into()));
    }

    /// Sets a numeric field.
    pub fn set_num(&mut self, key: &str, value: f64) {
        self.fields.insert(key.to_string(), Value::Num(value));
    }

    /// A field, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.get(key)
    }

    /// A numeric field, if present.
    pub fn num(&self, key: &str) -> Option<f64> {
        match self.fields.get(key) {
            Some(Value::Num(v)) => Some(*v),
            _ => None,
        }
    }

    /// Every field, in key order.
    pub fn fields(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.fields.iter()
    }

    /// Serializes as one line of JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_json_string(&mut out, k);
            out.push_str(": ");
            match v {
                Value::Str(s) => write_json_string(&mut out, s),
                Value::Num(x) => out.push_str(&json_number(*x)),
            }
        }
        out.push('}');
        out
    }

    /// Parses a flat JSON object of string and number fields (what
    /// [`Record::to_json`] writes).
    pub fn from_json(text: &str) -> Result<Record, String> {
        let mut p = FlatParser {
            bytes: text.trim().as_bytes(),
            pos: 0,
        };
        p.expect(b'{')?;
        let mut record = Record::default();
        p.skip_ws();
        if p.peek() == Some(b'}') {
            return Ok(record);
        }
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = if p.peek() == Some(b'"') {
                Value::Str(p.string()?)
            } else {
                Value::Num(p.number()?)
            };
            record.fields.insert(key, value);
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => return Ok(record),
                _ => return Err(format!("expected ',' or '}}' at byte {}", p.pos)),
            }
        }
    }

    /// Checks that `other` was measured on the same host with the same
    /// configuration; lists every stamp key that differs otherwise.
    pub fn comparable_with(&self, other: &Record) -> Result<(), Refusal> {
        let differing: Vec<String> = FINGERPRINT_KEYS
            .iter()
            .chain(CONFIG_KEYS.iter())
            .filter(|k| match (self.get(k), other.get(k)) {
                (Some(a), Some(b)) => a != b,
                _ => true,
            })
            .map(|k| k.to_string())
            .collect();
        if differing.is_empty() {
            Ok(())
        } else {
            Err(Refusal { differing })
        }
    }

    /// Stamps the host fingerprint (CPU count, CPU model, compiler) and
    /// the git revision.
    pub fn stamp_host(&mut self) {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        self.set_num("host.nproc", nproc as f64);
        self.set_str("host.cpu", cpu_model());
        self.set_str(
            "host.rustc",
            command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        );
        // Only ask git inside a git checkout, so it never reads a
        // repository above the directory the benchmark runs in.
        let rev = std::path::Path::new(".git")
            .exists()
            .then(|| command_line("git", &["rev-parse", "--short=12", "HEAD"]))
            .flatten();
        self.set_str("git_rev", rev.unwrap_or_else(|| "unknown".into()));
    }
}

/// Formats a finite number with every digit Rust needs to round-trip it;
/// non-finite values (which JSON cannot hold) become `null`.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// Appends `s` as a JSON string literal.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

struct FlatParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl FlatParser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        self.pos += 1;
        b
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            _ => Err(format!(
                "expected '{}' at byte {}",
                want as char,
                self.pos - 1
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => break,
                Some(b'\\') => match self.next() {
                    Some(b'n') => out.push(b'\n'),
                    Some(b'u') => {
                        let hex = self
                            .bytes
                            .get(self.pos..self.pos + 4)
                            .ok_or("short \\u escape")?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).unwrap_or(""), 16)
                            .map_err(|e| e.to_string())?;
                        let c = char::from_u32(code).ok_or("bad \\u escape")?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        self.pos += 4;
                    }
                    Some(b) => out.push(b),
                    None => return Err("unterminated escape".into()),
                },
                Some(b) => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|e| e.to_string())
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'+' | b'.'))
        {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        if token == "null" {
            return Ok(f64::NAN);
        }
        token
            .parse()
            .map_err(|_| format!("bad number {token:?} at byte {start}"))
    }
}
