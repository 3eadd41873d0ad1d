//! Lint rules for the TESLA control stack, on the `tesla-analysis`
//! front end.
//!
//! The driver parses every scoped file into one [`Workspace`], so the
//! rules read the same tokens and call sites the call-graph analysis
//! does: comments and string literals are their own tokens, the
//! parser's [`test_spans`] drop `#[cfg(test)]` and `#[test]` items, and
//! the call-site rules reuse the engine's site matchers. The escape
//! hatch for a deliberate exception is an allowlist comment on the
//! finding line or the line directly above it:
//!
//! ```text
//! // lint:allow(<rule-name>): optional reason
//! ```

use tesla_analysis::callgraph::{Site, SiteKind};
use tesla_analysis::lexer::{Token, TokenKind};
use tesla_analysis::parser::test_spans;
use tesla_analysis::rules::{blocking_site, panic_site};
use tesla_analysis::Workspace;

/// One lint finding, before allowlist filtering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier, e.g. `no-unwrap-in-control-path`.
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// True when an allowlist comment suppresses the finding.
    pub allowed: bool,
}

pub const RULE_RAW_F64: &str = "no-raw-f64-in-public-api";
pub const RULE_UNWRAP: &str = "no-unwrap-in-control-path";
pub const RULE_RUNG: &str = "supervisor-transition-exhaustive";
pub const RULE_SETPOINT: &str = "bounded-setpoint-literal";
pub const RULE_METRIC: &str = "metric-name-format";
pub const RULE_WAL: &str = "no-unchecked-wal-read";
pub const RULE_CHECKPOINT: &str = "no-unframed-checkpoint-read";
pub const RULE_REACTOR: &str = "no-blocking-io-in-reactor";
pub const RULE_ZONE_INDEX: &str = "no-raw-zone-index-in-public-api";

/// Control crates: the scope of the raw-f64 and set-point rules.
const CONTROL_CRATES: &[&str] = &["crates/core/src", "crates/sim/src", "crates/forecast/src"];
/// Every crate that emits metrics through tesla-obs.
const METRIC_CRATES: &[&str] = &[
    "crates/core/src",
    "crates/sim/src",
    "crates/forecast/src",
    "crates/bo/src",
    "crates/bench/src",
    "crates/obs/src",
    "crates/historian/src",
    "crates/net/src",
    "crates/fleet/src",
];

/// Every rule with the source directories it scans (relative to the
/// workspace root), in report order.
pub const RULE_SCOPES: [(&str, &[&str]); 9] = [
    (RULE_RAW_F64, CONTROL_CRATES),
    (
        RULE_UNWRAP,
        &["crates/core/src", "crates/sim/src", "crates/fleet/src"],
    ),
    (RULE_RUNG, &["crates/core/src"]),
    (RULE_SETPOINT, CONTROL_CRATES),
    (RULE_METRIC, METRIC_CRATES),
    // The historian owns the WAL.
    (RULE_WAL, &["crates/historian/src"]),
    // The control-plane crate owns the checkpoint codec.
    (RULE_CHECKPOINT, &["crates/core/src"]),
    // Code that runs on (or is called from) reactor sweep threads.
    (RULE_REACTOR, &["crates/reactor/src", "crates/net/src"]),
    // The fleet crate's public surface addresses zones.
    (RULE_ZONE_INDEX, &["crates/fleet/src"]),
];

/// Where `enum Rung` is defined; its variants drive the rung rule.
pub const SUPERVISOR_PATH: &str = "crates/core/src/supervisor.rs";

/// Runs every rule over the files in its scope. `sources` are
/// `(repo-relative path, content)` pairs covering all scopes. Findings
/// come back sorted by file, line and rule.
pub fn lint_sources(sources: Vec<(String, String)>) -> Result<Vec<Finding>, String> {
    let ws = Workspace::from_sources(sources);
    let supervisor = ws
        .paths
        .iter()
        .position(|p| p == SUPERVISOR_PATH)
        .ok_or(format!("{SUPERVISOR_PATH} is not among the scanned files"))?;
    let variants = rung_variants(&LintFile::new(&ws, supervisor));
    if variants.is_empty() {
        return Err(format!(
            "failed to extract Rung variants from {SUPERVISOR_PATH}"
        ));
    }
    let mut findings = Vec::new();
    for file in 0..ws.paths.len() {
        let f = LintFile::new(&ws, file);
        for (rule, dirs) in RULE_SCOPES {
            if !dirs.iter().any(|d| ws.paths[file].starts_with(d)) {
                continue;
            }
            findings.extend(match rule {
                RULE_RAW_F64 => check_public_api(&f, &RAW_F64_SPEC),
                RULE_UNWRAP => check_unwrap(&f),
                RULE_RUNG => check_rung_matches(&f, &variants),
                RULE_SETPOINT => check_setpoint_literal(&f),
                RULE_METRIC => check_metric_names(&f),
                RULE_WAL => check_framed_reads(&f, &WAL_READ_SPEC),
                RULE_CHECKPOINT => check_framed_reads(&f, &CHECKPOINT_READ_SPEC),
                RULE_REACTOR => check_reactor_blocking(&f),
                _ => check_public_api(&f, &ZONE_INDEX_SPEC),
            });
        }
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(findings)
}

/// One scanned file as the rules see it.
pub struct LintFile<'a> {
    ws: &'a Workspace,
    file: usize,
    /// Tokens outside comments and test items, in source order.
    code: Vec<&'a Token>,
}

impl<'a> LintFile<'a> {
    pub fn new(ws: &'a Workspace, file: usize) -> LintFile<'a> {
        let tests = test_spans(&ws.tokens[file]);
        let code = ws.tokens[file]
            .iter()
            .enumerate()
            .filter(|&(i, t)| {
                t.kind != TokenKind::Comment && !tests.iter().any(|&(s, e)| s <= i && i < e)
            })
            .map(|(_, t)| t)
            .collect();
        LintFile { ws, file, code }
    }

    /// A finding at `line`, with its allow status from the analysis
    /// crate's `lint:allow` check.
    fn finding(&self, rule: &'static str, line: u32, message: String) -> Finding {
        Finding {
            rule,
            file: self.ws.paths[self.file].clone(),
            line: line as usize,
            message,
            allowed: self.ws.site_allowed(self.file, line, rule),
        }
    }

    /// One finding per line for each call site `matcher` describes.
    /// Sites come from the file's non-test fn bodies.
    fn site_findings(
        &self,
        rule: &'static str,
        matcher: impl Fn(&Site) -> Option<String>,
    ) -> Vec<Finding> {
        let mut out: Vec<Finding> = Vec::new();
        let nodes = self.ws.graph.fns.iter().filter(|n| n.def.file == self.file);
        for site in nodes.flat_map(|n| &n.sites) {
            if out.iter().any(|f| f.line == site.line as usize) {
                continue;
            }
            if let Some(message) = matcher(site) {
                out.push(self.finding(rule, site.line, message));
            }
        }
        out
    }
}

/// Lowercased underscore-separated words of an identifier
/// (`supply_temp_c` -> `supply`, `temp`, `c`).
fn words(ident: &str) -> impl Iterator<Item = String> + '_ {
    ident
        .split('_')
        .filter(|w| !w.is_empty())
        .map(str::to_ascii_lowercase)
}

/// Identifier words that mark an item as temperature/power-bearing for
/// `no-raw-f64-in-public-api`, matched as word prefixes.
const QUANTITY_FRAGMENTS: [&str; 10] = [
    "temp", "celsius", "setpoint", "power", "kw", "watt", "energy", "degc", "joule", "aisle",
];

fn names_quantity(ident: &str) -> bool {
    words(ident).any(|w| QUANTITY_FRAGMENTS.iter().any(|f| w.starts_with(f)))
}

/// True when an identifier word is exactly `zone` — the singular form
/// used when addressing one zone. Plural counts (`zones`, `n_zones`)
/// and the newtype's own name (`ZoneId` lowercases to "zoneid") stay
/// out of scope: a fleet size is a quantity, not an address.
fn names_zone(ident: &str) -> bool {
    words(ident).any(|w| w == "zone")
}

/// One public-API type rule: `pub fn` signatures and `pub` fields must
/// not carry the raw type `ty` where a name says it holds the guarded
/// quantity.
pub struct PublicApiSpec {
    /// Rule identifier reported in findings and matched by allowlists.
    pub rule: &'static str,
    /// The raw type kept out of the public API (`f64`, `usize`).
    pub ty: &'static str,
    /// True for an identifier that names the guarded quantity.
    pub names: fn(&str) -> bool,
    /// Message for a flagged signature line.
    pub signature: &'static str,
    /// What a flagged field does, after "public field `name` ".
    pub field: &'static str,
}

/// `no-raw-f64-in-public-api`: temperature and power cross the control
/// crates' public API as `tesla-units` newtypes, never raw `f64`.
pub const RAW_F64_SPEC: PublicApiSpec = PublicApiSpec {
    rule: RULE_RAW_F64,
    ty: "f64",
    names: names_quantity,
    signature: "raw f64 in public temperature/power signature; use a tesla-units newtype",
    field: "holds a temperature/power quantity as raw f64; use a tesla-units newtype",
};

/// `no-raw-zone-index-in-public-api`: the fleet crate addresses zones
/// by `tesla_units::ZoneId`, never a raw `usize` — a raw index silently
/// re-keys across topologies, while the newtype keeps zone addressing
/// type-checked end to end (historian prefixes, TLP `STATUS z<i>`,
/// coordinator decisions).
pub const ZONE_INDEX_SPEC: PublicApiSpec = PublicApiSpec {
    rule: RULE_ZONE_INDEX,
    ty: "usize",
    names: names_zone,
    signature: "raw usize zone index in public signature; use tesla_units::ZoneId",
    field: "addresses a zone by raw usize index; use tesla_units::ZoneId",
};

/// Rule over [`PublicApiSpec`]: flags each `pub fn` signature line that
/// spells the raw type when the fn name or that line names the
/// quantity, and each `pub name: Type` field whose name does and whose
/// type spells the raw type. An allow on the `pub fn` line (or directly
/// above it) covers the whole signature.
pub fn check_public_api(f: &LintFile, spec: &PublicApiSpec) -> Vec<Finding> {
    let c = &f.code;
    let is_named = |t: &&Token| t.kind == TokenKind::Ident && (spec.names)(&t.text);
    let mut out = Vec::new();
    let mut k = 0;
    while k + 2 < c.len() {
        if !c[k].is_ident("pub") {
            k += 1;
            continue;
        }
        if c[k + 1].is_ident("fn") {
            let end = item_end(c, k, &["{", ";"]);
            let fn_named = is_named(&c[k + 2]);
            let sig_allowed = f.ws.site_allowed(f.file, c[k].line, spec.rule);
            for line in c[k..end].chunk_by(|a, b| a.line == b.line) {
                if line.iter().any(|t| t.is_ident(spec.ty))
                    && (fn_named || line.iter().any(is_named))
                {
                    let mut finding = f.finding(spec.rule, line[0].line, spec.signature.into());
                    finding.allowed |= sig_allowed;
                    out.push(finding);
                }
            }
            k = end;
            continue;
        }
        let field = &c[k + 1];
        let is_field = field.kind == TokenKind::Ident
            && c[k + 2].is_punct(':')
            && !c.get(k + 3).is_some_and(|t| t.is_punct(':'));
        if is_field && (spec.names)(&field.text) {
            let ty = &c[k + 3..item_end(c, k + 3, &[",", ";", "}"])];
            if ty.iter().any(|t| t.is_ident(spec.ty)) {
                let message = format!("public field `{}` {}", field.text, spec.field);
                out.push(f.finding(spec.rule, field.line, message));
            }
        }
        k += 1;
    }
    out
}

/// Index of the first token from `start` whose text is in `ends` and
/// that sits outside every `()`, `[]` and `<>` pair opened after
/// `start` (or `c.len()`).
fn item_end(c: &[&Token], start: usize, ends: &[&str]) -> usize {
    let mut depth = 0i32;
    for (j, t) in c.iter().enumerate().skip(start) {
        if t.kind != TokenKind::Punct {
            continue;
        }
        if depth <= 0 && ends.contains(&t.text.as_str()) {
            return j;
        }
        match t.text.as_str() {
            "(" | "[" | "<" => depth += 1,
            ")" | "]" => depth -= 1,
            // `->` is an arrow, not a closing angle bracket.
            ">" if !c[j - 1].is_punct('-') => depth -= 1,
            _ => {}
        }
    }
    c.len()
}

/// Rule `no-unwrap-in-control-path`: `.unwrap()` is forbidden in
/// non-test code of the control crates — propagate with `?`, handle, or
/// `expect` with context (and an allowlist comment explaining why the
/// invariant holds). Matches the `unwrap` case of the panic rule's
/// [`panic_site`].
pub fn check_unwrap(f: &LintFile) -> Vec<Finding> {
    f.site_findings(RULE_UNWRAP, |site| {
        panic_site(site).filter(|_| site.name == "unwrap").map(|_| {
            "unwrap() in control path; propagate the error or use expect with context".into()
        })
    })
}

/// Rule `supervisor-transition-exhaustive`: every `match` whose arm
/// patterns name `Rung::` variants must name every rung and must not
/// use a `_` wildcard arm — adding a ladder rung must break the build
/// until every transition site decides what to do with it.
pub fn check_rung_matches(f: &LintFile, variants: &[String]) -> Vec<Finding> {
    let c = &f.code;
    let mut out = Vec::new();
    for (k, t) in c.iter().enumerate() {
        if !t.is_ident("match") {
            continue;
        }
        let open = item_end(c, k + 1, &["{"]);
        let arms = match_arms(c.get(open + 1..).unwrap_or_default());
        let named: Vec<&str> = arms
            .iter()
            .flat_map(|pat| pat.windows(4))
            .filter(|w| w[0].is_ident("Rung") && w[1].is_punct(':') && w[2].is_punct(':'))
            .map(|w| w[3].text.as_str())
            .collect();
        if named.is_empty() {
            continue;
        }
        for alt in arms.iter().flat_map(|pat| pat.split(|t| t.is_punct('|'))) {
            if let [wild] = alt {
                if wild.is_ident("_") {
                    let message = "wildcard arm in Rung match; name every rung so new \
                                   rungs force a decision here";
                    out.push(f.finding(RULE_RUNG, wild.line, message.into()));
                }
            }
        }
        for v in variants.iter().filter(|v| !named.contains(&v.as_str())) {
            let message = format!("Rung match does not cover `Rung::{v}`");
            out.push(f.finding(RULE_RUNG, t.line, message));
        }
    }
    out
}

/// Arm patterns of a `match` body (`body` starts after its `{`): the
/// tokens before each top-level `=>`, guards included.
fn match_arms<'t>(body: &'t [&'t Token]) -> Vec<&'t [&'t Token]> {
    let mut arms = Vec::new();
    let (mut depth, mut start, mut in_arm) = (0i32, 0usize, false);
    for (j, t) in body.iter().enumerate() {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    break; // the match body closed
                }
                // A block arm ends at its `}` unless an `else` follows.
                let block_arm_ends = t.text == "}"
                    && depth == 0
                    && in_arm
                    && !body.get(j + 1).is_some_and(|n| n.is_ident("else"));
                if block_arm_ends {
                    (start, in_arm) = (j + 1, false);
                }
            }
            "," if depth == 0 => (start, in_arm) = (j + 1, false),
            "=" if depth == 0 && !in_arm && body.get(j + 1).is_some_and(|n| n.is_punct('>')) => {
                arms.push(&body[start..j]);
                in_arm = true;
            }
            _ => {}
        }
    }
    arms
}

/// Variant names of `enum Rung`, read from its definition.
pub fn rung_variants(f: &LintFile) -> Vec<String> {
    let c = &f.code;
    let Some(k) = c
        .windows(3)
        .position(|w| w[0].is_ident("enum") && w[1].is_ident("Rung") && w[2].is_punct('{'))
    else {
        return Vec::new();
    };
    let mut variants = Vec::new();
    let (mut depth, mut expect_variant) = (0i32, true);
    for t in &c[k + 3..] {
        match t.kind {
            TokenKind::Punct => match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" if depth == 0 => break,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 => expect_variant = true,
                _ => {}
            },
            TokenKind::Ident if depth == 0 && expect_variant => {
                variants.push(t.text.clone());
                expect_variant = false;
            }
            _ => {}
        }
    }
    variants
}

/// Rule `bounded-setpoint-literal`: a numeric set-point literal wrapped
/// straight into `Celsius::new(...)` bypasses the paper's operating
/// envelope; go through `tesla_units::SETPOINT_RANGE` (`.clamp`,
/// `.check`, or its `min()`/`max()` endpoints) instead. Judged per
/// line: the line must name a set-point and not mention the range.
pub fn check_setpoint_literal(f: &LintFile) -> Vec<Finding> {
    let c = &f.code;
    let mut out: Vec<Finding> = Vec::new();
    for k in 0..c.len() {
        let line = c[k].line;
        if !is_numeric_celsius(&c[k..]) || out.last().is_some_and(|x| x.line == line as usize) {
            continue;
        }
        let idents = || {
            c.iter()
                .filter(move |t| t.line == line && t.kind == TokenKind::Ident)
        };
        let names_setpoint = idents().any(|t| words(&t.text).any(|w| w.starts_with("setpoint")));
        if names_setpoint && !idents().any(|t| t.text == "SETPOINT_RANGE") {
            let message = "numeric set-point literal; validate through \
                           tesla_units::SETPOINT_RANGE";
            out.push(f.finding(RULE_SETPOINT, line, message.into()));
        }
    }
    out
}

/// True at `Celsius::new(<numeric literal>`, sign allowed.
fn is_numeric_celsius(c: &[&Token]) -> bool {
    let [ty, colon1, colon2, new, open, rest @ ..] = c else {
        return false;
    };
    if !(ty.is_ident("Celsius")
        && colon1.is_punct(':')
        && colon2.is_punct(':')
        && new.is_ident("new")
        && open.is_punct('('))
    {
        return false;
    }
    let rest = match rest {
        [minus, rest @ ..] if minus.is_punct('-') => rest,
        _ => rest,
    };
    rest.first().is_some_and(|t| t.kind == TokenKind::Number)
}

/// Unit suffixes accepted as the final word of gauge/histogram names.
/// Mirrors the `tesla-units` quantities plus the dimensionless ones the
/// exporters document (see docs/OBSERVABILITY.md "Naming convention").
const UNIT_SUFFIXES: [&str; 10] = [
    "seconds",
    "celsius",
    "kwh",
    "kw",
    "iterations",
    "index",
    "ratio",
    "bytes",
    "connections",
    "samples",
];

/// Rule `metric-name-format`: metric names passed to the tesla-obs
/// constructors (`counter!("…")` or `.counter("…")`, likewise gauge and
/// histogram) must be snake_case; counters must end in `_total`;
/// gauges and histograms must end in a known unit suffix so dashboards
/// never have to guess units. Names that are not string literals are
/// out of scope.
pub fn check_metric_names(f: &LintFile) -> Vec<Finding> {
    let c = &f.code;
    let mut out = Vec::new();
    for (k, t) in c.iter().enumerate() {
        let kind = t.text.as_str();
        if t.kind != TokenKind::Ident || !matches!(kind, "counter" | "gauge" | "histogram") {
            continue;
        }
        let next_is = |n: usize, p: char| c.get(k + n).is_some_and(|t| t.is_punct(p));
        let arg = if next_is(1, '!') && next_is(2, '(') {
            c.get(k + 3)
        } else if k > 0 && c[k - 1].is_punct('.') && next_is(1, '(') {
            c.get(k + 2)
        } else {
            None
        };
        let Some(name) = arg
            .filter(|a| a.kind == TokenKind::Str)
            .and_then(|a| a.text.strip_prefix('"')?.strip_suffix('"'))
        else {
            continue; // name is not a string literal
        };
        if let Some(problem) = metric_name_problem(name, kind) {
            let message = format!("{kind} `{name}`: {problem}");
            out.push(f.finding(RULE_METRIC, t.line, message));
        }
    }
    out
}

/// Why `name` violates the naming convention for `kind`, if it does.
fn metric_name_problem(name: &str, kind: &str) -> Option<String> {
    let snake = !name.is_empty()
        && name.chars().next().is_some_and(|c| c.is_ascii_lowercase())
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        && !name.contains("__")
        && !name.ends_with('_');
    if !snake {
        return Some("not snake_case (lowercase words joined by single underscores)".to_string());
    }
    let last = name.rsplit('_').next().unwrap_or("");
    match kind {
        "counter" => (last != "total").then(|| "counter names must end in `_total`".to_string()),
        _ => (!UNIT_SUFFIXES.contains(&last)).then(|| {
            format!(
                "{kind} names must end in a unit suffix ({})",
                UNIT_SUFFIXES.map(|s| format!("_{s}")).join(", ")
            )
        }),
    }
}

/// One framed-read rule instance: which rule name it reports under,
/// what artifact it protects, and the blessed reader to route through.
/// WAL records and checkpoints use the same magic + version + length +
/// CRC framing, so both rules match the same call sites.
pub struct FramedReadSpec {
    /// Rule identifier reported in findings and matched by allowlists.
    pub rule: &'static str,
    /// Artifact description used in the message ("WAL frame" etc.).
    pub subject: &'static str,
    /// The CRC-checked reader every byte must flow through.
    pub reader: &'static str,
}

/// `no-unchecked-wal-read`: every WAL byte deserialized in the
/// historian must flow through the CRC-checked frame reader, so a torn
/// or bit-flipped record can never be half-applied.
pub const WAL_READ_SPEC: FramedReadSpec = FramedReadSpec {
    rule: RULE_WAL,
    subject: "WAL frame",
    reader: "wal::read_frame",
};

/// `no-unframed-checkpoint-read`: every checkpoint byte deserialized in
/// the control-plane crate must flow through the CRC-checked reader, so
/// a torn checkpoint can never be half-restored into a live supervisor.
pub const CHECKPOINT_READ_SPEC: FramedReadSpec = FramedReadSpec {
    rule: RULE_CHECKPOINT,
    subject: "checkpoint",
    reader: "Checkpoint::decode",
};

/// True for byte-level deserialization: `from_le_bytes`/`from_be_bytes`
/// paths, exact and to-end reads, and buffer reads `.read(&…)` — which
/// leaves `OpenOptions::read(true)` alone.
fn framed_read_site(site: &Site) -> bool {
    match site.kind {
        SiteKind::Path => matches!(site.name.as_str(), "from_le_bytes" | "from_be_bytes"),
        SiteKind::Method => match site.name.as_str() {
            "read_exact" | "read_to_end" => true,
            "read" => site.first_arg == "&",
            _ => false,
        },
        _ => false,
    }
}

/// Table-driven framed-read rule: flags raw byte deserialization
/// outside the blessed CRC-checked reader named by `spec`. The reader
/// itself (and the decoder it calls) carries allowlist comments; any
/// other raw byte parse in scope is a finding.
pub fn check_framed_reads(f: &LintFile, spec: &FramedReadSpec) -> Vec<Finding> {
    f.site_findings(spec.rule, |site| {
        framed_read_site(site).then(|| {
            format!(
                "`{}` deserializes bytes outside the CRC-checked {} reader; route through `{}`",
                site.name, spec.subject, spec.reader
            )
        })
    })
}

/// Rule `no-blocking-io-in-reactor`: the event-loop crates
/// (`crates/reactor`, `crates/net`) must never block a reactor thread —
/// one stalled syscall freezes every connection parked on that shard.
/// Socket I/O must stay non-blocking (`.read(`/`.write(` with
/// `WouldBlock` handling); anything the deadline-path analysis counts
/// as blocking ([`blocking_site`]) is flagged. Deliberate blocking off
/// the reactor threads (ingest writer threads, shutdown joins, idle
/// pacing between sweeps) carries an allowlist comment stating which
/// thread it runs on.
pub fn check_reactor_blocking(f: &LintFile) -> Vec<Finding> {
    f.site_findings(RULE_REACTOR, |site| {
        blocking_site(site).map(|desc| {
            format!(
                "{desc} on a reactor thread; use non-blocking I/O, or move the work \
                 to a dedicated thread and allowlist it with the thread named"
            )
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tesla_analysis::lexer::lex;

    fn run<F>(src: &str, rule: F) -> Vec<Finding>
    where
        F: Fn(&LintFile) -> Vec<Finding>,
    {
        let ws = Workspace::from_sources(vec![("fixture.rs".to_string(), src.to_string())]);
        rule(&LintFile::new(&ws, 0))
    }

    fn active(findings: &[Finding]) -> Vec<&Finding> {
        findings.iter().filter(|f| !f.allowed).collect()
    }

    const RAW_F64_TP: &str = include_str!("../fixtures/raw_f64_tp.rs");
    const RAW_F64_TN: &str = include_str!("../fixtures/raw_f64_tn.rs");
    const UNWRAP_TP: &str = include_str!("../fixtures/unwrap_tp.rs");
    const UNWRAP_TN: &str = include_str!("../fixtures/unwrap_tn.rs");
    const RUNG_TP: &str = include_str!("../fixtures/rung_tp.rs");
    const RUNG_TN: &str = include_str!("../fixtures/rung_tn.rs");
    const SETPOINT_TP: &str = include_str!("../fixtures/setpoint_literal_tp.rs");
    const SETPOINT_TN: &str = include_str!("../fixtures/setpoint_literal_tn.rs");
    const METRIC_TP: &str = include_str!("../fixtures/metric_name_tp.rs");
    const METRIC_TN: &str = include_str!("../fixtures/metric_name_tn.rs");
    const WAL_TP: &str = include_str!("../fixtures/wal_read_tp.rs");
    const WAL_TN: &str = include_str!("../fixtures/wal_read_tn.rs");
    const CHECKPOINT_TP: &str = include_str!("../fixtures/checkpoint_read_tp.rs");
    const CHECKPOINT_TN: &str = include_str!("../fixtures/checkpoint_read_tn.rs");
    const REACTOR_TP: &str = include_str!("../fixtures/reactor_io_tp.rs");
    const REACTOR_TN: &str = include_str!("../fixtures/reactor_io_tn.rs");
    const ZONE_INDEX_TP: &str = include_str!("../fixtures/zone_index_tp.rs");
    const ZONE_INDEX_TN: &str = include_str!("../fixtures/zone_index_tn.rs");

    fn rung_fixture(src: &str) -> Vec<Finding> {
        let variants = ["Normal", "HoldLastSafe", "SafeMode"].map(String::from);
        run(src, |f| check_rung_matches(f, &variants))
    }

    #[test]
    fn raw_f64_true_positive() {
        let findings = run(RAW_F64_TP, |f| check_public_api(f, &RAW_F64_SPEC));
        let active = active(&findings);
        assert!(
            active.len() >= 2,
            "expected signature + field findings, got {findings:?}"
        );
        assert!(active.iter().any(|f| f.message.contains("signature")));
        assert!(active.iter().any(|f| f.message.contains("field")));
    }

    #[test]
    fn raw_f64_true_negative() {
        let findings = run(RAW_F64_TN, |f| check_public_api(f, &RAW_F64_SPEC));
        assert!(
            active(&findings).is_empty(),
            "unexpected findings: {findings:?}"
        );
        // The allowlisted bulk-telemetry line is still reported, as allowed.
        assert!(findings.iter().any(|f| f.allowed));
    }

    #[test]
    fn unwrap_true_positive() {
        let findings = run(UNWRAP_TP, check_unwrap);
        assert_eq!(active(&findings).len(), 1);
        // A `//` inside a string literal is not a comment: the unwrap
        // after it is live code.
        let inline = "fn f(v: Option<u8>) { let url = \"http://host\"; v.unwrap(); }";
        assert_eq!(active(&run(inline, check_unwrap)).len(), 1);
    }

    #[test]
    fn unwrap_true_negative() {
        let findings = run(UNWRAP_TN, check_unwrap);
        assert!(
            active(&findings).is_empty(),
            "unexpected findings: {findings:?}"
        );
    }

    #[test]
    fn rung_true_positive() {
        let findings = rung_fixture(RUNG_TP);
        let active = active(&findings);
        assert!(
            active.iter().any(|f| f.message.contains("wildcard")),
            "wildcard arm must be flagged: {active:?}"
        );
        assert!(
            active.iter().any(|f| f.message.contains("SafeMode")),
            "missing variant must be flagged: {active:?}"
        );
    }

    #[test]
    fn rung_true_negative() {
        let findings = rung_fixture(RUNG_TN);
        assert!(
            active(&findings).is_empty(),
            "unexpected findings: {findings:?}"
        );
    }

    #[test]
    fn setpoint_true_positive() {
        let findings = run(SETPOINT_TP, check_setpoint_literal);
        assert_eq!(active(&findings).len(), 1);
    }

    #[test]
    fn setpoint_true_negative() {
        let findings = run(SETPOINT_TN, check_setpoint_literal);
        assert!(
            active(&findings).is_empty(),
            "unexpected findings: {findings:?}"
        );
    }

    #[test]
    fn metric_name_true_positive() {
        let findings = run(METRIC_TP, check_metric_names);
        let active = active(&findings);
        assert_eq!(active.len(), 6, "expected 6 violations, got {active:?}");
        assert!(active.iter().any(|f| f.message.contains("snake_case")));
        assert!(active.iter().any(|f| f.message.contains("_total")));
        assert!(active.iter().any(|f| f.message.contains("unit suffix")));
    }

    #[test]
    fn metric_name_true_negative() {
        let findings = run(METRIC_TN, check_metric_names);
        assert!(
            active(&findings).is_empty(),
            "unexpected findings: {findings:?}"
        );
        // The allowlisted legacy series is still reported, as allowed.
        assert!(findings.iter().any(|f| f.allowed));
    }

    #[test]
    fn wal_read_true_positive() {
        let findings = run(WAL_TP, |f| check_framed_reads(f, &WAL_READ_SPEC));
        let active = active(&findings);
        assert_eq!(active.len(), 3, "expected 3 violations, got {active:?}");
        assert!(active.iter().any(|f| f.message.contains("from_le_bytes")));
        assert!(active.iter().any(|f| f.message.contains("read_exact")));
        assert!(active.iter().any(|f| f.message.contains("`read`")));
    }

    #[test]
    fn wal_read_true_negative() {
        let findings = run(WAL_TN, |f| check_framed_reads(f, &WAL_READ_SPEC));
        assert!(
            active(&findings).is_empty(),
            "unexpected findings: {findings:?}"
        );
        // The frame-decoder line is still reported, as allowed.
        assert!(findings.iter().any(|f| f.allowed));
    }

    #[test]
    fn checkpoint_read_true_positive() {
        let findings = run(CHECKPOINT_TP, |f| {
            check_framed_reads(f, &CHECKPOINT_READ_SPEC)
        });
        let active = active(&findings);
        assert_eq!(active.len(), 3, "expected 3 violations, got {active:?}");
        assert!(active.iter().any(|f| f.message.contains("from_le_bytes")));
        assert!(active.iter().any(|f| f.message.contains("read_to_end")));
        assert!(active.iter().any(|f| f.message.contains("`read`")));
    }

    #[test]
    fn checkpoint_read_true_negative() {
        let findings = run(CHECKPOINT_TN, |f| {
            check_framed_reads(f, &CHECKPOINT_READ_SPEC)
        });
        assert!(
            active(&findings).is_empty(),
            "unexpected findings: {findings:?}"
        );
        // The checked-reader line is still reported, as allowed.
        assert!(findings.iter().any(|f| f.allowed));
    }

    #[test]
    fn reactor_blocking_true_positive() {
        let findings = run(REACTOR_TP, check_reactor_blocking);
        let active = active(&findings);
        assert_eq!(active.len(), 10, "expected 10 violations, got {active:?}");
        for spelled in [
            "read_exact",
            "read_line",
            "write_all",
            "flush",
            "thread::sleep",
            "recv",
            "wait",
            "join",
            "set_nonblocking",
            "fs::",
        ] {
            assert!(
                active.iter().any(|f| f.message.contains(spelled)),
                "`{spelled}` must be flagged: {active:?}"
            );
        }
    }

    #[test]
    fn reactor_blocking_true_negative() {
        let findings = run(REACTOR_TN, check_reactor_blocking);
        assert!(
            active(&findings).is_empty(),
            "unexpected findings: {findings:?}"
        );
        // The writer-thread condvar wait is still reported, as allowed.
        assert!(findings.iter().any(|f| f.allowed));
    }

    #[test]
    fn zone_index_true_positive() {
        let findings = run(ZONE_INDEX_TP, |f| check_public_api(f, &ZONE_INDEX_SPEC));
        let active = active(&findings);
        assert!(
            active.len() >= 2,
            "expected signature + field findings, got {findings:?}"
        );
        assert!(active.iter().any(|f| f.message.contains("signature")));
        assert!(active.iter().any(|f| f.message.contains("field")));
    }

    #[test]
    fn zone_index_true_negative() {
        let findings = run(ZONE_INDEX_TN, |f| check_public_api(f, &ZONE_INDEX_SPEC));
        assert!(
            active(&findings).is_empty(),
            "unexpected findings: {findings:?}"
        );
        // The allowlisted wire-cursor line is still reported, as allowed.
        assert!(findings.iter().any(|f| f.allowed));
    }

    #[test]
    fn metric_name_problem_rules() {
        assert!(metric_name_problem("tesla_control_steps_total", "counter").is_none());
        assert!(metric_name_problem("tesla_decide_seconds", "histogram").is_none());
        assert!(metric_name_problem("supervisor_rung_index", "gauge").is_none());
        assert!(metric_name_problem("steps", "counter").is_some());
        assert!(metric_name_problem("Steps_total", "counter").is_some());
        assert!(metric_name_problem("decide_micros", "histogram").is_some());
        assert!(metric_name_problem("", "gauge").is_some());
    }

    #[test]
    fn allow_comment_on_preceding_line_suppresses() {
        let src = "fn f() {\n// lint:allow(no-unwrap-in-control-path): invariant held\n\
                   let x = y.unwrap();\n}\n";
        let findings = run(src, check_unwrap);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].allowed);
    }

    const TEST_MASK_REGRESSION: &str = include_str!("../fixtures/test_mask_regression.rs");

    /// Regression: a comment containing `{` between the attribute and
    /// the module header must not derail the test scope, and
    /// `#[cfg(test)]` on a `;`-terminated item must not swallow the
    /// live code that follows it. A line is test code when its first
    /// token lies in one of the parser's test spans.
    #[test]
    fn test_mask_regression_fixture() {
        let tokens = lex(TEST_MASK_REGRESSION);
        let spans = test_spans(&tokens);
        for (i, l) in TEST_MASK_REGRESSION.lines().enumerate() {
            let Some(first) = tokens.iter().position(|t| t.line as usize == i + 1) else {
                continue;
            };
            let masked = spans.iter().any(|&(s, e)| s <= first && first < e);
            if l.contains("MASKED") {
                assert!(masked, "line {} should be masked: {l}", i + 1);
            }
            if l.contains("LIVE") {
                assert!(!masked, "line {} should be live: {l}", i + 1);
            }
        }
        // The unwrap in live code must be caught once the mask is right.
        let findings = run(TEST_MASK_REGRESSION, check_unwrap);
        assert_eq!(
            active(&findings).len(),
            1,
            "exactly the live-path unwrap must be flagged: {findings:?}"
        );
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        for src in [
            "fn a() {}\n#[cfg(test)] mod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}\n",
            "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}\n",
        ] {
            assert!(run(src, check_unwrap).is_empty(), "{src}");
        }
    }

    #[test]
    fn rung_variant_extraction() {
        let src = "/// doc\npub enum Rung {\n    /// a\n    Normal,\n    HoldLastSafe,\n    SafeMode,\n}\n";
        let ws = Workspace::from_sources(vec![("supervisor.rs".to_string(), src.to_string())]);
        assert_eq!(
            rung_variants(&LintFile::new(&ws, 0)),
            ["Normal", "HoldLastSafe", "SafeMode"]
        );
    }
}
