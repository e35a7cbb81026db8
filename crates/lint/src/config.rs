//! `lint.toml` — rule scopes and the explicit allowlist.
//!
//! The workspace has no crates.io access, so this is a hand-rolled parser for
//! the small TOML subset the config actually uses: `[table]` headers,
//! `[[array-of-tables]]` headers, `key = "string"` and
//! `key = ["a", "b", ...]` (single- or multi-line arrays), and `#` comments.
//! Anything outside that subset is a hard error — config typos must fail the
//! build, not silently relax a rule.

use std::collections::BTreeMap;

/// A parsed value: the subset only needs strings and string arrays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TomlValue {
    Str(String),
    List(Vec<String>),
}

impl TomlValue {
    fn as_str(&self) -> Option<&str> {
        match self {
            TomlValue::Str(s) => Some(s),
            TomlValue::List(_) => None,
        }
    }

    fn as_list(&self) -> Option<&[String]> {
        match self {
            TomlValue::List(v) => Some(v),
            TomlValue::Str(_) => None,
        }
    }
}

/// Tables in document order: `[[allow]]` repeats its path once per entry.
#[derive(Debug, Default)]
pub struct TomlDoc {
    pub tables: Vec<(String, BTreeMap<String, TomlValue>)>,
}

impl TomlDoc {
    /// The single table at `path`, if present.
    fn table(&self, path: &str) -> Option<&BTreeMap<String, TomlValue>> {
        self.tables.iter().find(|(p, _)| p == path).map(|(_, t)| t)
    }

    /// Every table at `path` (array-of-tables).
    fn tables_at<'a>(
        &'a self,
        path: &'a str,
    ) -> impl Iterator<Item = &'a BTreeMap<String, TomlValue>> {
        self.tables.iter().filter(move |(p, _)| p == path).map(|(_, t)| t)
    }
}

/// Parses the TOML subset. Errors carry a 1-based line number.
pub fn parse_toml(text: &str) -> Result<TomlDoc, String> {
    let mut doc = TomlDoc::default();
    let mut current: BTreeMap<String, TomlValue> = BTreeMap::new();
    let mut current_path = String::new();
    let mut started = false;

    let mut lines = text.lines().enumerate().peekable();
    while let Some((idx, raw_line)) = lines.next() {
        let line = strip_comment(raw_line).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            if started {
                doc.tables.push((current_path.clone(), std::mem::take(&mut current)));
            }
            current_path = header.trim().to_string();
            started = true;
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            if started {
                doc.tables.push((current_path.clone(), std::mem::take(&mut current)));
            }
            current_path = header.trim().to_string();
            started = true;
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(format!("line {}: expected `key = value`, got `{line}`", idx + 1));
        };
        let key = line[..eq].trim().to_string();
        let mut value = line[eq + 1..].trim().to_string();
        // Multi-line array: keep consuming lines until brackets balance.
        if value.starts_with('[') {
            while !array_closed(&value) {
                let Some((_, next)) = lines.next() else {
                    return Err(format!("line {}: unterminated array for `{key}`", idx + 1));
                };
                value.push(' ');
                value.push_str(strip_comment(next).trim());
            }
        }
        let parsed = parse_value(&value).map_err(|e| format!("line {}: {e}", idx + 1))?;
        if !started {
            // Top-level keys live in the root table "".
            started = true;
            current_path = String::new();
        }
        if current.insert(key.clone(), parsed).is_some() {
            return Err(format!("line {}: duplicate key `{key}`", idx + 1));
        }
    }
    if started {
        doc.tables.push((current_path, current));
    }
    Ok(doc)
}

fn strip_comment(line: &str) -> &str {
    // A `#` outside a quoted string starts a comment.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn array_closed(text: &str) -> bool {
    let mut in_str = false;
    let mut depth = 0i32;
    for c in text.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

fn parse_value(text: &str) -> Result<TomlValue, String> {
    let text = text.trim();
    if let Some(inner) = text.strip_prefix('[').and_then(|t| t.strip_suffix(']')) {
        let mut items = Vec::new();
        for piece in split_top_level(inner) {
            let piece = piece.trim();
            if piece.is_empty() {
                continue;
            }
            match parse_value(piece)? {
                TomlValue::Str(s) => items.push(s),
                TomlValue::List(_) => return Err("nested arrays are not supported".into()),
            }
        }
        return Ok(TomlValue::List(items));
    }
    if let Some(inner) = text.strip_prefix('"').and_then(|t| t.strip_suffix('"')) {
        return Ok(TomlValue::Str(inner.replace("\\\"", "\"").replace("\\\\", "\\")));
    }
    Err(format!("unsupported value `{text}` (only strings and string arrays)"))
}

fn split_top_level(text: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in text.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => parts.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        parts.push(cur);
    }
    parts
}

/// One allowlist entry: suppresses R`rule` violations in `path` whose raw
/// source line contains `contains`. The `reason` is mandatory — an allowlist
/// without justifications is how invariants rot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    pub rule: String,
    pub path: String,
    pub contains: String,
    pub reason: String,
}

/// The full lint configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Directory roots scanned for `.rs` files (workspace-relative).
    pub source_roots: Vec<String>,
    /// Path prefixes excluded from the scan.
    pub exclude: Vec<String>,
    /// Where the compat shims live (R6's one legitimate definer).
    pub compat_root: String,
    /// R1: crates whose non-test code must stay hash-iteration-free.
    pub r1_paths: Vec<String>,
    /// R2: files exempt from the wall-clock ban.
    pub r2_exempt: Vec<String>,
    /// R3: accounting files that must stay float-free.
    pub r3_files: Vec<String>,
    /// R4: crates whose charge sites must be lexically in-span.
    pub r4_paths: Vec<String>,
    /// R5: crates the fleet runner will shard across threads.
    pub r5_paths: Vec<String>,
    /// R6: shim namespaces only `crates/compat/` may define.
    pub shims: Vec<String>,
    /// Explicit, justified suppressions.
    pub allow: Vec<AllowEntry>,
}

impl Config {
    /// Parses and validates `lint.toml` text.
    pub fn from_toml(text: &str) -> Result<Config, String> {
        let doc = parse_toml(text)?;
        let get_list = |table: &str, key: &str| -> Result<Vec<String>, String> {
            let t = doc
                .table(table)
                .ok_or_else(|| format!("missing required table `[{table}]` in lint.toml"))?;
            let v = t
                .get(key)
                .ok_or_else(|| format!("missing `{key}` in `[{table}]`"))?
                .as_list()
                .ok_or_else(|| format!("`{table}.{key}` must be a string array"))?;
            Ok(v.to_vec())
        };
        let workspace = doc
            .table("workspace")
            .ok_or_else(|| "missing `[workspace]` table in lint.toml".to_string())?;
        let compat_root = workspace
            .get("compat-root")
            .and_then(|v| v.as_str())
            .ok_or_else(|| "missing string `workspace.compat-root`".to_string())?
            .to_string();

        let mut allow = Vec::new();
        for (i, t) in doc.tables_at("allow").enumerate() {
            let field = |k: &str| -> Result<String, String> {
                t.get(k)
                    .and_then(|v| v.as_str())
                    .map(str::to_string)
                    .ok_or_else(|| format!("allow entry #{} is missing string `{k}`", i + 1))
            };
            let entry = AllowEntry {
                rule: field("rule")?,
                path: field("path")?,
                contains: field("contains")?,
                reason: field("reason")?,
            };
            if entry.reason.trim().len() < 10 {
                return Err(format!(
                    "allow entry #{} ({} in {}): the reason must be a real justification, got `{}`",
                    i + 1,
                    entry.rule,
                    entry.path,
                    entry.reason
                ));
            }
            if !matches!(entry.rule.as_str(), "R1" | "R2" | "R3" | "R4" | "R5" | "R6") {
                return Err(format!("allow entry #{}: unknown rule `{}`", i + 1, entry.rule));
            }
            allow.push(entry);
        }

        Ok(Config {
            source_roots: get_list("workspace", "source-roots")?,
            exclude: get_list("workspace", "exclude")?,
            compat_root,
            r1_paths: get_list("rules.R1", "paths")?,
            r2_exempt: get_list("rules.R2", "exempt")?,
            r3_files: get_list("rules.R3", "files")?,
            r4_paths: get_list("rules.R4", "paths")?,
            r5_paths: get_list("rules.R5", "paths")?,
            shims: get_list("rules.R6", "shims")?,
            allow,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
[workspace]
source-roots = ["crates", "src"]
exclude = ["crates/compat"]
compat-root = "crates/compat"

[rules.R1]
paths = ["crates/graphs"]
[rules.R2]
exempt = ["crates/obs/src/profile.rs"]
[rules.R3]
files = ["crates/congest/src/cost.rs"]
[rules.R4]
paths = ["crates/congest"]
[rules.R5]
paths = ["crates/core"]
[rules.R6]
shims = ["rand", "serde"]

[[allow]]
rule = "R2"
path = "crates/congest/src/model.rs"
contains = "Instant::now"
reason = "profile-gated clock read, never fingerprinted"
"#;

    #[test]
    fn parses_the_full_shape() {
        let cfg = Config::from_toml(MINIMAL).unwrap();
        assert_eq!(cfg.source_roots, ["crates", "src"]);
        assert_eq!(cfg.r1_paths, ["crates/graphs"]);
        assert_eq!(cfg.shims, ["rand", "serde"]);
        assert_eq!(cfg.allow.len(), 1);
        assert_eq!(cfg.allow[0].rule, "R2");
    }

    #[test]
    fn multiline_arrays_and_comments() {
        let doc = parse_toml("[t]\nxs = [\n  \"a\", # one\n  \"b\",\n]\n").unwrap();
        assert_eq!(
            doc.table("t").unwrap().get("xs"),
            Some(&TomlValue::List(vec!["a".into(), "b".into()]))
        );
    }

    #[test]
    fn rejects_thin_reasons() {
        let bad = MINIMAL.replace("profile-gated clock read, never fingerprinted", "ok");
        let err = Config::from_toml(&bad).unwrap_err();
        assert!(err.contains("real justification"), "{err}");
    }

    #[test]
    fn rejects_unknown_rules_and_missing_tables() {
        let bad = MINIMAL.replace("rule = \"R2\"", "rule = \"R9\"");
        assert!(Config::from_toml(&bad).unwrap_err().contains("unknown rule"));
        let missing = MINIMAL.replace("[rules.R5]", "[rules.R5x]");
        assert!(Config::from_toml(&missing).unwrap_err().contains("rules.R5"));
    }

    #[test]
    fn rejects_non_subset_values() {
        assert!(parse_toml("[t]\nx = 3\n").is_err());
        assert!(parse_toml("[t]\nbroken\n").is_err());
        assert!(parse_toml("[t]\nx = \"a\"\nx = \"b\"\n").is_err());
    }
}
