//! The six invariant rules (R1–R6). Each rule is a pure function from a
//! scanned [`SourceFile`] (plus configuration) to a list of violations, so
//! fixtures can exercise rules one at a time and the driver can run them all.
//!
//! | rule | invariant it protects |
//! |------|----------------------|
//! | R1   | byte-identical fingerprints: no hasher-ordered containers in fingerprinted crates |
//! | R2   | determinism: no wall-clock reads outside allowlisted measuring sites |
//! | R3   | exact accounting: no floats in cost/fingerprint arithmetic |
//! | R4   | phase conservation: every charge site lexically inside a `Network::span` closure |
//! | R5   | fleet-runner thread safety: no `static mut` / `thread_rng` / interior-mutability cells |
//! | R6   | offline-shim integrity: only `crates/compat/` defines shim namespaces; users stay inside the shimmed API subset |

use crate::config::Config;
use crate::scanner::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// One diagnostic, pointing at a workspace-relative file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

/// True when `path` sits under any of the `/`-separated prefixes.
fn under(path: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| path == p || path.starts_with(&format!("{p}/")))
}

fn push(
    out: &mut Vec<Violation>,
    file: &SourceFile,
    at: usize,
    rule: &'static str,
    message: String,
) {
    out.push(Violation { path: file.rel_path.clone(), line: file.line_of(at), rule, message });
}

// ---------------------------------------------------------------------------
// R1 — nondeterministic ordering
// ---------------------------------------------------------------------------

/// Hash-seeded container (or hasher) tokens that have no business in a
/// fingerprinted crate: their iteration order varies per process *and per
/// instance*, so any loop over them is a latent byte-identity bug.
const R1_TOKENS: &[&str] =
    &["HashMap", "HashSet", "DefaultHasher", "RandomState", "hash_map", "hash_set"];

pub fn r1_ordering(file: &SourceFile, cfg: &Config) -> Vec<Violation> {
    let mut out = Vec::new();
    if !under(&file.rel_path, &cfg.r1_paths) {
        return out;
    }
    for token in R1_TOKENS {
        for at in file.word_occurrences(token) {
            if file.in_test(at) {
                continue;
            }
            push(
                &mut out,
                file,
                at,
                "R1",
                format!(
                    "`{token}` in a fingerprinted crate: hasher-seeded iteration order is \
                     nondeterministic — use BTreeMap/BTreeSet or a sorted table"
                ),
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R2 — wall-clock reads
// ---------------------------------------------------------------------------

const R2_TOKENS: &[&str] = &["Instant", "SystemTime"];

pub fn r2_wallclock(file: &SourceFile, cfg: &Config) -> Vec<Violation> {
    let mut out = Vec::new();
    if cfg.r2_exempt.iter().any(|p| p == &file.rel_path) {
        return out;
    }
    for token in R2_TOKENS {
        for at in file.word_occurrences(token) {
            if file.in_test(at) {
                continue;
            }
            push(
                &mut out,
                file,
                at,
                "R2",
                format!(
                    "`{token}` outside an allowlisted measuring site: seconds \
                     are machine noise and must never feed a deterministic path"
                ),
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R3 — floats in accounting
// ---------------------------------------------------------------------------

pub fn r3_floats(file: &SourceFile, cfg: &Config) -> Vec<Violation> {
    let mut out = Vec::new();
    if !cfg.r3_files.iter().any(|p| p == &file.rel_path) {
        return out;
    }
    for token in ["f64", "f32", "powf", "powi"] {
        for at in file.word_occurrences(token) {
            push(
                &mut out,
                file,
                at,
                "R3",
                format!("`{token}` in cost/fingerprint accounting: counters are exact integers"),
            );
        }
    }
    // Float literals: digits '.' digits (tuple indices like `.0` have no
    // digit before the dot; ranges `0..2` have no digit directly after one).
    let chars: Vec<char> = file.stripped.chars().collect();
    for i in 1..chars.len().saturating_sub(1) {
        if chars[i] == '.' && chars[i - 1].is_ascii_digit() && chars[i + 1].is_ascii_digit() {
            push(
                &mut out,
                file,
                i,
                "R3",
                "float literal in cost/fingerprint accounting: counters are exact integers"
                    .to_string(),
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R4 — unspanned charge sites
// ---------------------------------------------------------------------------

/// Charge-call shapes. `.record_message_in(` is exempt by design: it names
/// its phase explicitly in the call, which is statically verifiable
/// attribution (the reason the method exists).
const R4_CALLS: &[&str] = &[".record_message(", ".record_time(", ".record_broadcast_echo("];

pub fn r4_unspanned_charges(file: &SourceFile, cfg: &Config) -> Vec<Violation> {
    let mut out = Vec::new();
    if !under(&file.rel_path, &cfg.r4_paths) {
        return out;
    }
    for call in R4_CALLS {
        for at in file.substring_occurrences(call) {
            if file.in_test(at) || file.in_span(at) {
                continue;
            }
            let name = call.trim_start_matches('.').trim_end_matches('(');
            push(
                &mut out,
                file,
                at,
                "R4",
                format!(
                    "`{name}` charge site is not lexically inside a `Network::span(...)` \
                     closure: the cost would land in the innermost *caller* span (or the \
                     Delivery default), which the static conservation check cannot verify — \
                     wrap it in a span, use `record_message_in(phase, ..)`, or allowlist it \
                     with a justification"
                ),
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R5 — thread-safety hazards for the fleet runner
// ---------------------------------------------------------------------------

const R5_TOKENS: &[&str] = &["thread_rng", "RefCell", "UnsafeCell", "OnceCell"];

pub fn r5_thread_hazards(file: &SourceFile, cfg: &Config) -> Vec<Violation> {
    let mut out = Vec::new();
    if !under(&file.rel_path, &cfg.r5_paths) {
        return out;
    }
    for token in R5_TOKENS {
        for at in file.word_occurrences(token) {
            if file.in_test(at) {
                continue;
            }
            push(
                &mut out,
                file,
                at,
                "R5",
                format!(
                    "`{token}` in a crate the fleet runner will shard across scoped \
                     threads: replay cells must be pure functions of their seed with \
                     `Send + Sync` state"
                ),
            );
        }
    }
    // `Cell<` as a word (so `RefCell`/`UnsafeCell` are not double-counted).
    for at in file.word_occurrences("Cell") {
        if file.in_test(at) {
            continue;
        }
        push(
            &mut out,
            file,
            at,
            "R5",
            "`Cell` in a crate the fleet runner will shard across scoped threads: \
             interior mutability is not `Sync`"
                .to_string(),
        );
    }
    // `static mut` (two tokens).
    for at in file.word_occurrences("static") {
        if file.in_test(at) {
            continue;
        }
        let tail: String = file.stripped.chars().skip(at).take(24).collect::<String>();
        let mut words = tail.split_whitespace();
        if words.next() == Some("static") && words.next() == Some("mut") {
            push(
                &mut out,
                file,
                at,
                "R5",
                "`static mut` is a data race waiting for the fleet runner's scoped threads"
                    .to_string(),
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R6 — compat-shim drift
// ---------------------------------------------------------------------------

/// Exported names of every compat shim module, keyed by module path
/// (`"rand"`, `"rand::rngs"`, ...). A `"*"` member marks a wildcard
/// re-export (anything goes).
#[derive(Debug, Default, Clone)]
pub struct ExportMap {
    sets: BTreeMap<String, BTreeSet<String>>,
}

impl ExportMap {
    /// Builds the map by scanning every `.rs` file under
    /// `<compat_root>/<shim>/src/`, attributing items to modules by file
    /// path (`lib.rs` ⇒ crate root, `foo.rs`/`foo/mod.rs` ⇒ `crate::foo`).
    pub fn from_compat(root: &std::path::Path, shims: &[String]) -> Result<ExportMap, String> {
        let mut map = ExportMap::default();
        for shim in shims {
            let src = root.join(shim).join("src");
            if !src.is_dir() {
                return Err(format!("compat shim `{shim}` has no src/ under {}", root.display()));
            }
            let mut files = Vec::new();
            collect_rs(&src, &mut files)?;
            files.sort();
            for path in files {
                let rel = path.strip_prefix(&src).unwrap_or(&path);
                let mut module = shim.clone();
                for comp in rel.components() {
                    let name = comp.as_os_str().to_string_lossy();
                    let stem = name.trim_end_matches(".rs");
                    if stem == "lib" || stem == "mod" {
                        continue;
                    }
                    module.push_str("::");
                    module.push_str(stem);
                }
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("read {}: {e}", path.display()))?;
                let stripped = crate::scanner::strip(&text);
                extract_exports(&stripped, map.sets.entry(module).or_default());
            }
        }
        Ok(map)
    }

    /// Validates one `::`-separated path (e.g. `["rand", "rngs", "StdRng"]`)
    /// against the shimmed surface, as deep as the map has knowledge.
    /// Returns the offending segment on failure.
    pub fn validate(&self, segments: &[String]) -> Result<(), String> {
        let mut prefix = String::new();
        for (i, seg) in segments.iter().enumerate() {
            if i == 0 {
                prefix = seg.clone();
                continue;
            }
            if seg == "self" || seg == "*" {
                continue;
            }
            match self.sets.get(&prefix) {
                Some(set) => {
                    if !set.contains(seg.as_str()) && !set.contains("*") {
                        return Err(seg.clone());
                    }
                }
                // Deeper than the map knows (e.g. methods on a shim type):
                // nothing further to check.
                None => return Ok(()),
            }
            prefix.push_str("::");
            prefix.push_str(seg);
        }
        Ok(())
    }

    /// Test-only construction.
    pub fn with_module(mut self, module: &str, names: &[&str]) -> Self {
        self.sets
            .entry(module.to_string())
            .or_default()
            .extend(names.iter().map(|s| s.to_string()));
        self
    }
}

fn collect_rs(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Harvests exported names from blanked shim source. Methods inside `impl`
/// blocks are swept up too; that only widens the allowed surface (methods
/// are not path-addressable), never narrows it — acceptable for a tripwire.
fn extract_exports(stripped: &str, into: &mut BTreeSet<String>) {
    let words: Vec<(usize, String)> = tokenize_idents(stripped);
    for (idx, (at, w)) in words.iter().enumerate() {
        if w == "pub" {
            // `pub(crate)` and friends are not exports.
            let after: String = stripped.chars().skip(at + 3).take(2).collect();
            if after.trim_start().starts_with('(') {
                continue;
            }
            match words.get(idx + 1).map(|(_, w)| w.as_str()) {
                Some("fn" | "struct" | "enum" | "trait" | "type" | "const" | "static" | "mod") => {
                    if let Some((_, name)) = words.get(idx + 2) {
                        into.insert(name.clone());
                    }
                }
                Some("use") => {
                    // Capture the use-tree text up to `;`.
                    let start = words[idx + 1].0 + 3;
                    let rest: String = stripped.chars().skip(start).collect();
                    if let Some(end) = rest.find(';') {
                        harvest_use_leaves(&rest[..end], into);
                    }
                }
                _ => {}
            }
        } else if w == "macro_rules" || w == "proc_macro_derive" {
            // Both export the identifier that follows (`macro_rules! name`,
            // `#[proc_macro_derive(Name)]`).
            if let Some((_, name)) = words.get(idx + 1) {
                into.insert(name.clone());
            }
        }
    }
}

/// Leaf names of a use-tree: `a::b::{C, D as E, f::*}` ⇒ {C, E, *}.
fn harvest_use_leaves(tree: &str, into: &mut BTreeSet<String>) {
    let tree = tree.trim();
    if let Some(open) = tree.find('{') {
        let inner = tree[open + 1..tree.rfind('}').unwrap_or(tree.len())].to_string();
        for part in split_commas(&inner) {
            harvest_use_leaves(&part, into);
        }
        return;
    }
    let leaf = tree.split("::").last().unwrap_or(tree).trim();
    if let Some((_, alias)) = leaf.split_once(" as ") {
        into.insert(alias.trim().to_string());
    } else if !leaf.is_empty() {
        into.insert(leaf.to_string());
    }
}

fn split_commas(text: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut depth = 0;
    let mut cur = String::new();
    for c in text.chars() {
        match c {
            '{' => {
                depth += 1;
                cur.push(c);
            }
            '}' => {
                depth -= 1;
                cur.push(c);
            }
            ',' if depth == 0 => parts.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        parts.push(cur);
    }
    parts
}

fn tokenize_idents(text: &str) -> Vec<(usize, String)> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if chars[i].is_alphabetic() || chars[i] == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            out.push((start, chars[start..i].iter().collect()));
        } else {
            i += 1;
        }
    }
    out
}

pub fn r6_compat_drift(file: &SourceFile, cfg: &Config, exports: &ExportMap) -> Vec<Violation> {
    let mut out = Vec::new();
    let chars: Vec<char> = file.stripped.chars().collect();

    // (a) No non-compat module may *define* a shim namespace.
    for at in file.word_occurrences("mod") {
        let rest: String = chars[at..chars.len().min(at + 40)].iter().collect();
        let mut words = rest.split_whitespace();
        if words.next() != Some("mod") {
            continue;
        }
        if let Some(next) = words.next() {
            let name = next.trim_end_matches(|c: char| !c.is_alphanumeric() && c != '_');
            if cfg.shims.iter().any(|s| s == name) {
                push(
                    &mut out,
                    file,
                    at,
                    "R6",
                    format!(
                        "module `{name}` shadows a compat shim namespace: only \
                         `{}` may define items under `{name}`",
                        cfg.compat_root
                    ),
                );
            }
        }
    }

    // (b) Every `shim::...` path must stay within the shimmed API subset —
    // otherwise the eventual swap back to the real crates.io versions (see
    // the root Cargo.toml) silently breaks.
    for shim in &cfg.shims {
        for at in file.word_occurrences(shim) {
            // Must be a path root: followed by `::`, not preceded by `::`.
            let end = at + shim.chars().count();
            if chars.get(end) != Some(&':') || chars.get(end + 1) != Some(&':') {
                continue;
            }
            if at >= 2 && chars[at - 1] == ':' && chars[at - 2] == ':' {
                continue;
            }
            for segments in parse_path_tails(&chars, end + 2, shim) {
                if let Err(bad) = exports.validate(&segments) {
                    push(
                        &mut out,
                        file,
                        at,
                        "R6",
                        format!(
                            "`{}` is not part of the `{shim}` compat shim's API subset \
                             (offending segment: `{bad}`): extend the shim under `{}` \
                             or stay inside the shimmed surface",
                            segments.join("::"),
                            cfg.compat_root
                        ),
                    );
                }
            }
        }
    }
    out
}

/// Parses the path(s) continuing after `shim::`, expanding one level of
/// `{...}` groups (recursively), each returned as full segment lists rooted
/// at the shim name.
fn parse_path_tails(chars: &[char], i: usize, shim: &str) -> Vec<Vec<String>> {
    fn read_tail(chars: &[char], mut i: usize, prefix: Vec<String>, out: &mut Vec<Vec<String>>) {
        while i < chars.len() && chars[i].is_whitespace() {
            i += 1;
        }
        if i < chars.len() && chars[i] == '{' {
            // Group: split on top-level commas, recurse on each piece.
            if let Some(end) = super_match(chars, i) {
                let inner: String = chars[i + 1..end - 1].iter().collect();
                for part in split_commas(&inner) {
                    let part_chars: Vec<char> = part.chars().collect();
                    read_tail(&part_chars, 0, prefix.clone(), out);
                }
                return;
            }
            out.push(prefix);
            return;
        }
        if i < chars.len() && chars[i] == '*' {
            let mut full = prefix;
            full.push("*".into());
            out.push(full);
            return;
        }
        // Identifier segment.
        let start = i;
        while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
            i += 1;
        }
        if i == start {
            out.push(prefix);
            return;
        }
        let seg: String = chars[start..i].iter().collect();
        let mut full = prefix.clone();
        full.push(seg);
        // ` as Alias` — the path itself is what must be valid.
        while i < chars.len() && chars[i].is_whitespace() {
            i += 1;
        }
        if chars.get(i) == Some(&'a')
            && chars.get(i + 1) == Some(&'s')
            && chars.get(i + 2).is_some_and(|c| c.is_whitespace())
        {
            out.push(full);
            return;
        }
        if chars.get(i) == Some(&':') && chars.get(i + 1) == Some(&':') {
            // Continue with the longer prefix.
            return read_tail(chars, i + 2, full, out);
        }
        out.push(full);
    }
    fn super_match(chars: &[char], open_at: usize) -> Option<usize> {
        let mut depth = 0usize;
        for (k, &c) in chars.iter().enumerate().skip(open_at) {
            if c == '{' {
                depth += 1;
            } else if c == '}' {
                depth -= 1;
                if depth == 0 {
                    return Some(k + 1);
                }
            }
        }
        None
    }
    let mut out = Vec::new();
    read_tail(chars, i, vec![shim.to_string()], &mut out);
    out
}

/// Runs every rule over one file.
pub fn check_file(file: &SourceFile, cfg: &Config, exports: &ExportMap) -> Vec<Violation> {
    let mut out = Vec::new();
    out.extend(r1_ordering(file, cfg));
    out.extend(r2_wallclock(file, cfg));
    out.extend(r3_floats(file, cfg));
    out.extend(r4_unspanned_charges(file, cfg));
    out.extend(r5_thread_hazards(file, cfg));
    out.extend(r6_compat_drift(file, cfg, exports));
    out
}
