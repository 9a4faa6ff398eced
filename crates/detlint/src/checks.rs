//! The DL001–DL010 determinism and concurrency checks over a token stream.
//!
//! Every check is a token-sequence pattern plus a little scope context
//! (brace depth, the enclosing `fn`/`impl`/`mod` names, whether we are
//! inside a `use` statement). There is deliberately no type inference and
//! no `syn`: the patterns are tuned so that on *this* workspace every raw
//! finding is either a true hazard or a justified, documented suppression —
//! the fixture corpus under `tests/fixtures/source/` pins both directions.
//!
//! Test code is exempt: items under `#[cfg(test)]` or `#[test]` are skipped
//! wholesale, because nondeterminism that can only reach a test assertion
//! (temp-file names from thread ids, wall-clock timeouts) is not a result
//! hazard.

use std::collections::BTreeSet;

use crate::lexer::{lex, Token, TokenKind};

/// One raw (pre-suppression) source finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Diagnostic code (`DL001` … `DL010`).
    pub code: &'static str,
    /// 1-based line of the offending token.
    pub line: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

/// Iteration methods whose visit order leaks a hash map's nondeterministic
/// layout.
const ORDER_LEAKING_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// `std::env` readers that make a run depend on ambient process state.
const ENV_READERS: &[&str] = &[
    "var",
    "var_os",
    "vars",
    "vars_os",
    "args",
    "args_os",
    "set_var",
    "remove_var",
];

const INT_CAST_TARGETS: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Function-name fragments marking a thread-order-sensitive merge site
/// (DL003 context).
const MERGE_CONTEXT: &[&str] = &["merge", "combine", "reduce", "aggregat"];

/// Function-name or file-name fragments marking fingerprint / WAL framing
/// code (DL009 context).
const FRAMING_CONTEXT: &[&str] = &["fingerprint", "frame", "wal", "checkpoint", "checksum"];

/// Runs every check over one file. `rel_path` is the workspace-relative
/// path (used for the per-crate scoping of DL007/DL008 and the file-name
/// contexts of DL003/DL009); findings are raw — suppression is layered on
/// by the caller.
#[must_use]
pub fn check_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let lexed = lex(source);
    Checker::new(rel_path, &lexed.tokens).run()
}

struct Scope {
    depth: u32,
    name: String,
}

struct Checker<'a> {
    rel_path: &'a str,
    file_stem: String,
    tokens: &'a [Token],
    depth: u32,
    scopes: Vec<Scope>,
    pending_scope: Option<String>,
    in_use_stmt: bool,
    /// Identifiers known (by declaration or construction) to be
    /// `HashMap`/`HashSet` values.
    map_idents: BTreeSet<String>,
    findings: Vec<Finding>,
}

impl<'a> Checker<'a> {
    fn new(rel_path: &'a str, tokens: &'a [Token]) -> Self {
        let file_stem = rel_path
            .rsplit('/')
            .next()
            .unwrap_or(rel_path)
            .trim_end_matches(".rs")
            .to_owned();
        Checker {
            rel_path,
            file_stem,
            tokens,
            depth: 0,
            scopes: Vec::new(),
            pending_scope: None,
            in_use_stmt: false,
            map_idents: BTreeSet::new(),
            findings: Vec::new(),
        }
    }

    fn ident_at(&self, i: usize) -> Option<&str> {
        self.tokens.get(i).and_then(|t| t.kind.ident())
    }

    fn punct_at(&self, i: usize, c: char) -> bool {
        self.tokens.get(i).is_some_and(|t| t.kind.is_punct(c))
    }

    /// `::` at position `i` (two adjacent colon puncts).
    fn path_sep_at(&self, i: usize) -> bool {
        self.punct_at(i, ':') && self.punct_at(i + 1, ':')
    }

    fn push(&mut self, code: &'static str, line: u32, message: String, hint: &str) {
        // One finding per (code, line): compound expressions often trip a
        // pattern twice.
        if self
            .findings
            .iter()
            .any(|f| f.code == code && f.line == line)
        {
            return;
        }
        self.findings.push(Finding {
            code,
            line,
            message,
            hint: hint.to_owned(),
        });
    }

    /// Innermost enclosing scope name matching `fragments`
    /// (case-insensitive), if any.
    fn scope_matches(&self, fragments: &[&str]) -> bool {
        self.scopes.iter().any(|s| {
            let lower = s.name.to_lowercase();
            fragments.iter().any(|f| lower.contains(f))
        })
    }

    fn file_matches(&self, fragments: &[&str]) -> bool {
        let lower = self.file_stem.to_lowercase();
        fragments.iter().any(|f| lower.contains(f))
    }

    /// Float evidence (a float literal or a bare `f64`/`f32` token) in the
    /// token window `[i - back, i + fwd]`.
    fn float_evidence_near(&self, i: usize, back: usize, fwd: usize) -> bool {
        let lo = i.saturating_sub(back);
        let hi = (i + fwd).min(self.tokens.len());
        self.tokens[lo..hi].iter().any(|t| match &t.kind {
            TokenKind::Float => true,
            TokenKind::Ident(s) => s == "f64" || s == "f32",
            _ => false,
        })
    }

    fn run(mut self) -> Vec<Finding> {
        let mut i = 0usize;
        while i < self.tokens.len() {
            let tok = &self.tokens[i];
            match &tok.kind {
                TokenKind::Punct('#') => {
                    i = self.handle_attribute(i);
                    continue;
                }
                TokenKind::Punct('{') => {
                    self.depth += 1;
                    if let Some(name) = self.pending_scope.take() {
                        self.scopes.push(Scope {
                            depth: self.depth,
                            name,
                        });
                    }
                }
                TokenKind::Punct('}') => {
                    self.depth = self.depth.saturating_sub(1);
                    while self.scopes.last().is_some_and(|s| s.depth > self.depth) {
                        self.scopes.pop();
                    }
                }
                TokenKind::Punct(';') => {
                    self.in_use_stmt = false;
                    self.pending_scope = None;
                }
                TokenKind::Ident(name) => match name.as_str() {
                    "use" => self.in_use_stmt = true,
                    "fn" => {
                        if let Some(fn_name) = self.ident_at(i + 1) {
                            self.pending_scope = Some(fn_name.to_owned());
                        }
                        self.check_dl010(i);
                    }
                    "impl" => self.capture_impl_name(i),
                    "mod" => {
                        if let Some(mod_name) = self.ident_at(i + 1) {
                            self.pending_scope = Some(mod_name.to_owned());
                        }
                    }
                    "for" => self.check_for_loop(i),
                    "as" if !self.in_use_stmt => self.check_dl009(i),
                    "HashMap" | "HashSet" if !self.in_use_stmt => self.register_constructed(i),
                    "Instant" | "SystemTime" if !self.in_use_stmt => self.check_dl002(i),
                    "RandomState" | "DefaultHasher" | "BuildHasherDefault" if !self.in_use_stmt => {
                        self.check_dl004(i)
                    }
                    "thread" if !self.in_use_stmt => self.check_dl005(i),
                    "catch_unwind" if !self.in_use_stmt => self.check_dl006(i),
                    "env" if !self.in_use_stmt => self.check_dl007(i),
                    "sum" | "fold" if !self.in_use_stmt => self.check_dl003(i),
                    _ => {
                        if !self.in_use_stmt {
                            self.register_annotated(i);
                            self.check_map_method(i);
                        }
                    }
                },
                TokenKind::Str(content) => self.check_dl008(i, content),
                TokenKind::Punct('+') if self.punct_at(i + 1, '=') => self.check_dl003(i),
                _ => {}
            }
            i += 1;
        }
        self.findings.sort();
        self.findings
    }

    /// Skips an attribute at `#`; when it gates test code
    /// (`#[cfg(test)]`, `#[test]`), skips the whole annotated item too.
    fn handle_attribute(&mut self, i: usize) -> usize {
        let mut j = i + 1;
        let inner = self.punct_at(j, '!');
        if inner {
            j += 1;
        }
        if !self.punct_at(j, '[') {
            return i + 1;
        }
        // Collect attribute idents across the balanced bracket.
        let mut bracket_depth = 0i32;
        let mut idents: Vec<&str> = Vec::new();
        while j < self.tokens.len() {
            match &self.tokens[j].kind {
                TokenKind::Punct('[') => bracket_depth += 1,
                TokenKind::Punct(']') => {
                    bracket_depth -= 1;
                    if bracket_depth == 0 {
                        j += 1;
                        break;
                    }
                }
                TokenKind::Ident(s) => idents.push(s),
                _ => {}
            }
            j += 1;
        }
        let gates_test = !inner
            && idents.contains(&"test")
            && !idents.contains(&"not")
            && (idents[0] == "test" || idents[0] == "cfg");
        if !gates_test {
            return j;
        }
        // Skip the annotated item: any further attributes, then either a
        // `;`-terminated item or a braced one (skip the balanced block).
        while self.punct_at(j, '#') {
            j = self.skip_balanced_brackets(j + 1);
        }
        let mut brace_depth = 0i32;
        while j < self.tokens.len() {
            match &self.tokens[j].kind {
                TokenKind::Punct('{') => brace_depth += 1,
                TokenKind::Punct('}') => {
                    brace_depth -= 1;
                    if brace_depth == 0 {
                        return j + 1;
                    }
                }
                TokenKind::Punct(';') if brace_depth == 0 => return j + 1,
                _ => {}
            }
            j += 1;
        }
        j
    }

    fn skip_balanced_brackets(&self, mut j: usize) -> usize {
        if !self.punct_at(j, '[') {
            return j;
        }
        let mut depth = 0i32;
        while j < self.tokens.len() {
            match &self.tokens[j].kind {
                TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// `impl [<..>] Trait for Type {` / `impl [<..>] Type {` — captures the
    /// implemented type's last path segment as the scope name.
    fn capture_impl_name(&mut self, i: usize) {
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut last_ident: Option<&str> = None;
        while j < self.tokens.len() {
            match &self.tokens[j].kind {
                TokenKind::Punct('<') => angle += 1,
                TokenKind::Punct('>') => angle -= 1,
                TokenKind::Punct('{') if angle <= 0 => break,
                TokenKind::Ident(s) if angle <= 0 => {
                    if s == "for" {
                        last_ident = None;
                    } else if s != "where" {
                        last_ident = Some(s);
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if let Some(name) = last_ident {
            self.pending_scope = Some(name.to_owned());
        }
    }

    /// `name : [&] [mut] [path ::] HashMap|HashSet` — registers `name`.
    fn register_annotated(&mut self, i: usize) {
        let Some(name) = self.ident_at(i) else { return };
        if !self.punct_at(i + 1, ':') || self.path_sep_at(i + 1) {
            return;
        }
        // Walk the type: references, path segments, separators.
        let mut j = i + 2;
        let mut hops = 0;
        while hops < 10 {
            match self.tokens.get(j).map(|t| &t.kind) {
                Some(TokenKind::Punct('&' | ':')) => j += 1,
                Some(TokenKind::Lifetime) => j += 1,
                Some(TokenKind::Ident(s)) => {
                    if s == "HashMap" || s == "HashSet" {
                        self.map_idents.insert(name.to_owned());
                        return;
                    }
                    if s == "mut" || self.path_sep_at(j + 1) {
                        j += 1;
                    } else {
                        return;
                    }
                }
                _ => return,
            }
            hops += 1;
        }
    }

    /// `name = [path ::] HashMap|HashSet :: new|with_capacity|default|from`
    /// — registers `name` by walking back from the constructor.
    fn register_constructed(&mut self, i: usize) {
        if !self.path_sep_at(i + 1)
            || !matches!(
                self.ident_at(i + 3),
                Some("new" | "with_capacity" | "default" | "from")
            )
        {
            return;
        }
        // Walk back over any leading path (`std :: collections ::`).
        let mut j = i;
        while j >= 3 && self.path_sep_at(j - 2) && self.tokens[j - 3].kind.ident().is_some() {
            j -= 3;
        }
        if j >= 2 && self.punct_at(j - 1, '=') && !self.punct_at(j - 2, '=') {
            if let Some(name) = self.ident_at(j - 2) {
                self.map_idents.insert(name.to_owned());
            }
        }
    }

    /// DL001 via `map.iter()`-style calls on a registered identifier.
    fn check_map_method(&mut self, i: usize) {
        let Some(name) = self.ident_at(i) else { return };
        if !self.map_idents.contains(name) || !self.punct_at(i + 1, '.') {
            return;
        }
        let Some(method) = self.ident_at(i + 2) else {
            return;
        };
        if ORDER_LEAKING_METHODS.contains(&method) {
            let line = self.tokens[i].line;
            self.push(
                "DL001",
                line,
                format!("iteration over hash-ordered `{name}` (`.{method}()`) — visit order is nondeterministic and can leak into emitted results"),
                "switch the container to BTreeMap/BTreeSet, or collect and sort before emitting",
            );
        }
    }

    /// DL001 via `for pat in [&[mut]] map {`.
    fn check_for_loop(&mut self, i: usize) {
        // Find `in` within the next dozen tokens (patterns may be tuples).
        let mut j = i + 1;
        let limit = (i + 14).min(self.tokens.len());
        while j < limit && !self.tokens[j].kind.is_ident("in") {
            j += 1;
        }
        if j >= limit {
            return;
        }
        let mut k = j + 1;
        while self.punct_at(k, '&') || self.ident_at(k) == Some("mut") {
            k += 1;
        }
        let Some(name) = self.ident_at(k) else { return };
        if self.map_idents.contains(name) && self.punct_at(k + 1, '{') {
            let line = self.tokens[k].line;
            self.push(
                "DL001",
                line,
                format!("iteration over hash-ordered `{name}` — visit order is nondeterministic and can leak into emitted results"),
                "switch the container to BTreeMap/BTreeSet, or collect and sort before emitting",
            );
        }
    }

    /// DL002: `Instant::now()` / `SystemTime::now()`.
    fn check_dl002(&mut self, i: usize) {
        if !self.path_sep_at(i + 1) || self.ident_at(i + 3) != Some("now") {
            return;
        }
        let source = self.ident_at(i).unwrap_or("clock");
        let line = self.tokens[i].line;
        self.push(
            "DL002",
            line,
            format!("`{source}::now()` — wall-clock readings differ between byte-identical runs"),
            "route timings to the run-varying metrics channel (stderr), never into result payloads; \
             suppress with a reason if this site provably feeds metrics only",
        );
    }

    /// DL003: float accumulation (`+=`, `.sum()`, `fold(0.0, ..)`) inside a
    /// merge-context function, outside the blessed Welford patterns.
    fn check_dl003(&mut self, i: usize) {
        let in_merge_context = self.scope_matches(MERGE_CONTEXT) || self.file_matches(&["pool"]);
        if !in_merge_context || self.scope_matches(&["welford"]) {
            return;
        }
        if !self.float_evidence_near(i, 8, 16) {
            return;
        }
        // `sum`/`fold` must be method calls; `+=` is handled by the caller
        // matching the punct pair.
        if let Some(name) = self.ident_at(i) {
            let is_method = self.punct_at(i.wrapping_sub(1), '.');
            if !is_method {
                return;
            }
            let line = self.tokens[i].line;
            self.push(
                "DL003",
                line,
                format!("floating-point `.{name}()` accumulation in a merge site — f64 addition is not associative, so thread arrival order changes the sum"),
                "merge through the Welford accumulator (order-insensitive to the bit level as used here) \
                 or accumulate in plan order on a single thread",
            );
        } else {
            let line = self.tokens[i].line;
            self.push(
                "DL003",
                line,
                "floating-point `+=` accumulation in a merge site — f64 addition is not associative, so thread arrival order changes the sum".to_owned(),
                "merge through the Welford accumulator (order-insensitive to the bit level as used here) \
                 or accumulate in plan order on a single thread",
            );
        }
    }

    /// DL004: `RandomState` / `DefaultHasher` / `BuildHasherDefault`.
    fn check_dl004(&mut self, i: usize) {
        let name = self.ident_at(i).unwrap_or("hasher");
        let line = self.tokens[i].line;
        self.push(
            "DL004",
            line,
            format!("`{name}` — per-process-seeded or release-dependent hashing makes keyed lookups and layouts irreproducible"),
            "hash with the workspace's FNV-1a (`sdnav_core::hash::fnv1a`) or another fixed-seed hasher",
        );
    }

    /// DL005: `thread::current()` (thread identity reaching values).
    fn check_dl005(&mut self, i: usize) {
        if !self.path_sep_at(i + 1) || self.ident_at(i + 3) != Some("current") {
            return;
        }
        let line = self.tokens[i].line;
        self.push(
            "DL005",
            line,
            "`thread::current()` — thread identity varies run to run and across `--threads`, and must never reach a payload".to_owned(),
            "derive names/seeds from the work item's identity (index, key), not from the executing thread",
        );
    }

    /// DL006: `catch_unwind` whose payload is discarded.
    fn check_dl006(&mut self, i: usize) {
        let window = &self.tokens[i..(i + 80).min(self.tokens.len())];
        let discards = window.windows(3).any(|w| {
            // `Err(_)` — wildcard payload.
            (w[0].kind.is_ident("Err") && w[1].kind.is_punct('(') && w[2].kind.is_punct('_'))
                // `.ok()` / `.err()` / `.is_err()` — result collapsed.
                || (w[0].kind.is_punct('.')
                    && matches!(w[1].kind.ident(), Some("ok" | "err" | "is_err" | "is_ok"))
                    && w[2].kind.is_punct('('))
        });
        if discards {
            let line = self.tokens[i].line;
            self.push(
                "DL006",
                line,
                "`catch_unwind` discards the panic payload — the failure cause never reaches a quarantine report".to_owned(),
                "bind the payload (`Err(payload)`) and route it into the structured quarantine path",
            );
        }
    }

    /// DL007: ambient `std::env` reads outside `crates/cli`.
    fn check_dl007(&mut self, i: usize) {
        if self.rel_path.starts_with("crates/cli/") {
            return;
        }
        if !self.path_sep_at(i + 1) {
            return;
        }
        let Some(reader) = self.ident_at(i + 3) else {
            return;
        };
        if !ENV_READERS.contains(&reader) {
            return;
        }
        let line = self.tokens[i].line;
        self.push(
            "DL007",
            line,
            format!("`env::{reader}` outside crates/cli — ambient process state reaches library behavior"),
            "thread the value through explicit configuration (builder/option) from the CLI layer",
        );
    }

    /// DL008: versioned schema string literal outside `sdnav_json::schema`.
    fn check_dl008(&mut self, i: usize, content: &str) {
        if self.rel_path.starts_with("crates/json/") || !is_schema_literal(content) {
            return;
        }
        let line = self.tokens[i].line;
        self.push(
            "DL008",
            line,
            format!("schema version literal {content:?} bypasses the `sdnav_json::schema` registry"),
            "use the named constant from `sdnav_json::schema` so producers and consumers version together",
        );
    }

    /// DL009: lossy `as` casts where fingerprint/WAL framing code must be
    /// bit-exact.
    fn check_dl009(&mut self, i: usize) {
        if !self.file_matches(FRAMING_CONTEXT) && !self.scope_matches(FRAMING_CONTEXT) {
            return;
        }
        let Some(target) = self.ident_at(i + 1) else {
            return;
        };
        let float_target = target == "f64" || target == "f32";
        let lossy_int = INT_CAST_TARGETS.contains(&target) && self.float_evidence_near(i, 16, 0);
        if !(float_target || lossy_int) {
            return;
        }
        let line = self.tokens[i].line;
        self.push(
            "DL009",
            line,
            format!("`as {target}` cast in fingerprint/WAL framing code — saturating/rounding casts are not bit-exact"),
            "frame floats with `f64::to_bits`/`from_bits` so replay and fingerprints are IEEE-754 exact",
        );
    }

    /// DL010: public function returning a hash-ordered container.
    fn check_dl010(&mut self, i: usize) {
        // Only a bare `pub` (not `pub(crate)`) is public API.
        if i == 0 || self.ident_at(i - 1) != Some("pub") || self.punct_at(i, '(') {
            return;
        }
        if i >= 2 && self.punct_at(i - 1, ')') {
            return;
        }
        // Scan the signature for `-> ... HashMap|HashSet` before the body.
        let mut j = i + 1;
        let mut seen_arrow = false;
        let limit = (i + 120).min(self.tokens.len());
        while j < limit {
            match &self.tokens[j].kind {
                TokenKind::Punct('{') | TokenKind::Punct(';') => return,
                TokenKind::Punct('-') if self.punct_at(j + 1, '>') => seen_arrow = true,
                TokenKind::Ident(s) if seen_arrow && (s == "HashMap" || s == "HashSet") => {
                    let line = self.tokens[i].line;
                    let fn_name = self.ident_at(i + 1).unwrap_or("function").to_owned();
                    self.push(
                        "DL010",
                        line,
                        format!("public `fn {fn_name}` returns a hash-ordered container — callers can iterate it straight into emitted output"),
                        "return a BTreeMap/BTreeSet or a sorted Vec so emit order cannot depend on hasher state",
                    );
                    return;
                }
                TokenKind::Ident(s) if s == "where" => return,
                _ => {}
            }
            j += 1;
        }
    }
}

/// Whether a string literal is exactly a versioned schema discriminator
/// (`sdnav-<kind>/v<N>`).
#[must_use]
pub fn is_schema_literal(s: &str) -> bool {
    let Some(rest) = s.strip_prefix("sdnav-") else {
        return false;
    };
    let Some((kind, version)) = rest.split_once("/v") else {
        return false;
    };
    !kind.is_empty()
        && kind
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        && !version.is_empty()
        && version.chars().all(|c| c.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(rel_path: &str, src: &str) -> Vec<(&'static str, u32)> {
        check_source(rel_path, src)
            .into_iter()
            .map(|f| (f.code, f.line))
            .collect()
    }

    #[test]
    fn dl001_flags_hashmap_iteration() {
        let src = "use std::collections::HashMap;\n\
                   pub fn emit(counts: &HashMap<String, u64>) -> String {\n\
                       let mut out = String::new();\n\
                       for (k, v) in counts.iter() {\n\
                           out.push_str(&format!(\"{k}={v}\"));\n\
                       }\n\
                       out\n\
                   }\n";
        assert_eq!(codes("crates/x/src/lib.rs", src), vec![("DL001", 4)]);
    }

    #[test]
    fn dl001_flags_direct_for_loop_and_constructed_maps() {
        let src = "fn f() {\n\
                       let mut seen = std::collections::HashSet::new();\n\
                       seen.insert(1);\n\
                       for v in &seen {\n\
                           println!(\"{v}\");\n\
                       }\n\
                   }\n";
        assert_eq!(codes("a.rs", src), vec![("DL001", 4)]);
    }

    #[test]
    fn dl001_ignores_btreemap_and_lookups() {
        let src = "use std::collections::{BTreeMap, HashMap};\n\
                   fn f(m: &HashMap<u32, u32>, b: &BTreeMap<u32, u32>) -> u32 {\n\
                       for (_, v) in b.iter() { let _ = v; }\n\
                       *m.get(&1).unwrap()\n\
                   }\n";
        assert!(codes("a.rs", src).is_empty());
    }

    #[test]
    fn dl002_flags_instant_and_systemtime() {
        let src = "fn f() -> f64 {\n\
                       let t = std::time::Instant::now();\n\
                       t.elapsed().as_secs_f64()\n\
                   }\n";
        assert_eq!(codes("a.rs", src), vec![("DL002", 2)]);
    }

    #[test]
    fn dl003_flags_merge_accumulation_but_blesses_welford() {
        let merge = "fn merge_partials(parts: &[f64]) -> f64 {\n\
                         let mut total = 0.0;\n\
                         for p in parts { total += *p; }\n\
                         total\n\
                     }\n";
        assert_eq!(codes("a.rs", merge), vec![("DL003", 3)]);

        let welford = "impl Welford {\n\
                           fn merge(&mut self, other: &Welford) {\n\
                               self.m2 += other.m2;\n\
                           }\n\
                       }\n";
        assert!(codes("a.rs", welford).is_empty());

        let unordered = "fn merge_counts(counts: &[u64]) -> u64 {\n\
                             let mut total = 0;\n\
                             for c in counts { total += *c; }\n\
                             total\n\
                         }\n";
        assert!(codes("a.rs", unordered).is_empty(), "integer += is exact");
    }

    #[test]
    fn dl004_flags_random_state() {
        let src = "fn f() {\n\
                       let s = std::collections::hash_map::RandomState::new();\n\
                       let _ = s;\n\
                   }\n";
        assert_eq!(codes("a.rs", src), vec![("DL004", 2)]);
    }

    #[test]
    fn dl005_flags_thread_current() {
        let src = "fn tag() -> String { format!(\"{:?}\", std::thread::current().id()) }\n";
        assert_eq!(codes("a.rs", src), vec![("DL005", 1)]);
    }

    #[test]
    fn dl006_flags_dropped_payload_only() {
        let dropped = "fn f() -> bool { std::panic::catch_unwind(|| {}).is_err() }\n";
        assert_eq!(codes("a.rs", dropped), vec![("DL006", 1)]);

        let routed = "fn f() {\n\
                          match std::panic::catch_unwind(|| {}) {\n\
                              Ok(()) => {}\n\
                              Err(payload) => quarantine(payload),\n\
                          }\n\
                      }\n";
        assert!(codes("a.rs", routed).is_empty());
    }

    #[test]
    fn dl007_flags_env_reads_outside_cli() {
        let src = "fn f() -> Option<String> { std::env::var(\"X\").ok() }\n";
        assert_eq!(codes("crates/grid/src/lib.rs", src), vec![("DL007", 1)]);
        assert!(codes("crates/cli/src/main.rs", src).is_empty());
        // temp_dir is a path lookup, not ambient configuration.
        let tmp = "fn f() -> std::path::PathBuf { std::env::temp_dir() }\n";
        assert!(codes("crates/grid/src/lib.rs", tmp).is_empty());
    }

    #[test]
    fn dl008_flags_schema_literals_outside_json_crate() {
        let src = "fn f() -> &'static str { \"sdnav-results/v2\" }\n";
        assert_eq!(codes("crates/grid/src/lib.rs", src), vec![("DL008", 1)]);
        assert!(codes("crates/json/src/schema.rs", src).is_empty());
        // Prose mentioning a schema inside a longer string is not a match.
        let prose = "const HELP: &str = \"emits the sdnav-results/v2 document\";\n";
        assert!(codes("crates/grid/src/lib.rs", prose).is_empty());
    }

    #[test]
    fn dl009_flags_lossy_casts_in_framing_context_only() {
        let src = "pub fn frame_mean(mean: f64) -> u64 { mean as u64 }\n";
        assert_eq!(
            codes("crates/grid/src/checkpoint.rs", src),
            vec![("DL009", 1)]
        );
        // Same cast in a non-framing file and function: out of scope.
        assert!(codes(
            "crates/grid/src/lib.rs",
            "pub fn x(mean: f64) -> u64 { mean as u64 }\n"
        )
        .is_empty());
        // Integer widening in framing code is lossless and allowed.
        let widen = "fn frame(samples: usize) -> u64 { samples as u64 }\n";
        assert!(codes("crates/grid/src/checkpoint.rs", widen).is_empty());
    }

    #[test]
    fn dl010_flags_public_hashmap_returns_only() {
        let src = "use std::collections::HashMap;\n\
                   pub fn histogram() -> HashMap<u64, u64> { HashMap::new() }\n";
        let found = codes("a.rs", src);
        assert!(found.contains(&("DL010", 2)), "{found:?}");

        let crate_private =
            "pub(crate) fn h() -> std::collections::HashMap<u64, u64> { todo!() }\n";
        assert!(codes("a.rs", crate_private).is_empty());

        let arg_only =
            "pub fn count(m: &std::collections::HashMap<u64, u64>) -> usize { m.len() }\n";
        assert!(codes("a.rs", arg_only).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "fn real() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() {\n\
                           let _ = std::time::Instant::now();\n\
                           let _ = format!(\"{:?}\", std::thread::current().id());\n\
                       }\n\
                   }\n";
        assert!(codes("a.rs", src).is_empty());
        // cfg(not(test)) code is NOT exempt.
        let not_test = "#[cfg(not(test))]\n\
                        fn f() { let _ = std::time::Instant::now(); }\n";
        assert_eq!(codes("a.rs", not_test), vec![("DL002", 2)]);
    }

    #[test]
    fn schema_literal_matcher() {
        assert!(is_schema_literal("sdnav-sweep-results/v1"));
        assert!(is_schema_literal("sdnav-chaos-digest/v12"));
        assert!(!is_schema_literal("sdnav-sweep-results"));
        assert!(!is_schema_literal("sdnav-/v1"));
        assert!(!is_schema_literal("the sdnav-sweep-results/v1 document"));
        assert!(!is_schema_literal("other-results/v1"));
    }
}
