//! The rule engine: path-scoped checks over the token stream plus the two
//! pieces of structure the rules need — `#[cfg(test)]` regions (rule
//! exemptions) and the enclosing-function name per token (constructor
//! allow-lists). Everything is heuristic but *sound for this codebase*:
//! the self-scan test keeps the committed workspace clean, so any new
//! false positive shows up as a broken build, not silent noise.

use crate::lexer::{tokenize, Token, TokenKind};

/// Rule identifier for `HashMap`/`HashSet` iteration on the output path.
pub const NONDETERMINISTIC_ITERATION: &str = "nondeterministic-iteration";
/// Rule identifier for panics in the durability layer.
pub const PANIC_FREE_DURABILITY: &str = "panic-free-durability";
/// Rule identifier for wall-clock reads outside telemetry/bench.
pub const WALL_CLOCK_HYGIENE: &str = "wall-clock-hygiene";
/// Rule identifier for telemetry registry lookups outside constructors.
pub const TELEMETRY_HANDLE_DISCIPLINE: &str = "telemetry-handle-discipline";
/// Rule identifier for threads started anywhere but the one fan-out.
pub const ONE_FAN_OUT: &str = "one-fan-out";
/// Rule identifier for `#[allow(clippy::…)]` attributes that give no reason.
pub const REASONED_ALLOW: &str = "reasoned-allow";
/// Pseudo-rule for malformed waiver comments (never waivable itself).
pub const WAIVER_SYNTAX: &str = "waiver-syntax";
/// Pseudo-rule for waivers that suppressed nothing (stale waivers rot).
pub const UNUSED_WAIVER: &str = "unused-waiver";

/// Every real (waivable) rule with its one-line description, in report
/// order.
pub const RULES: [(&str, &str); 6] = [
    (
        NONDETERMINISTIC_ITERATION,
        "no HashMap/HashSet iteration in output-path code unless sorted before use",
    ),
    (
        PANIC_FREE_DURABILITY,
        "no unwrap/expect/panic! in non-test WAL/checkpoint/durable code; typed errors required",
    ),
    (
        WALL_CLOCK_HYGIENE,
        "Instant::now/SystemTime::now only in telemetry, bench, or recorder-gated spans; \
         thread::sleep only in telemetry or bench",
    ),
    (
        TELEMETRY_HANDLE_DISCIPLINE,
        "telemetry registry lookups only in constructors/restore, never per-window",
    ),
    (
        ONE_FAN_OUT,
        "thread::scope/spawn/Builder only in parallel_map and the checkpoint worker, \
         so every fan-out shares the one dispatch width",
    ),
    (
        REASONED_ALLOW,
        "every #[allow(clippy::…)] says why: a trailing `// …` on its line or `reason = \"…\"`",
    ),
];

/// One lint finding, pinned to `path:line`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub path: String,
    pub line: usize,
    pub message: String,
}

/// One parsed allow-comment: the waiver marker followed by a rule id in
/// parens, an em-dash, and a mandatory reason.
#[derive(Clone, Debug)]
pub struct Waiver {
    pub rule: String,
    /// Line the waiver was written on (1-based).
    pub declared_line: usize,
    /// Line the waiver covers: its own for a trailing comment, the next
    /// code line for a standalone comment block.
    pub covers_line: usize,
    pub reason: String,
    /// Diagnostics this waiver suppressed (filled during scanning).
    pub suppressed: usize,
}

/// Tokenised file plus the derived structure the rules consume.
pub struct FileContext<'a> {
    pub rel_path: &'a str,
    pub lines: Vec<&'a str>,
    pub tokens: Vec<Token>,
    /// Inclusive 1-based line ranges covered by `#[cfg(test)]` items.
    pub test_regions: Vec<(usize, usize)>,
    /// Per token: name of the innermost named `fn` enclosing it.
    pub enclosing_fn: Vec<Option<String>>,
}

impl<'a> FileContext<'a> {
    pub fn new(rel_path: &'a str, source: &'a str) -> Self {
        let tokens = tokenize(source);
        let test_regions = find_cfg_test_regions(&tokens);
        let enclosing_fn = find_enclosing_fns(&tokens);
        FileContext {
            rel_path,
            lines: source.lines().collect(),
            tokens,
            test_regions,
            enclosing_fn,
        }
    }

    fn in_test_region(&self, line: usize) -> bool {
        self.test_regions.iter().any(|&(start, end)| line >= start && line <= end)
    }

    /// True when any of `line ..= line + 2` contains a `.sort` call — the
    /// iterate-then-sort idiom rule 1 permits (collect into a Vec, sort,
    /// emit).
    fn sorts_nearby(&self, line: usize) -> bool {
        (line..=line + 2).filter_map(|l| self.lines.get(l - 1)).any(|text| text.contains(".sort"))
    }
}

/// Finds `#[cfg(test)]` attributes and brace-matches the item that follows
/// each into an inclusive line range.
fn find_cfg_test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 7 < tokens.len() {
        let is_attr = tokens[i].is_punct('#')
            && tokens[i + 1].is_punct('[')
            && tokens[i + 2].is_ident("cfg")
            && tokens[i + 3].is_punct('(')
            && tokens[i + 4].is_ident("test")
            && tokens[i + 5].is_punct(')')
            && tokens[i + 6].is_punct(']');
        if !is_attr {
            i += 1;
            continue;
        }
        let start_line = tokens[i].line;
        let mut j = i + 7;
        // Find the item body's opening brace; a brace-less item (e.g.
        // `mod tests;`) ends at the semicolon instead.
        while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
            j += 1;
        }
        if j >= tokens.len() || tokens[j].is_punct(';') {
            regions.push((start_line, tokens.get(j).map_or(start_line, |t| t.line)));
            i = j + 1;
            continue;
        }
        let mut depth = 0usize;
        while j < tokens.len() {
            if tokens[j].is_punct('{') {
                depth += 1;
            } else if tokens[j].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        let end_line = tokens.get(j).map_or(start_line, |t| t.line);
        regions.push((start_line, end_line));
        i = j + 1;
    }
    regions
}

/// For each token, the name of the innermost *named* `fn` whose body holds
/// it (closures and plain blocks inherit their parent's name). Used by the
/// constructor allow-list of `telemetry-handle-discipline`.
fn find_enclosing_fns(tokens: &[Token]) -> Vec<Option<String>> {
    let mut result = Vec::with_capacity(tokens.len());
    // Scope stack: the fn name in force once a `{` opens.
    let mut scopes: Vec<Option<String>> = Vec::new();
    let mut pending_fn: Option<String> = None;
    let mut paren_depth = 0usize;
    let mut bracket_depth = 0usize;
    for (i, token) in tokens.iter().enumerate() {
        result.push(scopes.last().cloned().flatten());
        match token.kind {
            TokenKind::Ident if token.text == "fn" => {
                // `fn name` declares; a bare `fn(…)` type does not.
                if let Some(next) = tokens.get(i + 1) {
                    if next.kind == TokenKind::Ident {
                        pending_fn = Some(next.text.clone());
                    }
                }
            }
            TokenKind::Punct => match token.text.as_str() {
                "(" => paren_depth += 1,
                ")" => paren_depth = paren_depth.saturating_sub(1),
                "[" => bracket_depth += 1,
                "]" => bracket_depth = bracket_depth.saturating_sub(1),
                "{" => {
                    let inherited = scopes.last().cloned().flatten();
                    scopes.push(pending_fn.take().or(inherited));
                }
                "}" => {
                    scopes.pop();
                }
                // A top-level `;` ends a body-less fn signature (trait
                // method declarations) before any `{` claims the name.
                ";" if paren_depth == 0 && bracket_depth == 0 => pending_fn = None,
                _ => {}
            },
            _ => {}
        }
    }
    result
}

/// Parses every waiver comment in the file. Malformed waivers (missing
/// reason, unknown rule) surface as `waiver-syntax` diagnostics.
pub fn parse_waivers(rel_path: &str, lines: &[&str]) -> (Vec<Waiver>, Vec<Diagnostic>) {
    // Split so the linter's own source does not contain a parseable waiver
    // marker (the self-scan reads raw lines, not tokens).
    const MARKER: &str = concat!("// lint", ": allow(");
    let mut waivers = Vec::new();
    let mut diagnostics = Vec::new();
    for (idx, raw) in lines.iter().enumerate() {
        let declared_line = idx + 1;
        let Some(marker_at) = raw.find(MARKER) else { continue };
        let after = &raw[marker_at + MARKER.len()..];
        let Some(close) = after.find(')') else {
            diagnostics.push(Diagnostic {
                rule: WAIVER_SYNTAX,
                path: rel_path.to_string(),
                line: declared_line,
                message: "unterminated `lint: allow(` waiver".to_string(),
            });
            continue;
        };
        let rule = after[..close].trim().to_string();
        if !RULES.iter().any(|&(id, _)| id == rule) {
            diagnostics.push(Diagnostic {
                rule: WAIVER_SYNTAX,
                path: rel_path.to_string(),
                line: declared_line,
                message: format!("waiver names unknown rule `{rule}`"),
            });
            continue;
        }
        // Reason: everything after the `—` (or `-`) separator.
        let rest = after[close + 1..].trim_start();
        let reason = rest
            .strip_prefix('—')
            .or_else(|| rest.strip_prefix('-'))
            .map(|r| r.trim())
            .unwrap_or("");
        if reason.is_empty() {
            diagnostics.push(Diagnostic {
                rule: WAIVER_SYNTAX,
                path: rel_path.to_string(),
                line: declared_line,
                message: format!(
                    "waiver for `{rule}` carries no reason — append `— <why>` \
                     after the closing parenthesis"
                ),
            });
            continue;
        }
        // A trailing waiver covers its own line; a standalone comment
        // covers the next non-comment, non-blank line. Continuation
        // comment lines in between extend the reason.
        let standalone = raw[..marker_at].trim().is_empty();
        let mut reason = reason.to_string();
        let covers_line = if standalone {
            let mut j = idx + 1;
            while j < lines.len() {
                let t = lines[j].trim();
                if !t.is_empty() && !t.starts_with("//") {
                    break;
                }
                if !t.contains(MARKER) {
                    let cont = t.trim_start_matches('/').trim();
                    if !cont.is_empty() {
                        reason.push(' ');
                        reason.push_str(cont);
                    }
                }
                j += 1;
            }
            j + 1
        } else {
            declared_line
        };
        waivers.push(Waiver { rule, declared_line, covers_line, reason, suppressed: 0 });
    }
    (waivers, diagnostics)
}

// ---------------------------------------------------------------------------
// Path sets
// ---------------------------------------------------------------------------

/// Output-path code: where iteration order becomes stream order.
fn rule1_applies(path: &str) -> bool {
    path.starts_with("crates/core/src/policies/")
        || path.starts_with("crates/core/src/route/")
        || path.starts_with("crates/matching/src/")
        || matches!(
            path,
            "crates/core/src/window.rs"
                | "crates/core/src/batching.rs"
                | "crates/core/src/foodgraph.rs"
                | "crates/core/src/cost.rs"
                | "crates/core/src/route.rs"
                | "crates/core/src/legs.rs"
                | "crates/roadnet/src/overlay.rs"
                | "crates/roadnet/src/index.rs"
                | "crates/events/src/schedule.rs"
                | "crates/simulator/src/service.rs"
                | "crates/simulator/src/step.rs"
                | "crates/simulator/src/router.rs"
        )
}

/// The durability layer: code that runs during crash recovery.
fn rule2_applies(path: &str) -> bool {
    matches!(
        path,
        "crates/simulator/src/wal.rs"
            | "crates/simulator/src/checkpoint.rs"
            | "crates/simulator/src/durable.rs"
    )
}

/// The two files that may start threads: the one fan-out and the
/// background checkpoint worker.
fn starts_threads(path: &str) -> bool {
    matches!(path, "crates/matching/src/parallel.rs" | "crates/simulator/src/checkpoint.rs")
}

/// Integration-test files, whose threads are the test's own.
fn is_test_file(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/")
}

/// Library crates, minus the two whose whole job is measuring time and the
/// linter itself.
fn clock_sensitive(path: &str) -> bool {
    path.starts_with("crates/")
        && !path.starts_with("crates/telemetry/")
        && !path.starts_with("crates/bench/")
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

const ITERATION_METHODS: [&str; 7] =
    ["iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "drain"];

/// Rule 1: `HashMap`/`HashSet` iteration in output-path files. Tracks which
/// local names are declared as hash containers (let bindings, fn params,
/// struct fields), then flags `name.iter()`-style calls and
/// `for … in [&]name` loops on them — unless the surrounding statement
/// sorts within two lines, the iterate-then-sort idiom.
pub fn check_nondeterministic_iteration(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if !rule1_applies(ctx.rel_path) {
        return;
    }
    let tokens = &ctx.tokens;
    // Pass 1: names declared with a HashMap/HashSet type or initialiser.
    let mut hash_names: Vec<String> = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        if !(token.is_ident("HashMap") || token.is_ident("HashSet")) {
            continue;
        }
        // `name = HashMap::new()` (the annotation-free binding).
        if i >= 2 && tokens[i - 1].is_punct('=') && tokens[i - 2].kind == TokenKind::Ident {
            hash_names.push(tokens[i - 2].text.clone());
            continue;
        }
        // `name: [&][mut] [std::collections::] HashMap<…>` — let bindings
        // with annotations, fn params, struct fields.
        let mut j = i;
        let mut saw_colon = false;
        while j > 0 {
            let prev = &tokens[j - 1];
            let filler = prev.is_punct('&')
                || prev.is_punct(':')
                || prev.is_ident("mut")
                || prev.is_ident("std")
                || prev.is_ident("collections")
                || prev.is_ident("dyn");
            if !filler {
                break;
            }
            saw_colon |= prev.is_punct(':');
            j -= 1;
        }
        if saw_colon && j > 0 && tokens[j - 1].kind == TokenKind::Ident {
            let name = &tokens[j - 1].text;
            // A `use std::collections::HashMap` path walks back to the
            // `use` keyword — that is not a binding.
            if !matches!(name.as_str(), "use" | "pub" | "crate" | "super" | "in" | "as") {
                hash_names.push(name.clone());
            }
        }
    }
    let is_hash = |name: &str| hash_names.iter().any(|n| n == name);
    // The receiver must be the bare name or `self.name`; `other.name` is
    // a different struct's field that merely shares the identifier.
    let receiver_matches = |i: usize| -> bool {
        if i == 0 {
            return true;
        }
        if tokens[i - 1].is_punct('.') {
            return i >= 2 && tokens[i - 2].is_ident("self");
        }
        true
    };

    // Pass 2: flag iteration.
    for (i, token) in tokens.iter().enumerate() {
        // `name.iter()` and friends.
        if token.kind == TokenKind::Ident && is_hash(&token.text) {
            let method_call = i + 3 < tokens.len()
                && tokens[i + 1].is_punct('.')
                && tokens[i + 2].kind == TokenKind::Ident
                && ITERATION_METHODS.contains(&tokens[i + 2].text.as_str())
                && tokens[i + 3].is_punct('(');
            if method_call && receiver_matches(i) && !ctx.sorts_nearby(token.line) {
                out.push(Diagnostic {
                    rule: NONDETERMINISTIC_ITERATION,
                    path: ctx.rel_path.to_string(),
                    line: token.line,
                    message: format!(
                        "`{}.{}()` iterates a hash container on the output path; \
                         use a BTree collection or sort before emitting",
                        token.text,
                        tokens[i + 2].text
                    ),
                });
            }
        }
        // `for … in [&][mut] name {` / `for … in [&]self.name {`.
        if token.is_ident("for") {
            let Some(in_at) = (i + 1..tokens.len().min(i + 24)).find(|&k| tokens[k].is_ident("in"))
            else {
                continue;
            };
            let Some(brace_at) =
                (in_at + 1..tokens.len().min(in_at + 10)).find(|&k| tokens[k].is_punct('{'))
            else {
                continue;
            };
            let mut expr: Vec<&Token> = tokens[in_at + 1..brace_at].iter().collect();
            while expr.first().is_some_and(|t| t.is_punct('&') || t.is_ident("mut")) {
                expr.remove(0);
            }
            let name = match expr.as_slice() {
                [only] if only.kind == TokenKind::Ident => Some(&only.text),
                [s, dot, field]
                    if s.is_ident("self")
                        && dot.is_punct('.')
                        && field.kind == TokenKind::Ident =>
                {
                    Some(&field.text)
                }
                _ => None,
            };
            if let Some(name) = name {
                if is_hash(name) && !ctx.sorts_nearby(token.line) {
                    out.push(Diagnostic {
                        rule: NONDETERMINISTIC_ITERATION,
                        path: ctx.rel_path.to_string(),
                        line: token.line,
                        message: format!(
                            "`for … in {name}` iterates a hash container on the output \
                             path; use a BTree collection or sort before emitting"
                        ),
                    });
                }
            }
        }
    }
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Rule 2: `.unwrap()` / `.expect(…)` / `panic!`-family macros in the
/// durability layer, outside `#[cfg(test)]` items.
pub fn check_panic_free_durability(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if !rule2_applies(ctx.rel_path) {
        return;
    }
    let tokens = &ctx.tokens;
    for (i, token) in tokens.iter().enumerate() {
        if ctx.in_test_region(token.line) {
            continue;
        }
        let method_panic = (token.is_ident("unwrap") || token.is_ident("expect"))
            && i > 0
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('));
        if method_panic {
            out.push(Diagnostic {
                rule: PANIC_FREE_DURABILITY,
                path: ctx.rel_path.to_string(),
                line: token.line,
                message: format!(
                    "`.{}()` can panic mid-recovery; return a typed WalError/CheckpointError",
                    token.text
                ),
            });
            continue;
        }
        let macro_panic = token.kind == TokenKind::Ident
            && PANIC_MACROS.contains(&token.text.as_str())
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('!'));
        if macro_panic {
            out.push(Diagnostic {
                rule: PANIC_FREE_DURABILITY,
                path: ctx.rel_path.to_string(),
                line: token.line,
                message: format!(
                    "`{}!` can panic mid-recovery; return a typed WalError/CheckpointError",
                    token.text
                ),
            });
        }
    }
}

/// Rule 3: `Instant::now` / `SystemTime::now` and `thread::sleep` in
/// clock-sensitive crates. The one sanctioned wall-clock read outside
/// telemetry/bench is the lazily evaluated recorder gate
/// `flag.then(Instant::now)`; a wall-clock wait has none.
pub fn check_wall_clock_hygiene(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if !clock_sensitive(ctx.rel_path) {
        return;
    }
    let tokens = &ctx.tokens;
    for (i, token) in tokens.iter().enumerate() {
        let path_to = |name| {
            i + 3 < tokens.len()
                && tokens[i + 1].is_punct(':')
                && tokens[i + 2].is_punct(':')
                && tokens[i + 3].is_ident(name)
        };
        let now_call =
            (token.is_ident("Instant") || token.is_ident("SystemTime")) && path_to("now");
        let sleep_call = token.is_ident("thread") && path_to("sleep");
        if !(now_call || sleep_call) || ctx.in_test_region(token.line) {
            continue;
        }
        // `timed.then(Instant::now)`: only evaluated when the recorder-
        // liveness flag is set — the sanctioned gated-span idiom.
        let recorder_gated = i >= 3
            && tokens[i - 1].is_punct('(')
            && tokens[i - 2].is_ident("then")
            && tokens[i - 3].is_punct('.');
        if now_call && recorder_gated {
            continue;
        }
        let message = if sleep_call {
            "`thread::sleep` outside telemetry/bench; a run must not wait on the wall clock — \
             advance the simulated clock, or block on the event being waited for"
                .to_string()
        } else {
            format!(
                "`{}::now` outside telemetry/bench; gate it behind a recorder-liveness \
                 flag (`flag.then(Instant::now)`) or move the measurement into telemetry",
                token.text
            )
        };
        out.push(Diagnostic {
            rule: WALL_CLOCK_HYGIENE,
            path: ctx.rel_path.to_string(),
            line: token.line,
            message,
        });
    }
}

const LOOKUP_FNS: [&str; 3] = ["counter", "gauge", "histogram"];
const CONSTRUCTOR_NAMES: [&str; 8] =
    ["new", "acquire", "restore", "build", "default", "install", "open", "create"];
const CONSTRUCTOR_PREFIXES: [&str; 4] = ["with_", "open_", "create_", "from_"];

/// Rule 4: `foodmatch_telemetry::{counter,gauge,histogram}` calls outside
/// constructor-shaped functions. Handles are cheap to *use* per window but
/// a lookup walks the registry under a lock — cache it at construction.
pub fn check_telemetry_handle_discipline(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if !clock_sensitive(ctx.rel_path) {
        return;
    }
    let tokens = &ctx.tokens;
    for (i, token) in tokens.iter().enumerate() {
        let lookup = token.kind == TokenKind::Ident
            && LOOKUP_FNS.contains(&token.text.as_str())
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            && i >= 3
            && tokens[i - 1].is_punct(':')
            && tokens[i - 2].is_punct(':')
            && (tokens[i - 3].is_ident("foodmatch_telemetry")
                || tokens[i - 3].is_ident("telemetry"));
        if !lookup || ctx.in_test_region(token.line) {
            continue;
        }
        let allowed = ctx.enclosing_fn[i].as_deref().is_some_and(|name| {
            CONSTRUCTOR_NAMES.contains(&name)
                || CONSTRUCTOR_PREFIXES.iter().any(|p| name.starts_with(p))
        });
        if allowed {
            continue;
        }
        out.push(Diagnostic {
            rule: TELEMETRY_HANDLE_DISCIPLINE,
            path: ctx.rel_path.to_string(),
            line: token.line,
            message: format!(
                "telemetry registry lookup `{}(..)` outside a constructor/restore; \
                 acquire the handle once at construction and reuse it",
                token.text
            ),
        });
    }
}

const THREAD_STARTERS: [&str; 3] = ["scope", "spawn", "Builder"];

/// Rule 5: `thread::scope` / `thread::spawn` / `thread::Builder` outside
/// `#[cfg(test)]` items and integration tests, anywhere but the two files
/// that may start threads. `parallel_map` shares one width across nested
/// fan-outs; a thread started elsewhere would run past it.
pub fn check_one_fan_out(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    if starts_threads(ctx.rel_path) || is_test_file(ctx.rel_path) {
        return;
    }
    let tokens = &ctx.tokens;
    for (i, token) in tokens.iter().enumerate() {
        let starter = token.is_ident("thread")
            && i + 3 < tokens.len()
            && tokens[i + 1].is_punct(':')
            && tokens[i + 2].is_punct(':')
            && tokens[i + 3].kind == TokenKind::Ident
            && THREAD_STARTERS.contains(&tokens[i + 3].text.as_str());
        if !starter || ctx.in_test_region(token.line) {
            continue;
        }
        out.push(Diagnostic {
            rule: ONE_FAN_OUT,
            path: ctx.rel_path.to_string(),
            line: token.line,
            message: format!(
                "`thread::{}` outside `parallel_map`; fan work out through \
                 `foodmatch_matching::parallel_map` so it shares the dispatch width",
                tokens[i + 3].text
            ),
        });
    }
}

/// Rule 6: `#[allow(clippy::…)]` (inner `#![…]` and `cfg_attr` forms too)
/// with neither a `reason = "…"` argument nor a trailing `// …` comment on
/// the line the attribute closes on. Applies to every scanned file, tests
/// included: a silenced lint outlives the code that needed it unless the
/// attribute says what it is for.
pub fn check_reasoned_allow(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    let tokens = &ctx.tokens;
    for (i, token) in tokens.iter().enumerate() {
        let clippy_allow = token.is_ident("allow")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 2).is_some_and(|t| t.is_ident("clippy"))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct(':'));
        if !clippy_allow {
            continue;
        }
        // The argument list runs to the parenthesis that closes `allow(`.
        let mut depth = 0usize;
        let mut close = i + 1;
        while close < tokens.len() {
            if tokens[close].is_punct('(') {
                depth += 1;
            } else if tokens[close].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            close += 1;
        }
        let close = close.min(tokens.len() - 1);
        let reason_argument = tokens[i + 1..close].iter().any(|t| t.is_ident("reason"));
        // The attribute itself ends at the next `]`; a comment after it on
        // that line is the reason.
        let end_line =
            tokens[close..].iter().find(|t| t.is_punct(']')).map_or(token.line, |t| t.line);
        let trailing_comment = ctx.lines.get(end_line - 1).is_some_and(|raw| {
            let after = raw.rfind(']').map_or("", |at| &raw[at + 1..]);
            after.trim_start().strip_prefix("//").is_some_and(|why| !why.trim().is_empty())
        });
        if !reason_argument && !trailing_comment {
            out.push(Diagnostic {
                rule: REASONED_ALLOW,
                path: ctx.rel_path.to_string(),
                line: token.line,
                message: "`#[allow(clippy::…)]` gives no reason; append `// <why>` to the \
                          attribute's line (or `reason = \"…\"`), or fix the lint and drop it"
                    .to_string(),
            });
        }
    }
}

/// Runs every rule over one file, applies waivers, and reports stale ones.
pub fn scan_source(rel_path: &str, source: &str) -> (Vec<Diagnostic>, Vec<Waiver>) {
    let ctx = FileContext::new(rel_path, source);
    let (mut waivers, mut diagnostics) = parse_waivers(rel_path, &ctx.lines);
    let mut found = Vec::new();
    check_nondeterministic_iteration(&ctx, &mut found);
    check_panic_free_durability(&ctx, &mut found);
    check_wall_clock_hygiene(&ctx, &mut found);
    check_telemetry_handle_discipline(&ctx, &mut found);
    check_one_fan_out(&ctx, &mut found);
    check_reasoned_allow(&ctx, &mut found);
    for diag in found {
        match waivers.iter_mut().find(|w| w.rule == diag.rule && w.covers_line == diag.line) {
            Some(waiver) => waiver.suppressed += 1,
            None => diagnostics.push(diag),
        }
    }
    for waiver in &waivers {
        if waiver.suppressed == 0 {
            diagnostics.push(Diagnostic {
                rule: UNUSED_WAIVER,
                path: rel_path.to_string(),
                line: waiver.declared_line,
                message: format!(
                    "waiver for `{}` suppresses nothing — the violation moved or was \
                     fixed; delete the comment",
                    waiver.rule
                ),
            });
        }
    }
    diagnostics.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    (diagnostics, waivers)
}
