//! The invariant rules, each grounded in a past bug or a standing
//! contract of this workspace.
//!
//! Rules are token-sequence matchers over [`crate::lexer::Lexed`] —
//! deliberately heuristic (no type information), tuned so that every
//! match is either a real violation or worth a written justification.
//! Scope is part of each rule: some apply everywhere, some only to the
//! determinism-bearing layers (`search`, `core`, `par`, `pso`, the
//! facade and bins), some only to the digest/merge/emission files
//! where iteration order becomes bytes.

use crate::lexer::{Lexed, Tok, TokKind};

/// Static description of one rule, surfaced by `--list-rules`, the JSON
/// report and the README table.
pub struct RuleInfo {
    /// Stable kebab-case id, used in diagnostics and `allow(...)`.
    pub id: &'static str,
    /// The contract the rule protects, one line.
    pub contract: &'static str,
}

/// Every enforceable rule, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "wall-clock",
        contract: "search decisions are keyed on eval counts + objective bits, never on time: \
                   Instant::now/SystemTime::now live only in crates/obs — everything else \
                   reads the sanctioned cacs_obs::now()",
    },
    RuleInfo {
        id: "poisoned-lock",
        contract: "a panicking evaluation must not abort unrelated searches: lock via \
                   cacs_par::sync::lock_recover, never .lock().unwrap()/.expect()",
    },
    RuleInfo {
        id: "raw-spawn",
        contract: "threads are spawned only by cacs-par and the strategy engine — ad-hoc \
                   thread::spawn escapes the CACS_THREADS contract",
    },
    RuleInfo {
        id: "unchecked-rank-math",
        contract: "rank/length arithmetic in search uses checked_/saturating_ forms (the PR-2 \
                   silent u64 overflow class)",
    },
    RuleInfo {
        id: "hash-iter-in-digest",
        contract: "digest/merge/report-emission code never touches HashMap/HashSet: iteration \
                   order would leak into bytes that must be identical everywhere",
    },
    RuleInfo {
        id: "float-eq",
        contract: "f64 ==/!= outside the documented total-order module breaks bit-stable \
                   tie-breaking: compare to_bits() or use the exhaustive.rs total order",
    },
    RuleInfo {
        id: "float-key",
        contract: "no f64/f32 in the key type of a map or set: NaN keys are unfindable and \
                   -0.0/0.0 alias under float ==; key on cacs_linalg::BitKey bit patterns",
    },
    RuleInfo {
        id: "unframed-wire-write",
        contract: "every hand-built wire line reaches a WorkerLink through append_crc/\
                   encode_framed — unframed writes defeat end-to-end CRC integrity",
    },
    RuleInfo {
        id: "metrics-in-digest",
        contract: "digest/merge/report-emission code never touches cacs_obs: metrics are \
                   reporting-only and must be unable to feed a digest or a search decision",
    },
];

/// Meta-diagnostics the engine emits about suppressions themselves.
/// They are not suppressible and not listed in [`RULES`].
pub const META_BAD_SUPPRESSION: &str = "bad-suppression";
/// See [`META_BAD_SUPPRESSION`].
pub const META_UNUSED_SUPPRESSION: &str = "unused-suppression";

/// True when `id` names an enforceable rule.
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// A rule match before suppression processing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawDiag {
    pub rule: &'static str,
    pub line: u32,
    pub message: String,
}

/// Runs every rule whose scope covers `path` (workspace-relative,
/// `/`-separated) over one lexed file.
pub fn check_file(path: &str, lexed: &Lexed) -> Vec<RawDiag> {
    let mut diags = Vec::new();
    let toks = &lexed.tokens[..];
    if applies_wall_clock(path) {
        wall_clock(toks, &mut diags);
    }
    poisoned_lock(toks, &mut diags);
    if applies_raw_spawn(path) {
        raw_spawn(toks, &mut diags);
    }
    if applies_rank_math(path) {
        unchecked_rank_math(toks, &mut diags);
    }
    if applies_digest(path) {
        hash_iter_in_digest(toks, &mut diags);
        metrics_in_digest(toks, &mut diags);
    }
    if applies_float_eq(path) {
        float_eq(toks, &mut diags);
    }
    float_key(toks, &mut diags);
    if applies_wire(path) {
        unframed_wire_write(toks, &mut diags);
    }
    diags.sort_by_key(|d| d.line);
    diags
}

// ---------------------------------------------------------------- scopes

fn in_dir(path: &str, dir: &str) -> bool {
    path.starts_with(dir) && path.as_bytes().get(dir.len()) == Some(&b'/')
}

/// The obs crate is the one sanctioned home of the monotonic clock:
/// benches, deadlines and timeouts all read `cacs_obs::now()`. A raw
/// `Instant::now`/`SystemTime::now` anywhere else needs a reason.
fn applies_wall_clock(path: &str) -> bool {
    !in_dir(path, "crates/obs")
}

/// cacs-par owns the scoped lanes of a parallel region, and the
/// strategy engine owns per-start search threads.
fn applies_raw_spawn(path: &str) -> bool {
    path != "crates/par/src/lib.rs" && path != "crates/search/src/strategy.rs"
}

fn applies_rank_math(path: &str) -> bool {
    in_dir(path, "crates/search/src")
}

/// The files whose output is a digest, a merge or emitted bytes: any
/// unordered container here is a latent cross-host divergence, and any
/// metrics read here is a latent determinism leak (metrics route
/// through non-digest helpers like `src/cli/metrics.rs` instead).
const DIGEST_FILES: &[&str] = &[
    "crates/search/src/exhaustive.rs",
    "crates/search/src/integrity.rs",
    "crates/search/src/store.rs",
    "crates/core/src/report.rs",
    "src/cli.rs",
    "src/cli/driver.rs",
];

fn applies_digest(path: &str) -> bool {
    DIGEST_FILES.contains(&path)
}

/// The determinism-bearing layers. `exhaustive.rs` is the documented
/// total-order module (PR 4) and is the one place allowed to compare.
fn applies_float_eq(path: &str) -> bool {
    (in_dir(path, "crates/search")
        || in_dir(path, "crates/core")
        || in_dir(path, "crates/par")
        || in_dir(path, "crates/pso")
        || in_dir(path, "src"))
        && path != "crates/search/src/exhaustive.rs"
}

/// The production wire surface: the distrib crate and the bins that
/// speak the protocol. Tests exercise deliberate corruption constantly
/// and are out of scope.
fn applies_wire(path: &str) -> bool {
    in_dir(path, "crates/distrib/src") || in_dir(path, "src/bin")
}

// ----------------------------------------------------------------- rules

fn ident(toks: &[Tok], i: usize, text: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
}

fn punct(toks: &[Tok], i: usize, text: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
}

fn any_ident(toks: &[Tok], i: usize, options: &[&str]) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && options.contains(&t.text.as_str()))
}

fn wall_clock(toks: &[Tok], out: &mut Vec<RawDiag>) {
    for i in 0..toks.len() {
        if any_ident(toks, i, &["Instant", "SystemTime"])
            && punct(toks, i + 1, "::")
            && ident(toks, i + 2, "now")
        {
            out.push(RawDiag {
                rule: "wall-clock",
                line: toks[i].line,
                message: format!(
                    "{}::now() outside the timeout/bench allowlist — decisions must be keyed \
                     on eval counts and objective bits, not time",
                    toks[i].text
                ),
            });
        }
    }
}

fn poisoned_lock(toks: &[Tok], out: &mut Vec<RawDiag>) {
    for i in 0..toks.len() {
        if punct(toks, i, ".")
            && ident(toks, i + 1, "lock")
            && punct(toks, i + 2, "(")
            && punct(toks, i + 3, ")")
            && punct(toks, i + 4, ".")
            && any_ident(toks, i + 5, &["unwrap", "expect", "unwrap_or_else"])
        {
            out.push(RawDiag {
                rule: "poisoned-lock",
                line: toks[i].line,
                message: format!(
                    ".lock().{}(…) — use cacs_par::sync::lock_recover so a panicking \
                     evaluation cannot abort unrelated searches via poison",
                    toks[i + 5].text
                ),
            });
        }
    }
}

fn raw_spawn(toks: &[Tok], out: &mut Vec<RawDiag>) {
    for i in 0..toks.len() {
        if ident(toks, i, "thread")
            && punct(toks, i + 1, "::")
            && any_ident(toks, i + 2, &["spawn", "Builder"])
        {
            out.push(RawDiag {
                rule: "raw-spawn",
                line: toks[i].line,
                message: format!(
                    "thread::{} outside cacs-par / the strategy engine — ad-hoc threads \
                     escape the CACS_THREADS contract",
                    toks[i + 2].text
                ),
            });
        }
    }
}

/// Identifier smells rank-like when it names ranks or mixed-radix
/// strides — the values PR 2 silently overflowed.
fn rankish(tok: Option<&Tok>) -> bool {
    tok.is_some_and(|t| {
        t.kind == TokKind::Ident && {
            let lower = t.text.to_ascii_lowercase();
            lower.contains("rank") || lower.contains("radix")
        }
    })
}

/// `<space-ish>.len()` ending at token `i` (the close paren).
fn space_len_ending_at(toks: &[Tok], i: usize) -> bool {
    i >= 4
        && punct(toks, i, ")")
        && punct(toks, i - 1, "(")
        && ident(toks, i - 2, "len")
        && punct(toks, i - 3, ".")
        && toks.get(i - 4).is_some_and(|t| {
            t.kind == TokKind::Ident && t.text.to_ascii_lowercase().contains("space")
        })
}

/// `<space-ish>.len()` starting at token `i` (the receiver).
fn space_len_starting_at(toks: &[Tok], i: usize) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && t.text.to_ascii_lowercase().contains("space"))
        && punct(toks, i + 1, ".")
        && ident(toks, i + 2, "len")
        && punct(toks, i + 3, "(")
        && punct(toks, i + 4, ")")
}

/// Token that can end an operand — used to tell binary `*`/`+` from
/// unary deref/reference positions.
fn ends_operand(tok: Option<&Tok>) -> bool {
    tok.is_some_and(|t| {
        matches!(t.kind, TokKind::Ident | TokKind::Int | TokKind::Float)
            || (t.kind == TokKind::Punct && (t.text == ")" || t.text == "]"))
    })
}

fn unchecked_rank_math(toks: &[Tok], out: &mut Vec<RawDiag>) {
    for i in 0..toks.len() {
        let Some(op) = toks.get(i) else { continue };
        if op.kind != TokKind::Punct || !matches!(op.text.as_str(), "*" | "+" | "*=" | "+=") {
            continue;
        }
        // Binary uses only: `*rank` as deref must not fire.
        if (op.text == "*" || op.text == "+")
            && !ends_operand(i.checked_sub(1).and_then(|p| toks.get(p)))
        {
            continue;
        }
        let prev_hit = rankish(i.checked_sub(1).and_then(|p| toks.get(p)))
            || i.checked_sub(1)
                .is_some_and(|p| space_len_ending_at(toks, p));
        let next_hit = rankish(toks.get(i + 1)) || space_len_starting_at(toks, i + 1);
        if prev_hit || next_hit {
            out.push(RawDiag {
                rule: "unchecked-rank-math",
                line: op.line,
                message: format!(
                    "raw `{}` on rank/length values — use checked_/saturating_ arithmetic \
                     (a silent u64 wrap here corrupted the SpaceTooLarge guard in PR 2)",
                    op.text
                ),
            });
        }
    }
}

fn hash_iter_in_digest(toks: &[Tok], out: &mut Vec<RawDiag>) {
    for t in toks {
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            out.push(RawDiag {
                rule: "hash-iter-in-digest",
                line: t.line,
                message: format!(
                    "{} in digest/merge/emission code — iteration order is nondeterministic; \
                     use BTreeMap/BTreeSet or a sorted Vec",
                    t.text
                ),
            });
        }
    }
}

fn metrics_in_digest(toks: &[Tok], out: &mut Vec<RawDiag>) {
    for i in 0..toks.len() {
        // Direct crate use (`cacs_obs::…`) and the facade re-export
        // (`cacs::obs::…`) both count — either one lets wall-clock or
        // counter state reach bytes that must be identical everywhere.
        let hit = ident(toks, i, "cacs_obs")
            || (ident(toks, i, "cacs") && punct(toks, i + 1, "::") && ident(toks, i + 2, "obs"));
        if hit {
            out.push(RawDiag {
                rule: "metrics-in-digest",
                line: toks[i].line,
                message: "cacs_obs in digest/merge/emission code — metrics are reporting-only; \
                          route them through a non-digest module (e.g. src/cli/metrics.rs)"
                    .to_string(),
            });
        }
    }
}

/// Float-typed operand heuristic: a float literal, or an `f64::`/
/// `f32::` associated constant, immediately beside the comparison.
fn floaty_before(toks: &[Tok], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|p| toks.get(p)) else {
        return false;
    };
    if prev.kind == TokKind::Float {
        return true;
    }
    // `f64::NAN ==` — constant path ending just before the operator.
    prev.kind == TokKind::Ident
        && i >= 3
        && punct(toks, i - 2, "::")
        && any_ident(toks, i - 3, &["f64", "f32"])
}

fn floaty_after(toks: &[Tok], i: usize) -> bool {
    let Some(next) = toks.get(i + 1) else {
        return false;
    };
    if next.kind == TokKind::Float {
        return true;
    }
    // `== f64::NAN`.
    any_ident(toks, i + 1, &["f64", "f32"]) && punct(toks, i + 2, "::")
}

fn float_eq(toks: &[Tok], out: &mut Vec<RawDiag>) {
    for i in 0..toks.len() {
        let Some(op) = toks.get(i) else { continue };
        if op.kind != TokKind::Punct || !(op.text == "==" || op.text == "!=") {
            continue;
        }
        if floaty_before(toks, i) || floaty_after(toks, i) {
            out.push(RawDiag {
                rule: "float-eq",
                line: op.line,
                message: format!(
                    "`{}` against a float — compare f64::to_bits() or go through the \
                     documented total order in crates/search/src/exhaustive.rs",
                    op.text
                ),
            });
        }
    }
}

/// The keyed std containers whose key type position the `float-key`
/// rule inspects. Maps key on their first generic argument, sets on the
/// whole argument list.
const KEYED_CONTAINERS: &[&str] = &["HashMap", "BTreeMap", "HashSet", "BTreeSet"];

/// A raw float anywhere in a container's key type — `HashMap<f64, _>`,
/// `BTreeSet<(u32, f64)>`, `HashMap<Vec<f64>, _>` — makes lookups
/// diverge from the computation they memoise: `NaN != NaN` strands the
/// entry, `-0.0 == 0.0` merges two bit patterns into one slot. The
/// sanctioned alternative is `cacs_linalg::BitKey`. The scan tracks
/// angle-bracket depth from the container's `<` (turbofish included)
/// and, for maps, stops at the top-level `,` that ends the key type.
fn float_key(toks: &[Tok], out: &mut Vec<RawDiag>) {
    for i in 0..toks.len() {
        let Some(container) = toks.get(i) else {
            continue;
        };
        if container.kind != TokKind::Ident || !KEYED_CONTAINERS.contains(&container.text.as_str())
        {
            continue;
        }
        let open = if punct(toks, i + 1, "<") {
            i + 1
        } else if punct(toks, i + 1, "::") && punct(toks, i + 2, "<") {
            i + 2
        } else {
            continue;
        };
        let key_region_only = container.text.ends_with("Map");
        let mut depth = 1usize;
        // Tuple/array keys nest commas inside (…)/[…]; only a comma at
        // the top level of the angle brackets ends the key type.
        let mut grouping = 0usize;
        for t in &toks[open + 1..] {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "(" | "[" => grouping += 1,
                    ")" | "]" => grouping = grouping.saturating_sub(1),
                    "," if depth == 1 && grouping == 0 && key_region_only => break,
                    _ => {}
                }
            }
            if t.kind == TokKind::Ident && (t.text == "f64" || t.text == "f32") {
                out.push(RawDiag {
                    rule: "float-key",
                    line: container.line,
                    message: format!(
                        "{} keyed on {} — NaN keys are unfindable and -0.0/0.0 alias under \
                         float ==; key on cacs_linalg::BitKey bit patterns instead",
                        container.text, t.text
                    ),
                });
                break;
            }
        }
    }
}

/// Framing helpers whose presence in the argument list proves the line
/// went through CRC framing.
const FRAMING_IDENTS: &[&str] = &["append_crc", "encode_framed", "crc32", "verify_line"];

fn unframed_wire_write(toks: &[Tok], out: &mut Vec<RawDiag>) {
    for i in 0..toks.len() {
        // `.send(` (method) or `send_line(` (callback) — the two ways
        // bytes reach a worker link.
        let open = if punct(toks, i, ".") && ident(toks, i + 1, "send") && punct(toks, i + 2, "(") {
            i + 2
        } else if ident(toks, i, "send_line")
            && punct(toks, i + 1, "(")
            && !punct(toks, i.wrapping_sub(1), ".")
        {
            i + 1
        } else {
            continue;
        };
        // Scan the argument list for a hand-built string without framing.
        let mut depth = 0usize;
        let mut has_literal = false;
        let mut has_framing = false;
        for t in &toks[open..] {
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "(") => depth += 1,
                (TokKind::Punct, ")") => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                (TokKind::Str, _) => has_literal = true,
                (TokKind::Ident, id) if FRAMING_IDENTS.contains(&id) => has_framing = true,
                _ => {}
            }
        }
        if has_literal && !has_framing {
            out.push(RawDiag {
                rule: "unframed-wire-write",
                line: toks[i].line,
                message: "hand-built wire line sent without CRC framing — route it through \
                          append_crc/encode_framed so corruption is detectable end to end"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> Vec<(String, u32)> {
        check_file(path, &lex(src))
            .into_iter()
            .map(|d| (d.rule.to_string(), d.line))
            .collect()
    }

    #[test]
    fn wall_clock_fires_and_respects_allowlist() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(run("crates/search/src/hybrid.rs", src).len(), 1);
        // Since the obs crate became the one sanctioned clock, the old
        // bench exemption is gone: it reads cacs_obs::now().
        assert_eq!(run("crates/bench/src/lib.rs", src).len(), 1);
        assert_eq!(run("crates/search/src/strategy.rs", src).len(), 1);
        assert_eq!(run("crates/obs/src/lib.rs", src).len(), 0);
    }

    #[test]
    fn poisoned_lock_catches_all_three_forms() {
        let src = "fn f() {\n a.lock().unwrap();\n b.lock().expect(\"x\");\n c.lock().unwrap_or_else(|e| e.into_inner());\n}\n";
        let hits = run("crates/core/src/problem.rs", src);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].1, 2);
    }

    #[test]
    fn lock_recover_call_is_clean() {
        let src = "fn f() { let g = lock_recover(&m); let h = m.try_lock(); }\n";
        assert!(run("crates/search/src/store.rs", src).is_empty());
    }

    #[test]
    fn raw_spawn_flags_spawn_and_builder_only_outside_owners() {
        let src = "fn f() { std::thread::spawn(|| {}); thread::Builder::new(); s.spawn(|| {}); }\n";
        assert_eq!(run("crates/core/src/optimize.rs", src).len(), 2);
        assert_eq!(run("crates/par/src/lib.rs", src).len(), 0);
        assert_eq!(run("crates/search/src/strategy.rs", src).len(), 0);
    }

    #[test]
    fn rank_math_heuristic() {
        let bad = "fn f(rank: u64) -> u64 { rank * 2 + start_rank }\n";
        let hits = run("crates/search/src/space.rs", bad);
        assert_eq!(hits.len(), 2);
        // Deref is not arithmetic; checked forms don't use bare ops.
        let ok = "fn f(rank: &u64) -> u64 { let r = *rank; r.checked_mul(2).unwrap_or(0) }\n";
        assert!(run("crates/search/src/space.rs", ok).is_empty());
        // Out of scope: same text elsewhere.
        assert!(run("crates/core/src/problem.rs", bad).is_empty());
        // space.len() adjacency counts.
        let len = "fn f(space: &S) -> u64 { space.len() + 3 }\n";
        assert_eq!(run("crates/search/src/space.rs", len).len(), 1);
    }

    #[test]
    fn hash_in_digest_files_only() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(run("crates/search/src/store.rs", src).len(), 1);
        assert!(run("crates/search/src/space.rs", src).is_empty());
    }

    #[test]
    fn metrics_in_digest_files_only() {
        let direct = "fn f() { cacs_obs::metrics::CACHE_HITS.incr(); }\n";
        let facade = "fn f() { let t = cacs::obs::now(); }\n";
        assert_eq!(run("src/cli/driver.rs", direct).len(), 1);
        assert_eq!(run("crates/core/src/report.rs", facade).len(), 1);
        // Outside the digest scope metrics are the whole point.
        assert!(run("src/cli/metrics.rs", direct).is_empty());
        assert!(run("crates/search/src/strategy.rs", direct).is_empty());
        // `cacs::search::…` does not smell like the obs re-export.
        assert!(run(
            "src/cli.rs",
            "use cacs_search::ExhaustiveReport;\nfn f() { let x = cacs::search::noop(); }\n"
        )
        .is_empty());
    }

    #[test]
    fn float_eq_literal_and_const_paths() {
        let src = "fn f(x: f64) { if x == 0.0 {} if 1.5 != x {} if x == f64::NAN {} }\n";
        assert_eq!(run("crates/core/src/problem.rs", src).len(), 3);
        // Total-order module is exempt; integer comparisons never fire.
        assert!(run("crates/search/src/exhaustive.rs", src).is_empty());
        assert!(run(
            "crates/core/src/problem.rs",
            "fn f(n: u64) { let b = n == 3; }\n"
        )
        .is_empty());
    }

    #[test]
    fn float_key_catches_key_positions_everywhere() {
        // Maps: only the key type (first top-level argument) counts.
        let bad_map = "fn f() { let m: HashMap<f64, u64> = HashMap::new(); }\n";
        assert_eq!(run("crates/cache/src/config.rs", bad_map).len(), 1);
        // Nested floats in the key region count (tuple and Vec keys).
        let tuple_key = "fn f() { let m: BTreeMap<(u32, f64), u64> = BTreeMap::new(); }\n";
        assert_eq!(run("crates/apps/src/lib.rs", tuple_key).len(), 1);
        let vec_key = "fn f() { let m = HashMap::<Vec<f64>, u64>::new(); }\n";
        assert_eq!(run("src/cli/metrics.rs", vec_key).len(), 1);
        // Sets: the whole argument list is the key.
        let bad_set = "fn f() { let s: BTreeSet<f32> = BTreeSet::new(); }\n";
        assert_eq!(run("crates/control/src/lifted.rs", bad_set).len(), 1);
        // A float in the *value* type is fine.
        let value = "fn f() { let m: HashMap<u64, f64> = HashMap::new(); }\n";
        assert!(run("crates/cache/src/config.rs", value).is_empty());
        // Value types with their own generics don't leak into the scan.
        let nested_value = "fn f() { let m: BTreeMap<u64, Vec<f64>> = BTreeMap::new(); }\n";
        assert!(run("crates/cache/src/config.rs", nested_value).is_empty());
        // BitKey-keyed maps are the sanctioned pattern.
        let bitkey = "fn f() { let m: HashMap<BitKey, Outcome> = HashMap::new(); }\n";
        assert!(run("crates/core/src/ctx.rs", bitkey).is_empty());
    }

    #[test]
    fn unframed_wire_write_needs_literal_and_no_framing() {
        let bad = "fn f() { link.send(&format!(\"R {x}\")).unwrap_or(()); }\n";
        assert_eq!(run("src/bin/opt.rs", bad).len(), 1);
        let framed = "fn f() { link.send(&append_crc(&format!(\"R {x}\"))).unwrap_or(()); }\n";
        assert!(run("src/bin/opt.rs", framed).is_empty());
        let opaque = "fn f() { tx.send(line).unwrap_or(()); }\n";
        assert!(run("src/bin/opt.rs", opaque).is_empty());
        // Out of scope: tests and other crates.
        assert!(run("tests/strategy_cli_integration.rs", bad).is_empty());
        assert!(run("crates/search/src/strategy.rs", bad).is_empty());
    }

    #[test]
    fn send_line_callback_is_covered() {
        let bad = "fn f() { send_line(&format!(\"?garbage {n:016x}\"))?; }\n";
        assert_eq!(run("src/bin/opt.rs", bad).len(), 1);
    }

    #[test]
    fn every_rule_id_is_known() {
        for r in RULES {
            assert!(is_known_rule(r.id));
        }
        assert!(!is_known_rule("no-such-rule"));
    }
}
