//! The rule engine and the shipped rule families.
//!
//! Each rule checks one workspace invariant (the README's "Static analysis &
//! invariants" section states them as I1–I5; rules cite those ids). Rules are
//! lexical/convention checks over the token stream — deliberately simple, so
//! a reviewer can predict exactly what they flag — and every finding can be
//! suppressed per site with a justified
//! `// monomi-lint: allow(<rule>): <why>` marker.

use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;

/// How severe a finding is. `Deny` findings fail the build; `Warn` findings
/// are reported but do not affect the exit code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    Deny,
    Warn,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }
}

/// One rule violation, with its `file:line` span.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Rule id (`trust-boundary`, `panic-freedom`, …).
    pub rule: &'static str,
    pub severity: Severity,
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    pub message: String,
}

/// Static description of one rule, for `--rules` and the JSON report.
pub struct RuleInfo {
    pub id: &'static str,
    pub invariant: &'static str,
    pub severity: Severity,
    pub summary: &'static str,
}

/// The rule catalog. Ids are what `allow(...)` markers must name.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: TRUST_BOUNDARY,
        invariant: "I1",
        severity: Severity::Deny,
        summary: "key material and decryption must never be named in server-side crates \
                  (monomi-engine, monomi-store, monomi-sql, monomi-proto, monomi-server, \
                  monomi-faults, monomi-obs)",
    },
    RuleInfo {
        id: MONTGOMERY_DOMAIN,
        invariant: "I2",
        severity: Severity::Deny,
        summary: "Montgomery-resident values (mont_*/*_mont naming, to_mont/one_mont results) \
                  must not flow into plain-domain arithmetic entry points",
    },
    RuleInfo {
        id: DETERMINISM_CLOCK_ENV,
        invariant: "I3",
        severity: Severity::Deny,
        summary: "no clock, environment, or parallelism probes inside operator execution paths \
                  (monomi-engine ops.rs/exec.rs)",
    },
    RuleInfo {
        id: DETERMINISM_HASH_ITER,
        invariant: "I3",
        severity: Severity::Deny,
        summary: "no iteration over HashMap/HashSet in monomi-engine: iteration order is \
                  nondeterministic; use BTreeMap/sorting or carry a per-site review-allow",
    },
    RuleInfo {
        id: PANIC_FREEDOM,
        invariant: "I4",
        severity: Severity::Deny,
        summary: "no unwrap/expect/panic!/unreachable!/unchecked indexing in monomi-store \
                  (bytes from disk must fail the query, not the process) or monomi-faults \
                  (a mangled frame must fail the transfer, not the harness)",
    },
    RuleInfo {
        id: UNSAFE_HYGIENE,
        invariant: "I5",
        severity: Severity::Deny,
        summary: "`unsafe` appears only in the allow-listed AES-NI module \
                  (crates/monomi-crypto/src/aes/ni.rs), each use under a `// SAFETY:` comment; \
                  every crate without unsafe code carries #![forbid(unsafe_code)] in its root \
                  (shims excluded)",
    },
    RuleInfo {
        id: ALLOW_JUSTIFICATION,
        invariant: "I1-I5",
        severity: Severity::Deny,
        summary: "every monomi-lint allow marker must name a known rule and carry a \
                  non-empty justification",
    },
];

pub const TRUST_BOUNDARY: &str = "trust-boundary";
pub const MONTGOMERY_DOMAIN: &str = "montgomery-domain";
pub const DETERMINISM_CLOCK_ENV: &str = "determinism-clock-env";
pub const DETERMINISM_HASH_ITER: &str = "determinism-hash-iter";
pub const PANIC_FREEDOM: &str = "panic-freedom";
pub const UNSAFE_HYGIENE: &str = "unsafe-hygiene";
pub const ALLOW_JUSTIFICATION: &str = "allow-justification";

/// Crates that run inside the untrusted server's trust domain: they compute
/// on ciphertexts and must never name key material or decryption.
/// `monomi-faults` sits on the wire between client and server — it handles
/// ciphertext frames in flight, so it is held to the same boundary.
/// `monomi-obs` is linked by the server (spans, metrics), so nothing in it
/// may ever name key material or decryption either.
const SERVER_CRATES: &[&str] = &[
    "monomi-engine",
    "monomi-store",
    "monomi-sql",
    "monomi-proto",
    "monomi-server",
    "monomi-faults",
    "monomi-obs",
];

/// Crates whose non-test code must never panic: monomi-store decodes
/// untrusted disk bytes, monomi-faults deliberately mangles wire bytes —
/// both must surface failure as an error, not take the process down.
const PANIC_FREE_CRATES: &[&str] = &["monomi-store", "monomi-faults"];

/// Identifiers that *are* key material or decryption capability. Naming one
/// of these in a server crate is a trust-boundary violation.
const KEY_MATERIAL_IDENTS: &[&str] = &[
    "MasterKey",
    "PaillierKey",
    "OpeCipher",
    "RndCipher",
    "FormatPreservingCipher",
    "DetBytes",
    "SearchScheme",
];

/// The files that may contain `unsafe`. The AES-NI rounds need it: Rust has
/// no safe way to enter a `#[target_feature]` function from ordinary code.
const UNSAFE_FILES: &[&str] = &["crates/monomi-crypto/src/aes/ni.rs"];

/// Crates where the Montgomery-residency convention applies.
const MONT_CRATES: &[&str] = &["monomi-math", "monomi-crypto"];

/// Entry points that take *plain-domain* (non-Montgomery) big integers.
/// Passing a Montgomery-resident value here silently computes garbage.
const PLAIN_DOMAIN_FNS: &[&str] = &["to_mont", "mod_pow", "mul_mod", "mod_inverse"];

/// Calls whose result is Montgomery-resident: a `let` binding initialized
/// from one of these is tracked as mont-resident for the rest of the file.
const MONT_PRODUCING_FNS: &[&str] = &["to_mont", "one_mont", "mont_mul", "mont_sqr", "r_to_the"];

/// Operator-execution files of monomi-engine: the determinism contract says
/// results are byte-identical at every thread count, so nothing in here may
/// consult clocks, the environment, or the machine's parallelism.
const EXEC_PATH_FILES: &[&str] = &["ops.rs", "exec.rs"];

/// Methods whose call on a HashMap/HashSet observes iteration order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// Runs every per-file rule over `file`, appending findings to `out`.
/// (The crate-level half of `unsafe-hygiene` lives in
/// [`check_unsafe_hygiene`].)
pub fn check_file(file: &SourceFile, out: &mut Vec<Violation>) {
    check_allow_markers(file, out);
    check_unsafe_sites(file, out);
    if SERVER_CRATES.contains(&file.crate_name.as_str()) {
        check_trust_boundary(file, out);
    }
    if MONT_CRATES.contains(&file.crate_name.as_str()) {
        check_montgomery_domain(file, out);
    }
    if file.crate_name == "monomi-engine" {
        if EXEC_PATH_FILES.contains(&file.basename()) {
            check_determinism_clock_env(file, out);
        }
        check_determinism_hash_iter(file, out);
    }
    if PANIC_FREE_CRATES.contains(&file.crate_name.as_str()) {
        check_panic_freedom(file, out);
    }
}

/// Emits a finding unless a justified allow marker targets its line.
fn push(
    file: &SourceFile,
    out: &mut Vec<Violation>,
    rule: &'static str,
    line: usize,
    message: String,
) {
    if file.allowed(rule, line) {
        return;
    }
    let severity = RULES
        .iter()
        .find(|r| r.id == rule)
        .map(|r| r.severity)
        .unwrap_or(Severity::Deny);
    out.push(Violation {
        rule,
        severity,
        file: file.rel_path.clone(),
        line,
        message,
    });
}

/// `allow-justification`: every marker must name a known rule and justify
/// itself. Checked on all files, test spans included (markers in test code
/// still shape reviewer expectations).
fn check_allow_markers(file: &SourceFile, out: &mut Vec<Violation>) {
    for a in &file.allows {
        let known = RULES.iter().any(|r| r.id == a.rule);
        if !known {
            push(
                file,
                out,
                ALLOW_JUSTIFICATION,
                a.marker_line,
                format!(
                    "allow marker names unknown rule `{}` (known: {})",
                    a.rule,
                    RULES.iter().map(|r| r.id).collect::<Vec<_>>().join(", ")
                ),
            );
        } else if a.justification.is_empty() {
            push(
                file,
                out,
                ALLOW_JUSTIFICATION,
                a.marker_line,
                format!(
                    "allow({}) carries no justification — write `allow({}): <why this site is sound>`",
                    a.rule, a.rule
                ),
            );
        }
    }
}

/// `trust-boundary` (I1): server crates must not name decryption or key
/// material. String literals and comments never trip this (the lexer keeps
/// them out of the identifier stream).
fn check_trust_boundary(file: &SourceFile, out: &mut Vec<Violation>) {
    for i in file.code_indices() {
        let t = &file.toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text.starts_with("decrypt") {
            push(
                file,
                out,
                TRUST_BOUNDARY,
                t.line,
                format!(
                    "`{}` named in server-side crate `{}`: decryption must live only in the \
                     trusted client",
                    t.text, file.crate_name
                ),
            );
        } else if KEY_MATERIAL_IDENTS.contains(&t.text.as_str()) {
            push(
                file,
                out,
                TRUST_BOUNDARY,
                t.line,
                format!(
                    "key-material type `{}` named in server-side crate `{}`: keys must never \
                     cross the trust boundary",
                    t.text, file.crate_name
                ),
            );
        }
    }
}

/// Does this identifier follow the Montgomery-residency naming convention?
fn is_mont_named(name: &str) -> bool {
    name.starts_with("mont_") || name.ends_with("_mont")
}

/// `montgomery-domain` (I2): a Montgomery-resident value — recognized by
/// naming convention or by a `let` binding initialized from a
/// Montgomery-producing call — must not appear as an argument to a
/// plain-domain entry point.
fn check_montgomery_domain(file: &SourceFile, out: &mut Vec<Violation>) {
    let code: Vec<usize> = file.code_indices().collect();
    // Pass 1: `let [mut] NAME = <expr containing a mont-producing call>;`
    let mut mont_lets: Vec<String> = Vec::new();
    let mut k = 0usize;
    while k < code.len() {
        let t = &file.toks[code[k]];
        if t.is_ident("let") {
            let mut j = k + 1;
            if j < code.len() && file.toks[code[j]].is_ident("mut") {
                j += 1;
            }
            if j < code.len() && file.toks[code[j]].kind == TokKind::Ident {
                let name = file.toks[code[j]].text.clone();
                let mut producing = false;
                let mut m = j + 1;
                while m < code.len() && !file.toks[code[m]].is_punct(';') {
                    let mt = &file.toks[code[m]];
                    if mt.kind == TokKind::Ident
                        && MONT_PRODUCING_FNS.contains(&mt.text.as_str())
                        && code.get(m + 1).is_some_and(|&n| file.toks[n].is_punct('('))
                    {
                        producing = true;
                    }
                    m += 1;
                }
                if producing {
                    mont_lets.push(name);
                }
                k = m;
                continue;
            }
        }
        k += 1;
    }
    // Pass 2: arguments of plain-domain calls.
    for (k, &ci) in code.iter().enumerate() {
        let t = &file.toks[ci];
        if t.kind != TokKind::Ident || !PLAIN_DOMAIN_FNS.contains(&t.text.as_str()) {
            continue;
        }
        let Some(&open) = code.get(k + 1) else {
            continue;
        };
        if !file.toks[open].is_punct('(') {
            continue;
        }
        // Walk the argument tokens to the matching `)`.
        let mut depth = 0usize;
        for &ai in &code[k + 1..] {
            let at = &file.toks[ai];
            if at.is_punct('(') {
                depth += 1;
            } else if at.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if at.kind == TokKind::Ident
                && (is_mont_named(&at.text) || mont_lets.contains(&at.text))
            {
                push(
                    file,
                    out,
                    MONTGOMERY_DOMAIN,
                    at.line,
                    format!(
                        "Montgomery-resident value `{}` passed to plain-domain `{}`: convert \
                         with from_mont first (or use the mont_* entry point)",
                        at.text, t.text
                    ),
                );
            }
        }
    }
}

/// `determinism-clock-env` (I3): operator execution paths must not read
/// clocks (`Instant::now`, `SystemTime`), the environment (`env::var*`), or
/// the machine's parallelism (`available_parallelism`).
fn check_determinism_clock_env(file: &SourceFile, out: &mut Vec<Violation>) {
    let code: Vec<usize> = file.code_indices().collect();
    for (k, &ci) in code.iter().enumerate() {
        let t = &file.toks[ci];
        if t.kind != TokKind::Ident {
            continue;
        }
        let follows_path = |name: &str| {
            code.get(k + 1)
                .zip(code.get(k + 2))
                .zip(code.get(k + 3))
                .is_some_and(|((&a, &b), &c)| {
                    file.toks[a].is_punct(':')
                        && file.toks[b].is_punct(':')
                        && file.toks[c].is_ident(name)
                })
        };
        let hit = match t.text.as_str() {
            "SystemTime" | "available_parallelism" => Some(t.text.clone()),
            "Instant" if follows_path("now") => Some("Instant::now".to_string()),
            "env" if follows_path("var") || follows_path("var_os") || follows_path("vars") => {
                Some("env::var".to_string())
            }
            _ => None,
        };
        if let Some(what) = hit {
            push(
                file,
                out,
                DETERMINISM_CLOCK_ENV,
                t.line,
                format!(
                    "`{what}` inside an operator execution path: results must be byte-identical \
                     at every thread count on every machine"
                ),
            );
        }
    }
}

/// `determinism-hash-iter` (I3): iteration over a HashMap/HashSet observes
/// nondeterministic order. Tracks names declared with a HashMap/HashSet type
/// or initializer (let bindings and struct fields) and flags `for .. in`
/// loops and order-observing method calls on them.
fn check_determinism_hash_iter(file: &SourceFile, out: &mut Vec<Violation>) {
    let code: Vec<usize> = file.code_indices().collect();
    let tok = |k: usize| &file.toks[code[k]];

    // Tracked names: `let [mut] NAME ... HashMap/HashSet ... ;` and struct
    // fields / statics `NAME : ... HashMap/HashSet ... [,;]`.
    let mut tracked: Vec<String> = Vec::new();
    for k in 0..code.len() {
        let t = tok(k);
        if t.is_ident("let") {
            let mut j = k + 1;
            if j < code.len() && tok(j).is_ident("mut") {
                j += 1;
            }
            if j < code.len() && tok(j).kind == TokKind::Ident {
                let name = tok(j).text.clone();
                let mut hashed = false;
                let mut m = j + 1;
                let mut depth = 0usize;
                while m < code.len() {
                    let mt = tok(m);
                    if mt.is_punct('{') || mt.is_punct('(') {
                        depth += 1;
                    } else if mt.is_punct('}') || mt.is_punct(')') {
                        depth = depth.saturating_sub(1);
                    } else if depth == 0 && mt.is_punct(';') {
                        break;
                    } else if mt.is_ident("HashMap") || mt.is_ident("HashSet") {
                        hashed = true;
                    }
                    m += 1;
                }
                if hashed {
                    tracked.push(name);
                }
            }
        } else if t.kind == TokKind::Ident
            && k + 1 < code.len()
            && tok(k + 1).is_punct(':')
            && code.get(k + 2).is_some_and(|_| !tok(k + 2).is_punct(':'))
        {
            // Field-ish declaration `name: Type,` — scan the type tokens to
            // the closing `,`/`;`/`}` at depth 0 for HashMap/HashSet.
            let mut m = k + 2;
            let mut depth = 0usize;
            let mut hashed = false;
            while m < code.len() {
                let mt = tok(m);
                if mt.is_punct('<') || mt.is_punct('(') {
                    depth += 1;
                } else if mt.is_punct('>') || mt.is_punct(')') {
                    depth = depth.saturating_sub(1);
                } else if depth == 0
                    && (mt.is_punct(',')
                        || mt.is_punct(';')
                        || mt.is_punct('{')
                        || mt.is_punct('}'))
                {
                    break;
                } else if mt.is_ident("HashMap") || mt.is_ident("HashSet") {
                    hashed = true;
                }
                m += 1;
            }
            if hashed {
                tracked.push(t.text.clone());
            }
        }
    }
    if tracked.is_empty() {
        return;
    }

    for k in 0..code.len() {
        let t = tok(k);
        if t.kind != TokKind::Ident || !tracked.contains(&t.text) {
            continue;
        }
        // Only flag the tracked name itself, not a same-named field of some
        // other value: allow `self.NAME` / `NAME`, skip `other.NAME`.
        let prev_dot = k >= 1 && tok(k - 1).is_punct('.');
        if prev_dot && !(k >= 2 && tok(k - 2).is_ident("self")) {
            continue;
        }
        // (a) order-observing method call: NAME . iter ( ...
        if k + 3 < code.len()
            && tok(k + 1).is_punct('.')
            && tok(k + 2).kind == TokKind::Ident
            && HASH_ITER_METHODS.contains(&tok(k + 2).text.as_str())
            && tok(k + 3).is_punct('(')
        {
            push(
                file,
                out,
                DETERMINISM_HASH_ITER,
                t.line,
                format!(
                    "`{}.{}()` iterates a HashMap/HashSet: order is nondeterministic — use \
                     BTreeMap, sort the result, or carry a justified review-allow",
                    t.text,
                    tok(k + 2).text
                ),
            );
        }
        // (b) `for .. in [&mut] [self.]NAME {` — direct iteration.
        let mut b = k;
        while b > 0 {
            let pt = tok(b - 1);
            if pt.is_punct('&') || pt.is_ident("mut") || pt.is_punct('.') || pt.is_ident("self") {
                b -= 1;
            } else {
                break;
            }
        }
        if b > 0 && tok(b - 1).is_ident("in") && k + 1 < code.len() && tok(k + 1).is_punct('{') {
            push(
                file,
                out,
                DETERMINISM_HASH_ITER,
                t.line,
                format!(
                    "`for .. in {}` iterates a HashMap/HashSet: order is nondeterministic — use \
                     BTreeMap, sort the result, or carry a justified review-allow",
                    t.text
                ),
            );
        }
    }
}

/// `panic-freedom` (I4): code in [`PANIC_FREE_CRATES`] must return errors,
/// never panic. Flags `.unwrap()`, `.expect(`, panic-family macros, and
/// indexing `base[...]` whose index is not a single integer literal (those
/// are reviewable fixed offsets). Test modules are excluded.
fn check_panic_freedom(file: &SourceFile, out: &mut Vec<Violation>) {
    let code: Vec<usize> = file.code_indices().collect();
    let tok = |k: usize| &file.toks[code[k]];
    for k in 0..code.len() {
        let t = tok(k);
        // `.unwrap(` / `.expect(` — method position only, so free functions
        // named `expect` and `unwrap_or*` stay legal.
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && k >= 1
            && tok(k - 1).is_punct('.')
            && k + 1 < code.len()
            && tok(k + 1).is_punct('(')
        {
            push(
                file,
                out,
                PANIC_FREEDOM,
                t.line,
                format!(
                    "`.{}()` in {}: untrusted bytes — return an error instead of panicking",
                    t.text, file.crate_name
                ),
            );
        }
        // panic-family macros.
        if t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && k + 1 < code.len()
            && tok(k + 1).is_punct('!')
        {
            push(
                file,
                out,
                PANIC_FREEDOM,
                t.line,
                format!(
                    "`{}!` in {}: corrupt input must fail the operation, not the process",
                    t.text, file.crate_name
                ),
            );
        }
        // Indexing: IDENT `[` ... — skip attribute brackets (`#[...]`),
        // slice patterns, and array types (those never follow an ident/`)`/
        // `]` directly in expression position the way indexing does).
        if t.is_punct('[') && k >= 1 {
            let prev = tok(k - 1);
            let indexish = prev.kind == TokKind::Ident && !is_keyword(&prev.text)
                || prev.is_punct(')')
                || prev.is_punct(']')
                || prev.is_punct('?');
            if !indexish {
                continue;
            }
            // Collect the index tokens to the matching `]`.
            let mut depth = 0usize;
            let mut inner: Vec<usize> = Vec::new();
            for &ii in &code[k..] {
                let it = &file.toks[ii];
                if it.is_punct('[') {
                    depth += 1;
                    if depth == 1 {
                        continue;
                    }
                } else if it.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                inner.push(ii);
            }
            let single_int_literal =
                inner.len() == 1 && file.toks[inner[0]].kind == TokKind::Number;
            if !single_int_literal && !inner.is_empty() {
                push(
                    file,
                    out,
                    PANIC_FREEDOM,
                    t.line,
                    format!(
                        "unchecked slice indexing in {}: use .get()/.get_mut() and return an \
                         error (or justify with an allow marker)",
                        file.crate_name
                    ),
                );
            }
        }
    }
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "match"
            | "return"
            | "in"
            | "let"
            | "mut"
            | "fn"
            | "impl"
            | "for"
            | "while"
            | "loop"
            | "use"
            | "pub"
            | "mod"
            | "struct"
            | "enum"
            | "where"
            | "as"
    )
}

/// `unsafe-hygiene` (I5), per site: `unsafe` (test code included) only in
/// [`UNSAFE_FILES`], and there only directly under a comment block that
/// holds a `// SAFETY:` line stating why the site is sound.
fn check_unsafe_sites(file: &SourceFile, out: &mut Vec<Violation>) {
    let allowed_file = UNSAFE_FILES.contains(&file.rel_path.as_str());
    for t in file.toks.iter().filter(|t| t.is_ident("unsafe")) {
        if !allowed_file {
            push(
                file,
                out,
                UNSAFE_HYGIENE,
                t.line,
                format!(
                    "`unsafe` outside the allow-listed module ({}): the workspace's only \
                     unsafe code is the AES-NI rounds",
                    UNSAFE_FILES.join(", ")
                ),
            );
        } else if !has_safety_comment_above(file, t.line) {
            push(
                file,
                out,
                UNSAFE_HYGIENE,
                t.line,
                "`unsafe` without a `// SAFETY:` comment directly above it".to_string(),
            );
        }
    }
}

/// True if the comment-only lines directly above `line` (no blank line or
/// code between) include one that starts `// SAFETY:`.
fn has_safety_comment_above(file: &SourceFile, line: usize) -> bool {
    let mut above = line;
    while above > 1 {
        above -= 1;
        let on_line: Vec<&Tok> = file.toks.iter().filter(|t| t.line == above).collect();
        if on_line.is_empty() || on_line.iter().any(|t| t.is_code()) {
            return false;
        }
        let safety = on_line.iter().any(|t| {
            t.kind == TokKind::LineComment
                && t.text
                    .trim_start_matches('/')
                    .trim_start()
                    .starts_with("SAFETY:")
        });
        if safety {
            return true;
        }
    }
    false
}

/// `unsafe-hygiene` (I5), per crate: a crate with no `unsafe` anywhere must
/// carry `#![forbid(unsafe_code)]` in its root file. `files` are all sources
/// of one crate; `root_file` is its `lib.rs`/`main.rs`. A crate that does use
/// `unsafe` cannot forbid it; where it may, and how, is the per-site half's
/// business.
pub fn check_unsafe_hygiene(
    crate_name: &str,
    files: &[SourceFile],
    root_file: &SourceFile,
    out: &mut Vec<Violation>,
) {
    if files.iter().any(|f| f.mentions_unsafe()) {
        return;
    }
    // Look for the inner attribute `#![forbid(unsafe_code)]` in the root.
    let toks: Vec<&Tok> = root_file.toks.iter().filter(|t| t.is_code()).collect();
    let has_forbid = toks.windows(7).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
    });
    if !has_forbid && !root_file.allowed(UNSAFE_HYGIENE, 1) {
        out.push(Violation {
            rule: UNSAFE_HYGIENE,
            severity: Severity::Deny,
            file: root_file.rel_path.clone(),
            line: 1,
            message: format!(
                "crate `{crate_name}` has no unsafe code but its root lacks \
                 `#![forbid(unsafe_code)]`"
            ),
        });
    }
}
