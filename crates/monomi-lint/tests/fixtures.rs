//! Positive/negative fixtures for every rule family, driven through
//! [`monomi_lint::lint_source`] / [`monomi_lint::lint_crate`]. Each rule gets
//! at least one fixture that must fire and one that must stay silent,
//! including the lexing traps (strings, comments, raw strings) that a naive
//! text scan would fall for.

use monomi_lint::rules::Violation;
use monomi_lint::{lint_crate, lint_source};

/// The rule ids of the findings for one source, sorted.
fn rules_of(violations: &[Violation]) -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = violations.iter().map(|v| v.rule).collect();
    ids.sort_unstable();
    ids
}

fn fires(crate_name: &str, rel_path: &str, src: &str, rule: &str) -> bool {
    lint_source(crate_name, rel_path, src)
        .iter()
        .any(|v| v.rule == rule)
}

// ---------------------------------------------------------------- I1: trust boundary

#[test]
fn trust_boundary_flags_decrypt_in_server_crate() {
    let src = "pub fn scan(c: &[u8]) { decrypt_block(c); }";
    let vs = lint_source("monomi-engine", "crates/monomi-engine/src/x.rs", src);
    assert_eq!(rules_of(&vs), ["trust-boundary"]);
    assert_eq!(vs[0].line, 1);
}

#[test]
fn trust_boundary_flags_key_material_types() {
    for ident in ["MasterKey", "PaillierKey", "OpeCipher"] {
        let src = format!("fn f(k: &{ident}) {{}}");
        assert!(
            fires(
                "monomi-store",
                "crates/monomi-store/src/x.rs",
                &src,
                "trust-boundary"
            ),
            "{ident} must be flagged in a server crate"
        );
    }
}

#[test]
fn trust_boundary_covers_the_wire_and_server_crates() {
    // monomi-proto and monomi-server sit on the untrusted side of the wire:
    // decryption and key-material types are violations there too.
    let decrypting = "pub fn handle(c: &[u8]) { decrypt_frame(c); }";
    assert!(fires(
        "monomi-proto",
        "crates/monomi-proto/src/lib.rs",
        decrypting,
        "trust-boundary"
    ));
    assert!(fires(
        "monomi-server",
        "crates/monomi-server/src/lib.rs",
        decrypting,
        "trust-boundary"
    ));
    for ident in ["MasterKey", "OpeCipher"] {
        let src = format!("fn f(k: &{ident}) {{}}");
        assert!(
            fires(
                "monomi-server",
                "crates/monomi-server/src/session.rs",
                &src,
                "trust-boundary"
            ),
            "{ident} must be flagged in monomi-server"
        );
    }
    // Ciphertext handling with no key material stays silent.
    let clean = "pub fn frame(payload: &[u8]) -> Vec<u8> { encode(payload) }";
    assert!(lint_source("monomi-proto", "crates/monomi-proto/src/lib.rs", clean).is_empty());
    assert!(lint_source("monomi-server", "crates/monomi-server/src/lib.rs", clean).is_empty());
}

#[test]
fn trust_boundary_covers_the_fault_injection_crate() {
    // monomi-faults sits on the wire: it relays and mangles ciphertext
    // frames, so key material and decryption are violations there too.
    assert!(fires(
        "monomi-faults",
        "crates/monomi-faults/src/lib.rs",
        "pub fn peek(frame: &[u8]) { decrypt_frame(frame); }",
        "trust-boundary"
    ));
    assert!(fires(
        "monomi-faults",
        "crates/monomi-faults/src/lib.rs",
        "fn f(k: &MasterKey) {}",
        "trust-boundary"
    ));
    // Relaying opaque frame bytes stays silent.
    let clean = "pub fn forward(frame: &[u8]) -> usize { frame.len() }";
    assert!(lint_source("monomi-faults", "crates/monomi-faults/src/lib.rs", clean).is_empty());
}

#[test]
fn trust_boundary_covers_the_observability_crate() {
    // monomi-obs is linked by the server: spans and metrics may carry only
    // operator labels, counters, and durations — never key material or
    // decryption capability.
    assert!(fires(
        "monomi-obs",
        "crates/monomi-obs/src/trace.rs",
        "pub fn annotate(span: &mut Span, k: &MasterKey) { span.label = decrypt_label(k); }",
        "trust-boundary"
    ));
    assert!(fires(
        "monomi-obs",
        "crates/monomi-obs/src/metrics.rs",
        "fn f(k: &PaillierKey) {}",
        "trust-boundary"
    ));
    // Labels, counts, and durations stay silent.
    let clean = "pub fn record(label: &str, seconds: f64, rows: u64) -> Span { \
                 Span::leaf(label, seconds, rows) }";
    assert!(lint_source("monomi-obs", "crates/monomi-obs/src/trace.rs", clean).is_empty());
}

#[test]
fn trust_boundary_is_silent_in_client_crates() {
    let src = "pub fn open(k: &MasterKey, c: &[u8]) -> Vec<u8> { decrypt_block(k, c) }";
    assert!(lint_source("monomi-crypto", "crates/monomi-crypto/src/x.rs", src).is_empty());
    assert!(lint_source("monomi-core", "crates/monomi-core/src/x.rs", src).is_empty());
}

#[test]
fn trust_boundary_ignores_strings_and_comments() {
    let src = r#"
// A comment may say decrypt or MasterKey freely.
/* so may a block comment: decrypt_all(MasterKey) */
fn f() -> &'static str { "the server never calls decrypt(MasterKey)" }
"#;
    assert!(lint_source("monomi-engine", "crates/monomi-engine/src/x.rs", src).is_empty());
}

#[test]
fn trust_boundary_ignores_raw_strings_with_tricky_quotes() {
    let src = r###"fn f() -> &'static str { r#"say "decrypt" twice: decrypt"# }"###;
    assert!(lint_source("monomi-sql", "crates/monomi-sql/src/x.rs", src).is_empty());
}

// ---------------------------------------------------------------- I2: Montgomery domain

#[test]
fn montgomery_flags_mont_named_value_in_plain_call() {
    let src = "fn f() { let r = mod_pow(x_mont, e, m); }";
    assert!(fires(
        "monomi-math",
        "crates/monomi-math/src/x.rs",
        src,
        "montgomery-domain"
    ));
}

#[test]
fn montgomery_tracks_let_bindings_from_producing_calls() {
    let src = "fn f() { let a = ctx.to_mont(&x); let r = ctx.mul_mod(a, b); }";
    assert!(fires(
        "monomi-crypto",
        "crates/monomi-crypto/src/x.rs",
        src,
        "montgomery-domain"
    ));
}

#[test]
fn montgomery_is_silent_for_plain_values_and_mont_entry_points() {
    let src = "fn f() { let a = ctx.to_mont(&x); let r = ctx.mont_mul(&a, &b); \
               let p = mod_pow(base, e, m); }";
    assert!(lint_source("monomi-math", "crates/monomi-math/src/x.rs", src).is_empty());
}

#[test]
fn montgomery_does_not_apply_outside_math_and_crypto() {
    let src = "fn f() { mod_pow(x_mont, e, m); }";
    assert!(lint_source("monomi-engine", "crates/monomi-engine/src/x.rs", src).is_empty());
}

// ---------------------------------------------------------------- I3: clocks/env in exec paths

#[test]
fn clock_env_flags_instant_systemtime_env_parallelism_in_ops() {
    for (snippet, what) in [
        ("let t = Instant::now();", "Instant::now"),
        ("let t = std::time::SystemTime::now();", "SystemTime"),
        ("let v = std::env::var(\"X\");", "env::var"),
        (
            "let n = std::thread::available_parallelism();",
            "available_parallelism",
        ),
    ] {
        let src = format!("fn f() {{ {snippet} }}");
        assert!(
            fires(
                "monomi-engine",
                "crates/monomi-engine/src/ops.rs",
                &src,
                "determinism-clock-env"
            ),
            "{what} must be flagged in ops.rs"
        );
    }
}

#[test]
fn clock_env_only_applies_to_exec_path_files() {
    let src = "fn f() { let t = Instant::now(); }";
    assert!(lint_source("monomi-engine", "crates/monomi-engine/src/database.rs", src).is_empty());
    assert!(lint_source("monomi-store", "crates/monomi-store/src/ops.rs", src).is_empty());
}

#[test]
fn clock_env_does_not_flag_env_free_idents() {
    // `env` and `Instant` only fire as path heads of the banned calls.
    let src = "fn f(env: u32) -> u32 { let dur = Instant::from(env); env }";
    assert!(lint_source("monomi-engine", "crates/monomi-engine/src/exec.rs", src).is_empty());
}

// ---------------------------------------------------------------- I3: hash-iteration order

#[test]
fn hash_iter_flags_for_loops_over_hashmaps() {
    let src = "fn f() { let mut m: HashMap<String, u32> = HashMap::new(); \
               for (k, v) in &m { emit(k, v); } }";
    assert!(fires(
        "monomi-engine",
        "crates/monomi-engine/src/x.rs",
        src,
        "determinism-hash-iter"
    ));
}

#[test]
fn hash_iter_flags_order_observing_methods_on_tracked_fields() {
    let src = "struct S { index: HashMap<u64, u32> }\n\
               impl S { fn dump(&self) { for v in self.index.values() { emit(v); } } }";
    assert!(fires(
        "monomi-engine",
        "crates/monomi-engine/src/x.rs",
        src,
        "determinism-hash-iter"
    ));
}

#[test]
fn hash_iter_covers_index_probe_planning_shapes() {
    // Probe planning (exec.rs) folds per-column probes into a plan; doing so
    // by iterating a HashMap would make probe order — and therefore posting
    // intersection order and stats — nondeterministic.
    let src = "fn plan(by_col: HashMap<String, Probe>) { \
               for (col, p) in &by_col { push_probe(col, p); } }";
    assert!(fires(
        "monomi-engine",
        "crates/monomi-engine/src/exec.rs",
        src,
        "determinism-hash-iter"
    ));
    // The shipped shape — a Vec of probes in predicate order — stays silent.
    let clean = "fn plan(probes: Vec<Probe>) { for p in &probes { push_probe(p); } }";
    assert!(lint_source("monomi-engine", "crates/monomi-engine/src/exec.rs", clean).is_empty());
}

#[test]
fn hash_iter_is_silent_for_lookups_and_btreemaps() {
    let src = "fn f() { let mut m: HashMap<String, u32> = HashMap::new(); \
               m.insert(k, 1); let x = m.get(&k); let n = m.len(); \
               let mut b: BTreeMap<String, u32> = BTreeMap::new(); \
               for (k, v) in &b { emit(k, v); } }";
    assert!(lint_source("monomi-engine", "crates/monomi-engine/src/x.rs", src).is_empty());
}

#[test]
fn hash_iter_only_applies_to_monomi_engine() {
    let src = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); for x in m.keys() { e(x); } }";
    assert!(lint_source("monomi-sql", "crates/monomi-sql/src/x.rs", src).is_empty());
}

// ---------------------------------------------------------------- I4: panic freedom

#[test]
fn panic_freedom_flags_unwrap_expect_and_macros() {
    for snippet in [
        "let x = r.next().unwrap();",
        "let x = r.next().expect(\"has one\");",
        "panic!(\"bad tag\");",
        "unreachable!();",
        "todo!();",
    ] {
        let src = format!("fn f() {{ {snippet} }}");
        assert!(
            fires(
                "monomi-store",
                "crates/monomi-store/src/x.rs",
                &src,
                "panic-freedom"
            ),
            "`{snippet}` must be flagged in monomi-store"
        );
    }
}

#[test]
fn panic_freedom_flags_unchecked_indexing_but_not_fixed_offsets() {
    let dynamic = "fn f(b: &[u8], i: usize) -> u8 { b[i / 8] }";
    assert!(fires(
        "monomi-store",
        "crates/monomi-store/src/x.rs",
        dynamic,
        "panic-freedom"
    ));
    let question = "fn f(r: &mut R) -> Result<u8, E> { Ok(r.take(1)?[n]) }";
    assert!(fires(
        "monomi-store",
        "crates/monomi-store/src/x.rs",
        question,
        "panic-freedom"
    ));
    // A single integer literal index is a reviewable fixed offset.
    let fixed = "fn f(b: [u8; 4]) -> u8 { b[0] }";
    assert!(lint_source("monomi-store", "crates/monomi-store/src/x.rs", fixed).is_empty());
}

#[test]
fn panic_freedom_covers_the_fault_injection_crate() {
    // monomi-faults deliberately mangles frames; a mangled frame must fail
    // the transfer, never panic the harness.
    for snippet in [
        "let b = frame.get(i).unwrap();",
        "panic!(\"torn frame\");",
        "let b = frame[i % frame.len()];",
    ] {
        let src = format!("fn f(frame: &[u8], i: usize) {{ {snippet} }}");
        assert!(
            fires(
                "monomi-faults",
                "crates/monomi-faults/src/lib.rs",
                &src,
                "panic-freedom"
            ),
            "`{snippet}` must be flagged in monomi-faults"
        );
    }
    // The fallible idioms the crate actually uses stay silent.
    let clean = "fn f(frame: &[u8], i: usize) -> u8 { frame.get(i).copied().unwrap_or(0) }";
    assert!(lint_source("monomi-faults", "crates/monomi-faults/src/lib.rs", clean).is_empty());
}

#[test]
fn panic_freedom_covers_index_decode_shapes() {
    // The index codec (monomi-store/src/index.rs) parses untrusted bytes: a
    // corrupted `.idx` must surface as a typed error, so the decode shapes
    // that could panic on hostile lengths are violations there.
    for snippet in [
        "let key = keys[mid];",
        "let ids = &postings[start..end];",
        "let n = u32::from_le_bytes(b[o..o + 4].try_into().unwrap());",
    ] {
        let src = format!("fn f(keys: &[u32], postings: &[u32], b: &[u8], mid: usize, start: usize, end: usize, o: usize) {{ {snippet} }}");
        assert!(
            fires(
                "monomi-store",
                "crates/monomi-store/src/index.rs",
                &src,
                "panic-freedom"
            ),
            "`{snippet}` must be flagged in the index codec"
        );
    }
    // The checked idioms the codec actually uses stay silent.
    let clean = "fn f(keys: &[u32], mid: usize) -> Result<u32, E> { \
                 keys.get(mid).copied().ok_or_else(E::truncated) }";
    assert!(lint_source("monomi-store", "crates/monomi-store/src/index.rs", clean).is_empty());
}

#[test]
fn panic_freedom_is_silent_for_fallible_idioms_and_other_crates() {
    let src = "fn f(b: &[u8], i: usize) -> u8 { b.get(i).copied().unwrap_or(0) }";
    assert!(lint_source("monomi-store", "crates/monomi-store/src/x.rs", src).is_empty());
    let src = "fn f() { x.unwrap(); }";
    assert!(lint_source("monomi-engine", "crates/monomi-engine/src/x.rs", src).is_empty());
}

#[test]
fn panic_freedom_excludes_test_modules() {
    let src = "pub fn live(b: &[u8]) -> Option<u8> { b.first().copied() }\n\
               #[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { super::live(&[1]).unwrap(); }\n}";
    assert!(lint_source("monomi-store", "crates/monomi-store/src/x.rs", src).is_empty());
}

#[test]
fn panic_freedom_ignores_unwrap_inside_strings_and_comments() {
    let src = "fn f() -> &'static str { /* x.unwrap() */ \"call .unwrap() never\" }";
    assert!(lint_source("monomi-store", "crates/monomi-store/src/x.rs", src).is_empty());
}

// ---------------------------------------------------------------- allow markers

#[test]
fn justified_allow_suppresses_the_target_line_only() {
    let src = "fn f() {\n\
               // monomi-lint: allow(panic-freedom): length checked by caller\n\
               let x = r.next().unwrap();\n\
               let y = r.next().unwrap();\n}";
    let vs = lint_source("monomi-store", "crates/monomi-store/src/x.rs", src);
    assert_eq!(rules_of(&vs), ["panic-freedom"]);
    assert_eq!(vs[0].line, 4, "only the unsuppressed line remains");
}

#[test]
fn trailing_allow_suppresses_its_own_line() {
    let src = "fn f() { let x = r.next().unwrap(); } \
               // monomi-lint: allow(panic-freedom): fixture";
    assert!(lint_source("monomi-store", "crates/monomi-store/src/x.rs", src).is_empty());
}

#[test]
fn allow_without_justification_is_itself_a_violation_and_suppresses_nothing() {
    let src = "fn f() {\n\
               // monomi-lint: allow(panic-freedom)\n\
               let x = r.next().unwrap();\n}";
    let vs = lint_source("monomi-store", "crates/monomi-store/src/x.rs", src);
    assert_eq!(rules_of(&vs), ["allow-justification", "panic-freedom"]);
}

#[test]
fn allow_naming_unknown_rule_is_flagged() {
    let src = "// monomi-lint: allow(no-such-rule): because\nfn f() {}";
    let vs = lint_source("monomi-core", "crates/monomi-core/src/x.rs", src);
    assert_eq!(rules_of(&vs), ["allow-justification"]);
}

#[test]
fn prose_quoting_the_marker_grammar_is_not_a_marker() {
    // Docs that mention `monomi-lint: allow(...)` mid-sentence (backticked or
    // prefixed) must not parse as markers; only a comment *starting* with the
    // marker does.
    let src = "//! Suppress with `// monomi-lint: allow(<rule>): <why>` per site.\nfn f() {}";
    assert!(lint_source("monomi-core", "crates/monomi-core/src/x.rs", src).is_empty());
}

// ---------------------------------------------------------------- I5: unsafe hygiene

#[test]
fn unsafe_hygiene_requires_forbid_in_unsafe_free_crates() {
    let vs = lint_crate(
        "monomi-core",
        &[("crates/monomi-core/src/lib.rs", "pub fn f() {}")],
    );
    assert_eq!(rules_of(&vs), ["unsafe-hygiene"]);
}

#[test]
fn unsafe_hygiene_accepts_forbid_attribute() {
    let vs = lint_crate(
        "monomi-core",
        &[(
            "crates/monomi-core/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}",
        )],
    );
    assert!(vs.is_empty());
}

#[test]
fn unsafe_hygiene_skips_crates_that_use_unsafe() {
    // A crate that genuinely contains unsafe code cannot forbid it, so the
    // crate-level half stays silent about the root. The `unsafe` itself is
    // outside the allow-listed module, so the per-site half flags it.
    let vs = lint_crate(
        "monomi-core",
        &[
            ("crates/monomi-core/src/lib.rs", "mod inner;\npub fn f() {}"),
            (
                "crates/monomi-core/src/inner.rs",
                "pub fn g(p: *const u8) -> u8 { unsafe { *p } }",
            ),
        ],
    );
    assert_eq!(rules_of(&vs), ["unsafe-hygiene"]);
    assert_eq!(vs[0].file, "crates/monomi-core/src/inner.rs");
    assert!(vs[0].message.contains("outside the allow-listed module"));
}

const NI: &str = "crates/monomi-crypto/src/aes/ni.rs";

#[test]
fn unsafe_hygiene_denies_unsafe_outside_the_allowed_module() {
    // Same crate, next file over, test code, a justification that is not a
    // `SAFETY:` marker: all denied.
    for (path, src) in [
        (
            "crates/monomi-crypto/src/aes.rs",
            "// SAFETY: checked\nfn f() { unsafe { g() } }",
        ),
        (
            "crates/monomi-store/src/lib.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { unsafe { g() } }\n}",
        ),
        ("crates/monomi-math/src/x.rs", "unsafe fn f() {}"),
    ] {
        let crate_name = path.split('/').nth(1).unwrap();
        let vs = lint_source(crate_name, path, src);
        assert_eq!(rules_of(&vs), ["unsafe-hygiene"], "{path}");
    }
    // The word in comments, strings and lint names is not the keyword.
    let src = "#![allow(unsafe_code)]\n// unsafe\nfn f() -> &'static str { \"unsafe\" }";
    assert!(lint_source("monomi-core", "crates/monomi-core/src/x.rs", src).is_empty());
}

#[test]
fn unsafe_hygiene_requires_a_safety_comment_in_the_allowed_module() {
    let bare = "fn f() -> u8 {\n    unsafe { g() }\n}";
    let vs = lint_source("monomi-crypto", NI, bare);
    assert_eq!(rules_of(&vs), ["unsafe-hygiene"]);
    assert_eq!(vs[0].line, 2);
    assert!(vs[0].message.contains("SAFETY"));
    // Directly above, possibly under other comment lines: accepted.
    for src in [
        "fn f() -> u8 {\n    // SAFETY: the feature was detected.\n    unsafe { g() }\n}",
        "fn f() -> u8 {\n    // SAFETY: detected.\n    // More words.\n    let x = unsafe { g() };\n    x\n}",
    ] {
        assert!(lint_source("monomi-crypto", NI, src).is_empty(), "{src}");
    }
    // Separated by code or a blank line, or not a `SAFETY:` comment: flagged.
    for src in [
        "// SAFETY: detected.\nlet a = 1;\nlet b = unsafe { g() };",
        "// SAFETY: detected.\n\nlet b = unsafe { g() };",
        "// Safe because detected.\nlet b = unsafe { g() };",
    ] {
        let vs = lint_source("monomi-crypto", NI, src);
        assert_eq!(rules_of(&vs), ["unsafe-hygiene"], "{src}");
    }
}

// ---------------------------------------------------------------- cross-cutting

#[test]
fn multiple_rules_fire_independently_with_correct_lines() {
    let src = "\
fn f(k: &PaillierKey) {
    let x = r.next().unwrap();
}";
    let vs = lint_source("monomi-store", "crates/monomi-store/src/x.rs", src);
    assert_eq!(rules_of(&vs), ["panic-freedom", "trust-boundary"]);
    let by_rule = |id: &str| vs.iter().find(|v| v.rule == id).map(|v| v.line);
    assert_eq!(by_rule("trust-boundary"), Some(1));
    assert_eq!(by_rule("panic-freedom"), Some(2));
}
