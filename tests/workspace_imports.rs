//! End-to-end tests for the multi-file workspace model: per-URI
//! document sessions in `rsc serve`, import-closure equivalence with a
//! cold check of the module-qualified merged program, per-module
//! namespacing (the cross-file collision matrix), and import-cycle
//! diagnostics.

use rsc_core::{check_program_ast, CheckerOptions};
use rsc_incr::{qualified_program, resolve_closure, Json, Merged, Serve, Workspace};

const LIB: &str = "type nat = {v: number | 0 <= v};\n\
export function step(x: number): nat {\n\
    if (x < 0) { return 0; }\n\
    return x + 1;\n\
}\n\
function helper(y: number): number { return y; }\n";

const APP: &str = "import {step} from \"./lib.rsc\";\n\
function use(k: number): {v: number | 0 <= v} {\n\
    return step(k);\n\
}\n";

fn did_open(uri: &str, text: &str) -> String {
    format!(
        r#"{{"jsonrpc":"2.0","method":"textDocument/didOpen","params":{{"textDocument":{{"uri":{},"text":{}}}}}}}"#,
        Json::str(uri),
        Json::str(text)
    )
}

fn did_change(uri: &str, text: &str) -> String {
    format!(
        r#"{{"jsonrpc":"2.0","method":"textDocument/didChange","params":{{"textDocument":{{"uri":{}}},"contentChanges":[{{"text":{}}}]}}}}"#,
        Json::str(uri),
        Json::str(text)
    )
}

fn rsc_of(line: &Json) -> &Json {
    line.get("rsc").expect("rsc counters object")
}

/// The headline PR-5 regression: a two-file editing session (edit a,
/// edit b, edit a again) reuses retained bundles on every step — no
/// cold re-check on document switch.
#[test]
fn two_file_editing_session_stays_warm_on_every_step() {
    let ua = "file:///w/a.rsc";
    let ub = "file:///w/b.rsc";
    let a = "type nat = {v: number | 0 <= v};\n\
             function fa(x: number): nat { if (x < 0) { return 0 - x; } return x; }\n\
             function ga(x: number): nat { if (x < 0) { return 0; } return x + 5; }\n";
    let b = a.replace("fa", "fb").replace("ga", "gb");
    let mut serve = Serve::new(CheckerOptions::default());
    serve.handle(&did_open(ua, a));
    serve.handle(&did_open(ub, &b));

    // Step 1: edit a (only `fa`'s body — `ga`'s bundle must be reused).
    let (resp, _) = serve.handle(&did_change(
        ua,
        &a.replace("return 0 - x;", "return 1 - x;"),
    ));
    let v = Json::parse(&resp).unwrap();
    assert!(
        rsc_of(&v).get("reused").and_then(Json::as_f64).unwrap() > 0.0,
        "step 1 re-checked cold: {resp}"
    );
    // Step 2: edit b.
    let (resp, _) = serve.handle(&did_change(
        ub,
        &b.replace("return 0 - x;", "return 2 - x;"),
    ));
    let v = Json::parse(&resp).unwrap();
    assert!(
        rsc_of(&v).get("reused").and_then(Json::as_f64).unwrap() > 0.0,
        "step 2 re-checked cold: {resp}"
    );
    // Step 3: edit a again.
    let (resp, _) = serve.handle(&did_change(ua, a));
    let v = Json::parse(&resp).unwrap();
    assert!(
        rsc_of(&v).get("reused").and_then(Json::as_f64).unwrap() > 0.0,
        "step 3 re-checked cold: {resp}"
    );
    // And an identical resend hits the whole-program fast path.
    let (resp, _) = serve.handle(&did_change(ua, a));
    let v = Json::parse(&resp).unwrap();
    assert_eq!(
        rsc_of(&v).get("fast_path"),
        Some(&Json::Bool(true)),
        "{resp}"
    );
}

/// A cold check of the module-qualified merged program for an
/// `app.rsc` closure built from the two given texts.
fn cold_qualified(app_text: &str) -> rsc_core::CheckResult {
    let app_text = app_text.to_string();
    let mut lookup = |name: &str| match name {
        "lib.rsc" => Some(LIB.to_string()),
        "app.rsc" => Some(app_text.clone()),
        _ => None,
    };
    let files = resolve_closure("app.rsc", &mut lookup).expect("closure resolves");
    let merged = Merged::build(&files);
    let prog = qualified_program(&merged, &files).expect("closure qualifies");
    check_program_ast(&prog, CheckerOptions::default())
}

fn render(ds: &[rsc_core::Diagnostic]) -> String {
    ds.iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// A workspace check of `app.rsc` + `lib.rsc` is byte-identical to a
/// cold check of the module-qualified merged program — the semantics
/// the workspace is defined to implement.
#[test]
fn import_closure_equals_qualified_merged_program() {
    let mut ws = Workspace::new(CheckerOptions::default());
    ws.update("lib.rsc", LIB.to_string());
    let report = ws.update("app.rsc", APP.to_string()).remove(0);
    assert_eq!(report.merged.files.len(), 2, "closure must include lib");

    // The merged text is still the dependency-first concatenation
    // (qualification renames ASTs, not the region map)…
    let concatenated = format!("{LIB}{APP}");
    assert_eq!(report.merged.text, concatenated);

    // …and the diagnostics/verdict are byte-identical to a cold check
    // of the qualified merged program.
    let cold = cold_qualified(APP);
    assert_eq!(
        render(&report.outcome.result.diagnostics),
        render(&cold.diagnostics)
    );
    assert_eq!(report.outcome.result.ok(), cold.ok());
    assert!(report.outcome.result.ok());

    // Same equivalence on a failing closure.
    let bad_app = APP.replace("return step(k);", "return step(k) - 1;");
    let report = ws.update("app.rsc", bad_app.clone()).remove(0);
    let cold = cold_qualified(&bad_app);
    assert_eq!(
        render(&report.outcome.result.diagnostics),
        render(&cold.diagnostics)
    );
    assert!(!report.outcome.result.ok());
}

// ------------------------------------------------ collision matrix ---

/// Two modules declaring the same non-exported `helper` with
/// *different* semantics: each caller verifies against its own
/// module's helper. (Either direction of accidental capture makes one
/// of the two postconditions unprovable, so passing proves real
/// per-module namespacing.)
#[test]
fn same_named_private_helpers_do_not_collide() {
    let a = "export function inc(x: number): {v: number | x < v} { return helper(x); }\n\
             function helper(y: number): {v: number | y < v} { return y + 1; }\n";
    let b = "import {inc} from \"./a.rsc\";\n\
             function helper(y: number): {v: number | v <= y} { return y - 1; }\n\
             function dec(x: number): {v: number | v <= x} { return helper(x); }\n";
    let mut ws = Workspace::new(CheckerOptions::default());
    ws.update("a.rsc", a.to_string());
    let report = ws.update("b.rsc", b.to_string()).remove(0);
    assert_eq!(report.merged.files.len(), 2);
    assert!(
        report.outcome.result.ok(),
        "{}",
        render(&report.outcome.result.diagnostics)
    );
}

/// Two modules declaring the same class name: each module's field
/// accesses resolve against its own class table entry.
#[test]
fn same_named_classes_do_not_collide() {
    let a = "export class Pair { x : number; constructor(x: number) { this.x = x; } }\n\
             export function one(): number { return 1; }\n";
    let b = "import {one} from \"./a.rsc\";\n\
             class Pair { y : number; constructor(y: number) { this.y = y; } }\n\
             function get(p: Pair): number { return p.y + one(); }\n";
    let mut ws = Workspace::new(CheckerOptions::default());
    ws.update("a.rsc", a.to_string());
    let report = ws.update("b.rsc", b.to_string()).remove(0);
    assert!(
        report.outcome.result.ok(),
        "{}",
        render(&report.outcome.result.diagnostics)
    );
}

/// Referencing another module's name without importing it is a spanned
/// diagnostic at the use site, naming the *source* identifier — never
/// a mangled name, and never silent capture.
#[test]
fn unimported_cross_module_reference_is_rejected_at_the_use_site() {
    let mut ws = Workspace::new(CheckerOptions::default());
    ws.update("lib.rsc", LIB.to_string());
    let bad =
        "import {step} from \"./lib.rsc\";\nfunction go(k: number): number { return helper(k); }\n";
    let report = ws.update("app.rsc", bad.to_string()).remove(0);
    assert!(!report.outcome.result.ok());
    let d = &report.outcome.result.diagnostics[0];
    assert!(
        d.message.contains("cannot find name `helper`"),
        "{}",
        d.message
    );
    assert!(
        d.message.contains("declared in `lib.rsc` but not imported"),
        "{}",
        d.message
    );
    // Blamed at the identifier itself, in app.rsc's own coordinates.
    assert_eq!(&bad[d.span.lo as usize..d.span.hi as usize], "helper");
    assert_eq!(d.span.line, 2);
    // Nothing user-visible carries a module-qualified name.
    assert!(!d.message.contains('$'), "{}", d.message);
}

/// A module that imports a name *and* declares its own of the same
/// name uses its own declaration (import-then-shadow): the local
/// `step` has a stronger postcondition than lib's, and the caller's
/// obligation only follows from the local one.
#[test]
fn own_declaration_shadows_a_same_named_import() {
    let mut ws = Workspace::new(CheckerOptions::default());
    ws.update("lib.rsc", LIB.to_string());
    let app = "import {step} from \"./lib.rsc\";\n\
        function step(x: number): {v: number | 10 <= v} { return 10; }\n\
        function use(k: number): {v: number | 10 <= v} { return step(k); }\n";
    let report = ws.update("app.rsc", app.to_string()).remove(0);
    assert!(
        report.outcome.result.ok(),
        "{}",
        render(&report.outcome.result.diagnostics)
    );
}

/// Module ids are name-keyed, not positional: bringing an unrelated
/// module into the closure re-solves **zero** bundles in the untouched
/// modules. (Positional or content-keyed ids would rename every
/// qualified symbol in the merged program and invalidate every
/// retained fingerprint.) The added module carries plain base-type
/// signatures only — a refined signature would mine new qualifiers,
/// which legitimately changes every bundle's solving context.
#[test]
fn adding_an_unrelated_module_resolves_zero_bundles_in_untouched_modules() {
    let extra = "export function bump(x: number): number { return x + 1; }\n\
                 function helper(q: number): number { return q; }\n";
    let mut ws = Workspace::new(CheckerOptions::default());
    ws.update("lib.rsc", LIB.to_string());
    ws.update("extra.rsc", extra.to_string());
    let before = ws.update("app.rsc", APP.to_string()).remove(0);
    assert!(before.outcome.result.ok());
    let bundles_before = before.outcome.incr.bundles;
    assert!(bundles_before > 0, "{:?}", before.outcome.incr);

    // Add an import of the unrelated module (nothing else changes; the
    // unrefined module contributes no constraint bundles of its own).
    let app2 = format!("import {{bump}} from \"./extra.rsc\";\n{APP}");
    let after = ws.update("app.rsc", app2).remove(0);
    assert!(
        after.outcome.result.ok(),
        "{}",
        render(&after.outcome.result.diagnostics)
    );
    assert_eq!(after.merged.files.len(), 3);
    assert_eq!(
        after.outcome.incr.reused, bundles_before,
        "every pre-existing bundle must be reused: {:?}",
        after.outcome.incr
    );
    assert_eq!(
        after.outcome.incr.solved, 0,
        "untouched modules must re-solve nothing: {:?}",
        after.outcome.incr
    );
}

/// An import cycle is a real diagnostic naming the cycle, over serve.
#[test]
fn import_cycle_diagnostic_over_serve() {
    let ua = "file:///w/a.rsc";
    let ub = "file:///w/b.rsc";
    let a = "import {f} from \"./b.rsc\";\nexport function g(x: number): number { return f(x); }\n";
    let b = "import {g} from \"./a.rsc\";\nexport function f(x: number): number { return g(x); }\n";
    let mut serve = Serve::new(CheckerOptions::default());
    serve.handle(&did_open(ua, a));
    let (resp, _) = serve.handle(&did_open(ub, b));
    // b's check sees the cycle and publishes it as a diagnostic.
    let first = Json::parse(resp.lines().next().unwrap()).unwrap();
    assert_eq!(
        rsc_of(&first).get("verified"),
        Some(&Json::Bool(false)),
        "{resp}"
    );
    let diags = first
        .get("params")
        .and_then(|p| p.get("diagnostics"))
        .cloned();
    match diags {
        Some(Json::Arr(ds)) if !ds.is_empty() => {
            let msg = ds[0].get("message").and_then(Json::as_str).unwrap();
            assert!(msg.contains("import cycle"), "{msg}");
        }
        other => panic!("expected a cycle diagnostic, got {other:?}"),
    }
    // Breaking the cycle recovers both documents.
    let (resp, _) = serve.handle(&did_change(
        ub,
        "export function f(x: number): number { return x; }\n",
    ));
    for line in resp.lines() {
        let v = Json::parse(line).unwrap();
        assert_eq!(
            rsc_of(&v).get("verified"),
            Some(&Json::Bool(true)),
            "{line}"
        );
    }
}

/// A missing export is blamed at the importing name, with the module
/// named in the message.
#[test]
fn missing_export_diagnostic() {
    let mut ws = Workspace::new(CheckerOptions::default());
    ws.update("lib.rsc", LIB.to_string());
    let report = ws
        .update(
            "app.rsc",
            "import {helper} from \"./lib.rsc\";\nvar z = helper(1);\n".to_string(),
        )
        .remove(0);
    assert!(!report.outcome.result.ok());
    let msg = &report.outcome.result.diagnostics[0].message;
    assert!(msg.contains("does not export `helper`"), "{msg}");
    assert!(msg.contains("lib.rsc"), "{msg}");
}

// ------------------------------------------------- importer skipping ---

/// The `lib.rsc` of the skipping table: one of each declaration kind an
/// edit can touch.
const TABLE_LIB: &str = "type nat = {v: number | 0 <= v};\n\
type small = {v: number | v < 100};\n\
qualif Below(v: number, j: number): v < j;\n\
declare LIMIT : {v: number | v = 10};\n\
class Counter {\n\
    n : number;\n\
    constructor(n: number) { this.n = n; }\n\
    get(): number { return this.n; }\n\
}\n\
export function step(x: number): nat {\n\
    if (x < 0) { return 0; }\n\
    return x + 1;\n\
}\n\
export function bump(x) { return x + 3; }\n\
function helper(y: number): number { return y; }\n\
var seed = 1;\n";

/// The importer: one verified function, one failing return, a call of
/// the unannotated export and a lint, so its own-file diagnostics are
/// not vacuous.
const TABLE_APP: &str = "import {step, bump} from \"./lib.rsc\";\n\
function use(k: number): {v: number | 0 <= v} {\n\
    return step(k);\n\
}\n\
function off(k: number): {v: number | 0 < v} {\n\
    return step(k) - 1;\n\
}\n\
function dead(x: number): number {\n\
    var y = 3;\n\
    if (y < 1) { return 0 - 1; }\n\
    return x;\n\
}\n\
var b = bump(1);\n";

const TABLE_UTIL: &str = "export function unit(x: number): number { return x; }\n";

/// The diagnostics and lints of `merged`'s root file, localized and
/// rendered.
fn root_diags(merged: &Merged, result: &rsc_core::CheckResult) -> Vec<String> {
    result
        .diagnostics
        .iter()
        .chain(&result.lints)
        .map(|d| merged.localize(d))
        .filter(|(fi, _)| *fi == merged.root)
        .map(|(_, d)| d.to_string())
        .collect()
}

/// One edit of `lib.rsc` per kind of declaration, each in a fresh
/// workspace holding `util.rsc`, `lib.rsc` and `app.rsc` (which imports
/// `lib`). An edit that leaves `lib`'s import specifiers and export
/// surface as `app` last saw them skips `app`'s re-check; either way
/// `app`'s own-file diagnostics must equal a cold check of its
/// module-qualified closure.
#[test]
fn importer_skipping_by_edit_kind() {
    let rows: Vec<(&str, String, usize)> = vec![
        (
            "private body",
            TABLE_LIB.replace("return y;", "return y + 1;"),
            1,
        ),
        (
            "private signature",
            TABLE_LIB.replace(
                "function helper(y: number): number",
                "function helper(y: nat): number",
            ),
            1,
        ),
        (
            "exported annotated body",
            TABLE_LIB.replace("return x + 1;", "return x + 2;"),
            1,
        ),
        (
            "exported signature",
            TABLE_LIB.replace(
                "export function step(x: number): nat",
                "export function step(x: number): {v: number | 0 <= v && x < v}",
            ),
            0,
        ),
        (
            "exported unannotated body",
            TABLE_LIB.replace("return x + 3;", "return x + 4;"),
            0,
        ),
        ("type alias", TABLE_LIB.replace("v < 100", "v < 200"), 0),
        (
            "class member body",
            TABLE_LIB.replace("return this.n;", "return this.n + 1;"),
            0,
        ),
        ("qualif", TABLE_LIB.replace("v < j", "v <= j"), 0),
        ("declare", TABLE_LIB.replace("v = 10", "v = 11"), 0),
        (
            "top-level statement",
            TABLE_LIB.replace("var seed = 1;", "var seed = 2;"),
            1,
        ),
        ("comment only", format!("// a comment\n{TABLE_LIB}"), 1),
        (
            "added import",
            format!("import {{unit}} from \"./util.rsc\";\n{TABLE_LIB}"),
            0,
        ),
    ];
    for (kind, lib, skipped) in rows {
        assert_ne!(lib, TABLE_LIB, "{kind}: the edit must change the text");
        let mut ws = Workspace::new(CheckerOptions::default());
        ws.update("util.rsc", TABLE_UTIL.to_string());
        ws.update("lib.rsc", TABLE_LIB.to_string());
        let before = ws.update("app.rsc", TABLE_APP.to_string()).remove(0);
        assert!(
            !before.outcome.result.ok() && !before.outcome.result.lints.is_empty(),
            "{kind}: the importer must carry an error and a lint"
        );

        let reports = ws.update("lib.rsc", lib.clone());
        assert_eq!(
            reports[0].outcome.incr.importers_skipped, skipped,
            "{kind}: importers skipped"
        );
        assert_eq!(reports.len(), 2 - skipped, "{kind}: reports");

        let app = ws.last("app.rsc").expect("app was checked");
        let mut lookup = |name: &str| match name {
            "util.rsc" => Some(TABLE_UTIL.to_string()),
            "lib.rsc" => Some(lib.clone()),
            "app.rsc" => Some(TABLE_APP.to_string()),
            _ => None,
        };
        let files = resolve_closure("app.rsc", &mut lookup).expect("closure resolves");
        let merged = Merged::build(&files);
        let prog = qualified_program(&merged, &files).expect("closure qualifies");
        let cold = check_program_ast(&prog, CheckerOptions::default());
        assert_eq!(
            root_diags(&app.merged, &app.outcome.result),
            root_diags(&merged, &cold),
            "{kind}: app's own diagnostics differ from a cold check"
        );
    }
}

// ------------------------------------------------------ dirty units ---

const DIRTY_BASE: &str = "type nat = {v: number | 0 <= v};\n\
function inc(x: nat): nat { return x + 1; }\n\
function twice(x: nat): nat { return inc(inc(x)); }\n\
function lone(x: nat): {v: nat | x <= v} { return x; }\n";

/// The units a single-document workspace reports dirty for `edited`
/// after checking [`DIRTY_BASE`].
fn dirty_after(edited: &str) -> Vec<String> {
    let mut ws = Workspace::new(CheckerOptions::default());
    let first = ws.update("solo.rsc", DIRTY_BASE.to_string()).remove(0);
    assert!(first.outcome.result.ok());
    assert!(first.dirty_own.is_empty(), "{:?}", first.dirty_own);
    let report = ws.update("solo.rsc", edited.to_string()).remove(0);
    assert!(report.outcome.result.ok());
    report.dirty_own
}

#[test]
fn body_edit_dirties_only_the_editee() {
    let dirty = dirty_after(&DIRTY_BASE.replace("return x + 1;", "return x + 2;"));
    assert_eq!(dirty, vec!["fun:inc".to_string()]);
}

/// A signature edit dirties the callers too, whose constraints
/// instantiate it. The new signature's atom is already mined from
/// `lone`, so the qualifier set, and with it every other bundle, stays
/// as it was.
#[test]
fn signature_edit_dirties_callers_but_not_lone() {
    let dirty = dirty_after(&DIRTY_BASE.replace(
        "function inc(x: nat): nat",
        "function inc(x: nat): {v: nat | x <= v}",
    ));
    assert!(dirty.contains(&"fun:inc".to_string()), "{dirty:?}");
    assert!(dirty.contains(&"fun:twice".to_string()), "{dirty:?}");
    assert!(!dirty.contains(&"fun:lone".to_string()), "{dirty:?}");
}

/// A comment shifts every span but changes no check input.
#[test]
fn comment_only_edit_dirties_nothing() {
    let dirty = dirty_after(&format!("// shifted\n\n{DIRTY_BASE}"));
    assert_eq!(dirty, Vec::<String>::new());
}

/// Spans are left out of the export surface structurally, not by
/// rewriting a rendering, so a string literal that spells a span is
/// content like any other.
#[test]
fn span_lookalike_literals_hash_apart_in_the_surface() {
    let surface = |lit: &str| {
        let text = format!("export function f(x) {{ return \"{lit}\"; }}\n");
        let mut lookup = |_: &str| Some(text.clone());
        resolve_closure("f.rsc", &mut lookup).expect("resolves")[0].surface
    };
    assert_ne!(
        surface("Span { lo: 1, hi: 2, line: 3 }"),
        surface("Span { lo: 4, hi: 5, line: 6 }")
    );
}

/// Dropping `export` from a declaration an importer imports changes the
/// export list, so the importer re-checks and reports the missing
/// export, as a cold check of its closure does.
#[test]
fn unexporting_an_imported_alias_rechecks_the_importer() {
    let lib = "export type T = number;\n\
               export function f(x: number): number { return x; }\n";
    let app = "import {T, f} from \"./lib.rsc\";\n\
               function g(k: T): number { return f(k); }\n";
    let mut ws = Workspace::new(CheckerOptions::default());
    ws.update("lib.rsc", lib.to_string());
    assert!(ws.update("app.rsc", app.to_string())[0].outcome.result.ok());
    let reports = ws.update("lib.rsc", lib.replace("export type", "type"));
    assert_eq!(reports[0].outcome.incr.importers_skipped, 0);
    let checked = ws.last("app.rsc").expect("app was checked");
    let msg = render(&checked.outcome.result.diagnostics);
    assert!(msg.contains("does not export `T`"), "{msg}");
}
