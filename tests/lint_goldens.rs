//! One fixture per dataflow lint code: each program trips exactly the
//! lint it names, with a non-dummy source range, and the full compact
//! rendering of the lint stream is pinned against a golden snapshot in
//! `tests/golden/lint-<code>.diag`.
//!
//! The suite also pins the lint layer's two contracts: lints are
//! warnings that never affect the verdict, and disabling the lint pass
//! (`lints: false`) changes no error-diagnostic byte.
//!
//! Lint output on generated code is pinned too: every warning the
//! pass raises on a generated 3,000-LOC workspace, one line each, in
//! `tests/golden/lints-generated.txt`; and the batch CLI prints each of
//! them once, under its own file, although most files are in several
//! import closures.
//!
//! Regenerate the fixtures with `UPDATE_GOLDEN=1 cargo test -q
//! --test lint_goldens` after an intentional lint-message change.

use rsc_core::{check_program, CheckerOptions, Severity};
use rsc_syntax::LineIndex;

/// (code, golden slug, program, expect_errors). Every lint code the
/// dataflow pass can emit is covered. `expect_errors` marks fixtures
/// the refinement checker also rejects (a provable constant
/// out-of-bounds read is both an R0008 error and an L0004 lint).
fn cases() -> Vec<(&'static str, &'static str, &'static str, bool)> {
    vec![
        (
            "L0001",
            "l0001",
            "function f(x: number): number {\n    var y = 3;\n    \
             if (y < 1) { return 0 - 1; }\n    return x;\n}\n",
            false,
        ),
        (
            "L0002",
            "l0002",
            "function g(x: number): number {\n    var y = 4;\n    \
             if (0 <= y) { return 1; }\n    return 0;\n}\n",
            false,
        ),
        (
            "L0003",
            "l0003",
            "function h(): number {\n    var n: {v: number | 0 <= v} = 5;\n    \
             return n;\n}\n",
            false,
        ),
        (
            "L0004",
            "l0004",
            "function k(): number {\n    var a = [1, 2, 3];\n    return a[5];\n}\n",
            true,
        ),
    ]
}

#[test]
fn lint_fixtures() {
    let golden_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden");
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    for (code, slug, src, expect_errors) in cases() {
        let r = check_program(src, CheckerOptions::default());
        assert_eq!(
            !r.ok(),
            expect_errors,
            "{slug}: unexpected verdict (errors: {:?})",
            r.diagnostics
        );
        assert!(
            r.lints.iter().any(|l| l.code == Some(code)),
            "{slug}: no {code} lint — got:\n{}",
            r.lints
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        for l in &r.lints {
            assert_eq!(
                l.severity,
                Severity::Warning,
                "{slug}: lint is not a warning"
            );
            assert!(
                l.span.hi > l.span.lo && l.span.line > 0,
                "{slug}: lint has a dummy range: {l}"
            );
        }
        let mut rendered: String = r
            .lints
            .iter()
            .map(|l| l.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        rendered.push('\n');
        let golden_path = golden_dir.join(format!("lint-{slug}.diag"));
        if update {
            std::fs::write(&golden_path, &rendered).expect("write golden fixture");
            continue;
        }
        let expected = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {} ({e}); run with UPDATE_GOLDEN=1 to create it",
                golden_path.display()
            )
        });
        assert_eq!(
            rendered, expected,
            "{slug}: lints drifted from tests/golden/lint-{slug}.diag"
        );
    }
}

/// Disabling the lint pass empties `lints` and changes no error byte;
/// disabling the absint pre-pass keeps every lint (the lint layer does
/// not depend on the discharge tier).
#[test]
fn lints_are_severable_from_errors() {
    for (_, slug, src, _) in cases() {
        let on = check_program(src, CheckerOptions::default());
        let off = check_program(
            src,
            CheckerOptions {
                lints: false,
                ..CheckerOptions::default()
            },
        );
        assert!(off.lints.is_empty(), "{slug}: lints survived lints: false");
        let render = |r: &rsc_core::CheckResult| {
            r.diagnostics
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            render(&on),
            render(&off),
            "{slug}: disabling lints changed the error stream"
        );
        let no_absint = check_program(
            src,
            CheckerOptions {
                absint: false,
                ..CheckerOptions::default()
            },
        );
        let lint_line = |r: &rsc_core::CheckResult| {
            r.lints
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            lint_line(&on),
            lint_line(&no_absint),
            "{slug}: --no-absint changed the lint stream"
        );
    }
}

/// Writes the workspace of `rsc fuzz --emit-workspace DIR --seed 7
/// --min-loc 3000` to a fresh temporary directory named after `tag`.
fn emit_seed7_workspace(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rsc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let depth = rsc_gen::FuzzConfig::default().workspace_depth;
    rsc_gen::emit_workspace(&dir, 7, 3000, depth, 12).expect("emit the workspace");
    dir
}

fn generated_golden() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("lints-generated.txt")
}

/// The lint stream on generated code: the workspace of `rsc fuzz
/// --emit-workspace DIR --seed 7 --min-loc 3000`, each file parsed,
/// SSA-translated and linted on its own, one `file:line:col code
/// message` line per warning, in file-name order.
#[test]
fn lints_on_generated_workspace() {
    let dir = emit_seed7_workspace("lint-golden");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("read the workspace")
        .map(|e| {
            e.expect("workspace entry")
                .file_name()
                .into_string()
                .unwrap()
        })
        .collect();
    names.sort();
    let mut rendered = String::new();
    for name in &names {
        let src = std::fs::read_to_string(dir.join(name)).expect("read a workspace file");
        let prog =
            rsc_syntax::parse_program(&src).unwrap_or_else(|e| panic!("{name}: parse error {e:?}"));
        let ir = rsc_ssa::transform_program(&prog);
        let index = LineIndex::new(&src);
        for l in rsc_absint::lint_program(&ir) {
            let at = index.line_col(&src, l.span.lo);
            rendered.push_str(&format!(
                "{name}:{}:{} {} {}\n",
                at.line, at.col, l.code, l.message
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let golden_path = generated_golden();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden_path, &rendered).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            golden_path.display()
        )
    });
    assert_eq!(
        rendered, expected,
        "lints drifted from tests/golden/lints-generated.txt"
    );
}

/// The batch CLI prints each lint once. The lint pass runs over a root's
/// whole import closure, so on the workspace above, where most files
/// import others, an imported file's warnings come back under every
/// importer. `rsc DIR` and `rsc check --recursive DIR` must each print
/// every site of `tests/golden/lints-generated.txt` exactly once, right
/// after the verdict line of the file it sits in.
#[test]
fn batch_cli_prints_each_lint_once() {
    let dir = emit_seed7_workspace("lint-once");
    let prefix = format!("{}/", dir.display());
    let mut golden: Vec<String> = std::fs::read_to_string(generated_golden())
        .expect("read the golden")
        .lines()
        .map(str::to_string)
        .collect();
    golden.sort();
    for args in [
        &["--jobs", "1"][..],
        &["check", "--recursive", "--jobs", "2"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_rsc"))
            .args(args)
            .arg(&dir)
            .output()
            .expect("run rsc");
        assert!(out.status.success(), "{args:?}: {out:?}");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        let lines: Vec<&str> = stdout.lines().collect();
        let mut root = "";
        let mut sites = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            if let Some((file, _)) = line.split_once(": SAFE (") {
                root = file.strip_prefix(&prefix).unwrap_or(file);
            }
            let Some(rest) = line.strip_prefix("warning[") else {
                continue;
            };
            let (code, message) = rest.split_once("]: ").expect("warning header");
            let at = lines[i + 1]
                .trim_start()
                .strip_prefix("--> ")
                .expect("location");
            let at = at.strip_prefix(&prefix).expect("a workspace file");
            let (file, pos) = at.split_once(':').expect("file:line:col");
            let (line_col, _) = pos.split_once('-').expect("a range");
            assert_eq!(file, root, "{args:?}: {file}'s lint printed under {root}");
            sites.push(format!("{file}:{line_col} {code} {message}"));
        }
        sites.sort();
        assert_eq!(sites, golden, "{args:?}: lint sites printed");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `rsc --watch` prints each lint once per round of checks, as the batch
/// modes do. `app.rsc` imports `lib.rsc`, whose one L0001 comes back in
/// `app.rsc`'s closure: the warning is printed under `lib.rsc` only. The
/// closing timing line counts one SSA run per check.
#[test]
fn watch_prints_each_lint_once() {
    let dir = std::env::temp_dir().join(format!("rsc-watch-lints-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the directory");
    let lib = "export function f(x: number): number {\n\
               \x20   var y = 3;\n\
               \x20   if (y < 1) { return 0 - 1; }\n\
               \x20   return x;\n\
               }\n";
    let app = "import {f} from \"./lib.rsc\";\n\
               function g(k: number): number { return f(k); }\n";
    std::fs::write(dir.join("lib.rsc"), lib).expect("write lib.rsc");
    std::fs::write(dir.join("app.rsc"), app).expect("write app.rsc");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_rsc"))
        .args(["--watch", "lib.rsc", "app.rsc"])
        .current_dir(&dir)
        .env("RSC_WATCH_MAX_CHECKS", "2")
        .output()
        .expect("run rsc --watch");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert_eq!(stdout.matches("warning[L0001]").count(), 1, "{stdout}");
    let warning = stdout.find("warning[L0001]").expect("the warning");
    let app_line = stdout.find("[watch] app.rsc: SAFE").expect("app's verdict");
    assert!(warning < app_line, "printed under app.rsc:\n{stdout}");
    let ssa = stdout
        .lines()
        .find_map(|l| l.strip_prefix("[watch] timing: "))
        .and_then(|t| t.split(", ").find(|p| p.starts_with("ssa ")))
        .expect("an ssa phase in the timing line");
    assert!(ssa.ends_with("\u{d7}2"), "{ssa}");
}
