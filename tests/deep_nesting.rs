//! Crash-freedom under deep nesting. The parser bounds tree depth at
//! [`MAX_DEPTH`] (deeper input is one parse error; see
//! `crates/syntax/tests/parser_tests.rs`), so every pass after it only
//! ever sees trees that deep. Each shape here is checked at the deepest
//! nesting the parser accepts, and must verify.

use rsc_core::{check_program, CheckerOptions};
use rsc_syntax::parse_program;
use rsc_syntax::parser::MAX_DEPTH;

/// The shapes that once overflowed a thread's stack in the parser, SSA
/// or the checker. Nested array literals are left out: the checker's
/// invariant array subtyping makes their constraint count grow as `2^n`.
const SHAPES: [&str; 5] = [
    "parentheses",
    "sum chain",
    "else-if chain",
    "blocks",
    "negations",
];

/// A verifying program with `shape` nested `n` levels deep.
fn program(shape: &str, n: usize) -> String {
    match shape {
        "parentheses" => format!(
            "function f(): number {{ return {}1{}; }}",
            "(".repeat(n),
            ")".repeat(n)
        ),
        "sum chain" => format!("function f(): number {{ return 1{}; }}", "+1".repeat(n)),
        "else-if chain" => format!(
            "function f(x: number): number {{ if (x == 0) {{ return 0; }}{} return 2; }}",
            " else if (x == 1) { return 1; }".repeat(n)
        ),
        "blocks" => format!(
            "function f(): number {{ {}var x = 1;{} return 0; }}",
            "{".repeat(n),
            "}".repeat(n)
        ),
        "negations" => format!(
            "function f(x: boolean): boolean {{ return {}x; }}",
            "!".repeat(2 * (n / 2))
        ),
        _ => unreachable!("unknown shape {shape}"),
    }
}

/// The largest `n` whose `program(shape, n)` still parses.
fn deepest(shape: &str) -> usize {
    let parses = |n| parse_program(&program(shape, n)).is_ok();
    let (mut lo, mut hi) = (1, 4 * MAX_DEPTH);
    assert!(parses(lo) && !parses(hi), "{shape}");
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if parses(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Each shape at the bound checks. It runs at one worker, on a thread
/// with a large stack: a debug build's frames are many times a release
/// build's, and the bound is chosen for a release build at `--jobs 1`
/// and `--jobs 4`.
#[test]
fn each_shape_checks_at_the_bound() {
    let run = || {
        for shape in SHAPES {
            let n = deepest(shape);
            assert!(n >= MAX_DEPTH / 3, "{shape}: only {n} levels parse");
            let opts = CheckerOptions {
                jobs: 1,
                ..CheckerOptions::default()
            };
            let r = check_program(&program(shape, n), opts);
            assert!(r.ok(), "{shape} at {n} levels: {:?}", r.diagnostics);
        }
    };
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(run)
        .expect("spawn")
        .join()
        .expect("no panic");
}

/// Nested empty array literals check: the inner literal's element type
/// is an inference placeholder on both sides of the outer literal's
/// element subtyping, and binding the placeholder to itself recursed
/// until the stack overflowed (`var x = [[]];` aborted the checker).
#[test]
fn nested_empty_array_literals_check() {
    for n in 2..=6 {
        let src = format!("var x = {}{};", "[".repeat(n), "]".repeat(n));
        let r = check_program(&src, CheckerOptions::default());
        assert!(r.ok(), "{src}: {:?}", r.diagnostics);
    }
}
