//! SSA Consistency (Theorem 1): FRSC and its IRSC translation agree.
//!
//! Hand-written programs cover the paper's examples; a property test
//! generates random imperative integer programs and checks both
//! interpreters produce identical outcomes.

use proptest::prelude::*;
use rsc_interp::{run_frsc, run_irsc, RuntimeError, Value};

const FUEL: u64 = 2_000_000;

fn both(src: &str) -> (Result<Value, RuntimeError>, Result<Value, RuntimeError>) {
    let prog = rsc_syntax::parse_program(src).expect("parse");
    let ir = rsc_ssa::transform_program(&prog);
    (run_frsc(&prog, FUEL), run_irsc(&ir, FUEL))
}

fn assert_consistent(src: &str) -> Result<Value, RuntimeError> {
    let (a, b) = both(src);
    assert_eq!(a, b, "FRSC and IRSC disagree on:\n{src}");
    a
}

#[test]
fn reduce_min_index() {
    let v = assert_consistent(
        r#"
        function reduce<A, B>(a: A[], f: (acc: B, x: A, i: idx<a>) => B, x: B): B {
            var res = x, i;
            for (i = 0; i < a.length; i++) {
                res = f(res, a[i], i);
            }
            return res;
        }
        function minIndex(a: number[]): number {
            if (a.length <= 0) { return -1; }
            function step(min: number, cur: number, i: number): number {
                return cur < a[min] ? i : min;
            }
            return reduce(a, step, 0);
        }
        return minIndex([30, 10, 20, 5, 40]);
    "#,
    )
    .unwrap();
    assert_eq!(v, Value::Num(3));
}

#[test]
fn field_class_get_set() {
    let v = assert_consistent(
        r#"
        class Field {
            immutable w : number;
            immutable h : number;
            dens : number[];
            constructor(w: number, h: number, d: number[]) {
                this.h = h; this.w = w; this.dens = d;
            }
            setDensity(x: number, y: number, d: number) {
                var rowS = this.w + 2;
                this.dens[x + 1 + (y + 1) * rowS] = d;
            }
            @ReadOnly getDensity(x: number, y: number): number {
                var rowS = this.w + 2;
                return this.dens[x + 1 + (y + 1) * rowS];
            }
        }
        var z = new Field(3, 7, new Array(45));
        z.setDensity(2, 5, -5);
        return z.getDensity(2, 5);
    "#,
    )
    .unwrap();
    assert_eq!(v, Value::Num(-5));
}

#[test]
fn overloaded_arguments_dispatch() {
    let v = assert_consistent(
        r#"
        sig f : (x: number, y: number) => number;
        sig f : (x: number) => number;
        function f(x, y) {
            if (arguments.length === 2) { return x + y; }
            return x * 10;
        }
        return f(7) + f(1, 2);
    "#,
    )
    .unwrap();
    assert_eq!(v, Value::Num(73));
}

#[test]
fn typeof_reflection() {
    let v = assert_consistent(
        r#"
        function incr(x: number + string): number {
            var r = 1;
            if (typeof x === "number") { r = r + x; }
            return r;
        }
        return incr(41) + incr("nope");
    "#,
    )
    .unwrap();
    assert_eq!(v, Value::Num(43));
}

#[test]
fn bitvector_flags() {
    let v = assert_consistent(
        r#"
        enum TypeFlags {
            Class = 0x0400,
            Interface = 0x0800,
            Reference = 0x1000,
            Object = 0x0400 | 0x0800 | 0x1000,
        }
        function test(flags: TypeFlags): number {
            if (flags & TypeFlags.Object) { return 1; }
            return 0;
        }
        return test(TypeFlags.Class) + test(0x0001);
    "#,
    )
    .unwrap();
    assert_eq!(v, Value::Num(1));
}

#[test]
fn loop_with_early_return() {
    let v = assert_consistent(
        r#"
        function find(a: number[], k: number): number {
            var i = 0;
            while (i < a.length) {
                if (a[i] === k) { return i; }
                i = i + 1;
            }
            return -1;
        }
        return find([5, 6, 7], 7) * 10 + find([5], 9);
    "#,
    )
    .unwrap();
    assert_eq!(v, Value::Num(19));
}

#[test]
fn out_of_bounds_agrees() {
    let (a, b) = both("var a = new Array(3); return a[5];");
    assert!(matches!(a, Err(RuntimeError::OutOfBounds(_))));
    assert_eq!(a, b);
}

#[test]
fn assert_failure_agrees() {
    let (a, b) = both("assert(1 < 0); return 1;");
    assert!(matches!(a, Err(RuntimeError::AssertFailed(_))));
    assert_eq!(a, b);
}

#[test]
fn ghost_function_returns_true() {
    let v = assert_consistent(
        r#"
        declare mulThm1 : (a: nat, b: {v: number | v >= 2}) => {v: boolean | a + a <= a * b};
        var t = mulThm1(3, 4);
        return t ? 1 : 0;
    "#,
    )
    .unwrap();
    assert_eq!(v, Value::Num(1));
}

#[test]
fn nested_if_phis() {
    let v = assert_consistent(
        r#"
        function g(n: number): number {
            var a = 0; var b = 0;
            if (n > 10) {
                a = 1;
                if (n > 20) { b = 2; } else { a = 3; }
            } else {
                b = 4;
            }
            return a * 100 + b;
        }
        return g(25) * 1000000 + g(15) * 1000 + g(5);
    "#,
    )
    .unwrap();
    // g(25)=102, g(15)=300, g(5)=4
    assert_eq!(v, Value::Num(102_300_004));
}

// ------------------------------------------------------------------------
// Random imperative programs over integers: a tiny generator producing
// assignments, arithmetic, conditionals and bounded loops.
// ------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum GExpr {
    Lit(i8),
    Var(u8),
    Add(Box<GExpr>, Box<GExpr>),
    Sub(Box<GExpr>, Box<GExpr>),
    Mul(Box<GExpr>, Box<GExpr>),
}

#[derive(Clone, Debug)]
enum GStmt {
    Assign(u8, GExpr),
    If(GExpr, GExpr, Vec<GStmt>, Vec<GStmt>),
    Loop(u8, Vec<GStmt>),
}

fn gexpr(e: &GExpr) -> String {
    match e {
        GExpr::Lit(n) => format!("({n})"),
        GExpr::Var(v) => format!("x{}", v % 4),
        GExpr::Add(a, b) => format!("({} + {})", gexpr(a), gexpr(b)),
        GExpr::Sub(a, b) => format!("({} - {})", gexpr(a), gexpr(b)),
        GExpr::Mul(a, b) => format!("({} * {})", gexpr(a), gexpr(b)),
    }
}

fn gstmt(s: &GStmt, out: &mut String, indent: usize, loop_id: &mut u32) {
    let pad = "  ".repeat(indent);
    match s {
        GStmt::Assign(v, e) => {
            out.push_str(&format!("{pad}x{} = {};\n", v % 4, gexpr(e)));
        }
        GStmt::If(a, b, t, f) => {
            out.push_str(&format!("{pad}if ({} < {}) {{\n", gexpr(a), gexpr(b)));
            for s in t {
                gstmt(s, out, indent + 1, loop_id);
            }
            out.push_str(&format!("{pad}}} else {{\n"));
            for s in f {
                gstmt(s, out, indent + 1, loop_id);
            }
            out.push_str(&format!("{pad}}}\n"));
        }
        GStmt::Loop(v, body) => {
            *loop_id += 1;
            let c = format!("c{loop_id}");
            out.push_str(&format!("{pad}var {c} = 0;\n"));
            out.push_str(&format!("{pad}while ({c} < {}) {{\n", v % 4 + 1));
            for s in body {
                gstmt(s, out, indent + 1, loop_id);
            }
            out.push_str(&format!("{pad}  {c} = {c} + 1;\n"));
            out.push_str(&format!("{pad}}}\n"));
        }
    }
}

fn program_of(stmts: &[GStmt]) -> String {
    let mut out = String::from("var x0 = 1; var x1 = 2; var x2 = 3; var x3 = 4;\n");
    let mut loop_id = 0;
    for s in stmts {
        gstmt(s, &mut out, 0, &mut loop_id);
    }
    out.push_str("return ((x0 * 1000003) + x1 * 1009 + x2 * 31 + x3);\n");
    out
}

fn arb_gexpr() -> impl Strategy<Value = GExpr> {
    let leaf = prop_oneof![
        (-9i8..=9).prop_map(GExpr::Lit),
        (0u8..4).prop_map(GExpr::Var)
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| GExpr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| GExpr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| GExpr::Mul(Box::new(a), Box::new(b))),
        ]
    })
}

fn arb_gstmt() -> impl Strategy<Value = GStmt> {
    let leaf = (0u8..4, arb_gexpr()).prop_map(|(v, e)| GStmt::Assign(v, e));
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (
                arb_gexpr(),
                arb_gexpr(),
                prop::collection::vec(inner.clone(), 0..3),
                prop::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(a, b, t, f)| GStmt::If(a, b, t, f)),
            (0u8..4, prop::collection::vec(inner, 1..3)).prop_map(|(v, b)| GStmt::Loop(v, b)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]
    #[test]
    fn ssa_consistency_random_programs(stmts in prop::collection::vec(arb_gstmt(), 1..6)) {
        let src = program_of(&stmts);
        let prog = rsc_syntax::parse_program(&src).expect("generated program parses");
        let ir = rsc_ssa::transform_program(&prog);
        let a = run_frsc(&prog, FUEL);
        let b = run_irsc(&ir, FUEL);
        prop_assert_eq!(a, b, "disagreement on:\n{}", src);
    }
}
