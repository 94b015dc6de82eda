//! Parser tests over the code shapes that appear in the paper.

use rsc_syntax::ast::*;
use rsc_syntax::parser::MAX_DEPTH;
use rsc_syntax::{parse_pred, parse_program, parse_type, AnnArg, AnnTy, Mutability};

#[test]
fn parse_type_aliases() {
    let p = parse_program(
        r#"
        type nat = {v: number | 0 <= v};
        type pos = {v: number | 0 < v};
        type natN<n> = {v: nat | v = n};
        type idx<a> = {v: nat | v < len(a)};
    "#,
    )
    .unwrap();
    assert_eq!(p.items.len(), 4);
    match &p.items[3] {
        Item::TypeAlias(t) => {
            assert_eq!(t.name, "idx");
            assert_eq!(t.params.len(), 1);
        }
        _ => panic!("expected alias"),
    }
}

#[test]
fn parse_reduce_figure_1() {
    let p = parse_program(
        r#"
        function reduce<A, B>(a: A[], f: (acc: B, cur: A, i: idx<a>) => B, x: B): B {
            var res = x, i;
            for (i = 0; i < a.length; i++) {
                res = f(res, a[i], i);
            }
            return res;
        }

        function minIndex(a: number[]): number {
            if (a.length <= 0) { return -1; }
            function step(min: idx<a>, cur: number, i: idx<a>): idx<a> {
                return cur < a[min] ? i : min;
            }
            return reduce(a, step, 0);
        }
    "#,
    )
    .unwrap();
    assert_eq!(p.items.len(), 2);
    match &p.items[0] {
        Item::Fun(f) => {
            assert_eq!(f.name, "reduce");
            assert_eq!(f.sigs.len(), 1);
            assert_eq!(f.sigs[0].tparams.len(), 2);
        }
        _ => panic!("expected function"),
    }
}

#[test]
fn parse_overload_sigs() {
    let p = parse_program(
        r#"
        sig $reduce : <A>(a: A[]+, f: (A, A, idx<a>) => A) => A;
        sig $reduce : <A, B>(a: A[], f: (B, A, idx<a>) => B, x: B) => B;
        function $reduce(a, f, x) {
            return x;
        }
    "#,
    )
    .unwrap();
    match &p.items[0] {
        Item::Fun(f) => {
            assert_eq!(f.sigs.len(), 2);
            assert_eq!(f.params.len(), 3);
        }
        _ => panic!("expected function"),
    }
}

#[test]
fn sig_without_function_is_error() {
    assert!(parse_program("sig f : (x: number) => number;").is_err());
}

#[test]
fn parse_field_class_figure_2() {
    let p = parse_program(
        r#"
        type grid<w, h> = {v: number[] | len(v) = (w + 2) * (h + 2)};
        type okW = {v: nat | v <= this.w};
        type okH = {v: nat | v <= this.h};

        class Field {
            immutable w : pos;
            immutable h : pos;
            dens : grid<this.w, this.h>;

            constructor(w: pos, h: pos, d: grid<w, h>) {
                this.h = h; this.w = w; this.dens = d;
            }

            setDensity(x: okW, y: okH, d: number) {
                var rowS = this.w + 2;
                var i = x + 1 + (y + 1) * rowS;
                this.dens[i] = d;
            }

            @ReadOnly getDensity(x: okW, y: okH): number {
                var rowS = this.w + 2;
                var i = x + 1 + (y + 1) * rowS;
                return this.dens[i];
            }

            reset(d: grid<this.w, this.h>) {
                this.dens = d;
            }
        }
    "#,
    )
    .unwrap();
    match &p.items[3] {
        Item::Class(c) => {
            assert_eq!(c.name, "Field");
            assert_eq!(c.fields.len(), 3);
            assert_eq!(c.fields[0].mutability, FieldMut::Immutable);
            assert_eq!(c.fields[2].mutability, FieldMut::Mutable);
            assert!(c.ctor.is_some());
            assert_eq!(c.methods.len(), 3);
            assert_eq!(c.methods[1].recv, Mutability::ReadOnly);
        }
        other => panic!("expected class, got {other:?}"),
    }
}

#[test]
fn parse_enum_and_interfaces() {
    let p = parse_program(
        r#"
        enum TypeFlags {
            Any = 0x00000001,
            String = 0x00000002,
            Class = 0x00000400,
            Interface = 0x00000800,
            Reference = 0x00001000,
            Object = 0x00000400 | 0x00000800 | 0x00001000,
        }
        interface Type {
            immutable flags : TypeFlags;
            id : number;
        }
        interface ObjectType extends Type {
        }
    "#,
    )
    .unwrap();
    match &p.items[0] {
        Item::Enum(e) => {
            assert_eq!(e.members.len(), 6);
            assert_eq!(e.members[5].1, 0x1c00);
        }
        _ => panic!("expected enum"),
    }
    match &p.items[2] {
        Item::Interface(i) => assert_eq!(i.extends, vec![rsc_logic::Sym::from("Type")]),
        _ => panic!("expected interface"),
    }
}

#[test]
fn parse_cast_and_typeof() {
    let p = parse_program(
        r#"
        function f(t: Type): number {
            if (t.flags & 0x3C00) {
                var o = <ObjectType> t;
                return 1;
            }
            if (typeof t === "number") { return 2; }
            return 0;
        }
    "#,
    )
    .unwrap();
    assert_eq!(p.items.len(), 1);
}

#[test]
fn parse_union_types() {
    let t = parse_type("number + undefined").unwrap();
    match t {
        AnnTy::Union(parts) => assert_eq!(parts.len(), 2),
        other => panic!("expected union, got {other}"),
    }
}

#[test]
fn parse_nonempty_array() {
    let t = parse_type("A[]+").unwrap();
    match t {
        AnnTy::Array { nonempty, .. } => assert!(nonempty),
        other => panic!("expected array, got {other}"),
    }
}

#[test]
fn parse_mutable_array_sugar() {
    let t = parse_type("Array<MU, number>").unwrap();
    match t {
        AnnTy::Array {
            mutability: Mutability::Mutable,
            ..
        } => {}
        other => panic!("expected mutable array, got {other}"),
    }
}

#[test]
fn parse_dependent_alias_args() {
    let t = parse_type("grid<this.w, this.h>").unwrap();
    match t {
        AnnTy::Name(n, args) => {
            assert_eq!(n, "grid");
            assert_eq!(args.len(), 2);
            assert!(matches!(args[0], AnnArg::Term(_)));
        }
        other => panic!("expected named type, got {other}"),
    }
}

#[test]
#[allow(non_snake_case)]
fn parse_isMask_style_predicates() {
    let p = parse_pred("mask(v, 0x00003C00) => impl(this, ObjectType)").unwrap();
    let s = p.to_string();
    assert!(s.contains("impl"), "{s}");
    assert!(s.contains("&"), "{s}");
}

#[test]
fn parse_ghost_function_declare() {
    let p = parse_program(
        r#"
        declare mulThm1 : (a: nat, b: {v: number | v >= 2}) => {v: boolean | a + a <= a * b};
    "#,
    )
    .unwrap();
    match &p.items[0] {
        Item::Declare(d) => assert_eq!(d.name, "mulThm1"),
        _ => panic!("expected declare"),
    }
}

#[test]
fn parse_while_and_break_rejected() {
    assert!(parse_program("function f(): void { while (true) { break; } }").is_err());
}

#[test]
fn parse_new_with_targs() {
    let p = parse_program("var z = new Field(3, 7, new Array<number>(45));").unwrap();
    match &p.items[0] {
        Item::Stmt(Stmt::VarDecl { init, .. }) => match init {
            Expr::New(name, _, args, _) => {
                assert_eq!(*name, "Field");
                assert_eq!(args.len(), 3);
            }
            other => panic!("expected new, got {other:?}"),
        },
        _ => panic!("expected var decl"),
    }
}

#[test]
fn parse_qualif_decl() {
    let p = parse_program("qualif CmpLen(v: number, a: ref): v <= len(a);").unwrap();
    match &p.items[0] {
        Item::Qualif(q) => {
            assert_eq!(q.name, "CmpLen");
            assert_eq!(q.params.len(), 2);
        }
        _ => panic!("expected qualif"),
    }
}

#[test]
fn parse_nested_else_if() {
    let p = parse_program(
        r#"
        function f(x: number): number {
            if (x < 0) { return 0; }
            else if (x < 10) { return 1; }
            else { return 2; }
        }
    "#,
    )
    .unwrap();
    assert_eq!(p.items.len(), 1);
}

#[test]
fn parse_ternary_and_logical() {
    let p = parse_program("var r = a < b ? a : b;");
    assert!(p.is_ok());
}

#[test]
fn spans_track_lines() {
    let p = parse_program("var x = 1;\nvar y = 2;").unwrap();
    match (&p.items[0], &p.items[1]) {
        (Item::Stmt(s1), Item::Stmt(s2)) => {
            assert_eq!(s1.span().line, 1);
            assert_eq!(s2.span().line, 2);
        }
        _ => panic!(),
    }
}

#[test]
fn parse_import_decl() {
    let p = parse_program(
        "import {inc, Counter} from \"./lib\";\nfunction f(x: number): number { return inc(x); }",
    )
    .unwrap();
    assert_eq!(p.imports.len(), 1);
    let imp = &p.imports[0];
    assert_eq!(imp.from, "./lib");
    let names: Vec<_> = imp.names.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, vec!["inc", "Counter"]);
    assert_eq!(imp.span.line, 1);
    // The import is metadata, not an item: only the function remains.
    assert_eq!(p.items.len(), 1);
}

#[test]
fn parse_export_modifiers() {
    let p = parse_program(
        r#"
        export function inc(x: number): number { return x + 1; }
        function helper(x: number): number { return x; }
        export type nat = {v: number | 0 <= v};
        export class C { n : number; }
        "#,
    )
    .unwrap();
    let names: Vec<_> = p.exports.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, vec!["inc", "nat", "C"]);
    // Exported items still parse as ordinary items.
    assert_eq!(p.items.len(), 4);
}

#[test]
fn export_before_statement_is_error() {
    let e = parse_program("export var x = 1;").unwrap_err();
    assert!(e.message.contains("named declaration"), "{e}");
    assert!(parse_program("export sig f : (x: number) => number;").is_err());
}

#[test]
fn import_requires_from_and_module_string() {
    assert!(parse_program("import {a} \"./m\";").is_err());
    assert!(parse_program("import {a} from m;").is_err());
    // `from` stays usable as an ordinary identifier elsewhere.
    assert!(parse_program("var from = 1; var y = from + 1;").is_ok());
}

/// Several dangling overload sigs: the error must deterministically name
/// the *first-declared* one, at its own source line — not whichever a
/// hash map yields first.
#[test]
fn dangling_sig_error_is_deterministic() {
    for _ in 0..16 {
        let e = parse_program(
            "sig zeta : (x: number) => number;\n\
             sig alpha : (x: number) => number;\n\
             sig mu : (x: number) => number;\n",
        )
        .unwrap_err();
        assert_eq!(e.message, "sig for `zeta` has no matching function");
        assert_eq!(e.span.line, 1, "blame the first-declared sig: {e}");
    }
}

/// One source per nesting shape, each nested `n` levels deep: the five
/// shapes that once overflowed a thread's stack (parentheses, a `+`
/// chain, an `else if` chain, array literals, blocks), plus the other
/// recursive and left-folded forms of expressions, types, predicates and
/// terms.
fn nesting_shapes(n: usize) -> Vec<(&'static str, String)> {
    let wrap = |open: &str, inner: &str, close: &str| {
        format!("{}{inner}{}", open.repeat(n), close.repeat(n))
    };
    let arms = " else if (x == 1) { return 1; }".repeat(n);
    vec![
        ("parentheses", format!("var x = {};", wrap("(", "1", ")"))),
        ("sum chain", format!("var x = 1{};", "+1".repeat(n))),
        (
            "else-if chain",
            format!(
                "function f(x: number): number {{ if (x == 0) {{ return 0; }}{arms} return 2; }}"
            ),
        ),
        (
            "array literals",
            format!("var x = {};", wrap("[", "1", "]")),
        ),
        ("blocks", wrap("{", "var x = 1;", "}")),
        ("negations", format!("var x = {}true;", "!".repeat(n))),
        (
            "ternaries",
            format!("var x = {}0;", "true ? 0 : ".repeat(n)),
        ),
        ("member chain", format!("var x = o{};", ".f".repeat(n))),
        ("call chain", format!("var x = f{};", "()".repeat(n))),
        (
            "refined types",
            format!("declare x: {};", wrap("{v: ", "number", " | true}")),
        ),
        (
            "array types",
            format!("declare x: number{};", "[]".repeat(n)),
        ),
        (
            "type arguments",
            format!("declare x: {};", wrap("Box<", "number", ">")),
        ),
        (
            "predicate parentheses",
            format!("declare x: {{v: number | {}}};", wrap("(", "0 <= v", ")")),
        ),
        (
            "conjunctions",
            format!(
                "declare x: {{v: number | 0 <= v{}}};",
                " && 0 <= v".repeat(n)
            ),
        ),
        (
            "term sums",
            format!("declare x: {{v: number | v = 1{}}};", "+1".repeat(n)),
        ),
        (
            "term negations",
            format!("declare x: {{v: number | v = {}1}};", "- ".repeat(n)),
        ),
        (
            "field selections",
            format!("declare x: {{v: number | v = o{}}};", ".f".repeat(n)),
        ),
    ]
}

/// Runs `f` on a thread with a large stack: a debug build's parser frames
/// are many times a release build's, and the bound is chosen for release.
fn with_large_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic");
}

/// Input nested far past [`MAX_DEPTH`] is one parse error at the token
/// that crosses the bound — not a stack overflow, and not an error at
/// the end of the input.
#[test]
fn deep_nesting_is_one_parse_error_at_the_bound() {
    with_large_stack(|| {
        for (shape, src) in nesting_shapes(100_000) {
            let e = parse_program(&src).expect_err(shape);
            assert!(e.message.contains("nesting deeper than"), "{shape}: {e}");
            // Every shape spends at most ~40 bytes of source per level.
            assert!(
                (e.span.lo as usize) < 40 * MAX_DEPTH,
                "{shape}: error at byte {}, past the bound",
                e.span.lo
            );
        }
    });
}

/// The bound is a depth, not a size: each shape at a tenth of it parses.
#[test]
fn moderate_nesting_parses() {
    with_large_stack(|| {
        for (shape, src) in nesting_shapes(MAX_DEPTH / 10) {
            if let Err(e) = parse_program(&src) {
                panic!("{shape}: {e}");
            }
        }
    });
}
