//! Unsound TypeScript features that RSC rejects (§4.1) and mutability
//! violations (§4.4).

use rsc_core::{check_program, CheckerOptions};

fn rejected(src: &str) {
    let r = check_program(src, CheckerOptions::default());
    assert!(!r.ok(), "program should be rejected:\n{src}");
}

fn accepted(src: &str) {
    let r = check_program(src, CheckerOptions::default());
    assert!(
        r.ok(),
        "program should verify, got {:?}:\n{src}",
        r.diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
    );
}

#[test]
fn undefined_plus_one_rejected() {
    // TS accepts `var x = undefined; var y = x + 1;` — RSC rejects (§4.1).
    rejected("var x = undefined; var y = x + 1;");
}

#[test]
fn null_is_not_bottom() {
    rejected(
        r#"
        class P { x : number; constructor(x: number) { this.x = x; } }
        function f(p: P): number { return p.x; }
        var r = f(null);
        "#,
    );
}

#[test]
fn property_access_on_possibly_null_rejected() {
    rejected(
        r#"
        class P { x : number; constructor(x: number) { this.x = x; } }
        function f(p: P + null): number { return p.x; }
        "#,
    );
}

#[test]
fn narrowed_property_access_accepted() {
    accepted(
        r#"
        class P { x : number; constructor(x: number) { this.x = x; } }
        function f(p: P + null): number {
            if (p === null) { return 0; }
            return p.x;
        }
        "#,
    );
}

#[test]
fn readonly_method_cannot_mutate() {
    rejected(
        r#"
        class C {
            n : number;
            constructor(n: number) { this.n = n; }
            @ReadOnly bad() { this.n = 5; }
        }
        "#,
    );
}

#[test]
fn mutable_method_on_readonly_receiver_rejected() {
    rejected(
        r#"
        class C {
            n : number;
            constructor(n: number) { this.n = n; }
            bump() { this.n = this.n + 1; }
            @ReadOnly peek(): number { return 0; }
        }
        function f(c: C<RO>) { c.bump(); }
        "#,
    );
}

#[test]
fn readonly_method_on_readonly_receiver_accepted() {
    accepted(
        r#"
        class C {
            n : number;
            constructor(n: number) { this.n = n; }
            @ReadOnly peek(): number { return 0; }
        }
        function f(c: C<RO>): number { return c.peek(); }
        "#,
    );
}

#[test]
fn ctor_must_initialize_all_fields() {
    rejected(
        r#"
        class C {
            a : number;
            b : number;
            constructor(a: number) { this.a = a; }
        }
        "#,
    );
}

#[test]
fn ctor_invariant_violation_rejected() {
    rejected(
        r#"
        type pos = {v: number | 0 < v};
        class C {
            immutable p : pos;
            constructor(x: number) { this.p = x; }
        }
        "#,
    );
}

#[test]
fn array_write_on_readonly_rejected() {
    rejected("function f(a: Array<RO, number>) { if (0 < a.length) { a[0] = 1; } }");
}

#[test]
fn push_outside_fragment() {
    rejected("function f(a: Array<MU, number>) { a.push(1); }");
}

#[test]
fn this_read_in_ctor_rejected() {
    rejected(
        r#"
        class C {
            a : number;
            b : number;
            constructor(x: number) { this.a = x; this.b = this.a + 1; }
        }
        "#,
    );
}

#[test]
fn division_by_possibly_zero_rejected() {
    rejected("function f(x: number, y: number): number { return x / y; }");
}

#[test]
fn division_by_nonzero_accepted() {
    accepted("function f(x: number, y: {v: number | 0 < v}): number { return x / y; }");
}

#[test]
fn bad_overload_body_rejected() {
    // The 2-argument overload promises A but the body returns the array.
    rejected(
        r#"
        sig f : (x: number, y: number) => number;
        sig f : (x: number) => boolean;
        function f(x, y) {
            if (arguments.length === 2) { return x + y; }
            return x;
        }
        "#,
    );
}

#[test]
fn dependent_postcondition_enforced() {
    rejected("function f(x: number): {v: number | x < v} { return x; }");
    accepted("function f(x: number): {v: number | x < v} { return x + 1; }");
}

/// `x = 3·p` and `x + 4 < 9` bound `x` by 3 over the integers (`p ≤ 1`),
/// though `x = 4` is a rational point. FM only sees it when the row
/// `3·p − 4 ≤ 0` left by the substitution is rounded to `p ≤ 1`.
#[test]
fn bound_through_a_scaled_substitution() {
    let program = |bound: i64| {
        format!(
            "function f(p: number): number {{
                var x = p * 3;
                if (x + 4 < 9) {{
                    assert(x <= {bound});
                }}
                return 0;
            }}"
        )
    };
    accepted(&program(3));
    // p = 1 gives x = 3.
    rejected(&program(2));
}
