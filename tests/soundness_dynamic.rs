//! Dynamic soundness (Theorems 2–5 + Corollary 4, tested end-to-end):
//! programs the checker verifies never hit runtime errors when executed,
//! on either semantics, and casts can be erased (the interpreters already
//! treat them as no-ops).

use rsc_core::{check_program, CheckerOptions};
use rsc_interp::{run_frsc, run_irsc, RuntimeError, Value};

const FUEL: u64 = 5_000_000;

/// Verifies, runs both semantics, and checks that no runtime error occurs
/// and both agree.
fn verified_and_safe(src: &str) -> Value {
    let r = check_program(src, CheckerOptions::default());
    assert!(
        r.ok(),
        "program should verify: {:?}",
        r.diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
    );
    let prog = rsc_syntax::parse_program(src).unwrap();
    let ir = rsc_ssa::transform_program(&prog);
    let a = run_frsc(&prog, FUEL);
    let b = run_irsc(&ir, FUEL);
    assert_eq!(a, b, "semantics disagree");
    match a {
        Ok(v) => v,
        Err(e) => panic!("verified program hit a runtime error: {e}"),
    }
}

#[test]
fn verified_reduce_runs_safely() {
    let v = verified_and_safe(
        r#"
        type nat = {v: number | 0 <= v};
        type idx<a> = {v: nat | v < len(a)};
        function reduce<A, B>(a: A[], f: (acc: B, cur: A, i: idx<a>) => B, x: B): B {
            var res = x, i;
            for (i = 0; i < a.length; i++) {
                res = f(res, a[i], i);
            }
            return res;
        }
        function minIndex(a: number[]): number {
            if (a.length <= 0) { return -1; }
            function step(min, cur, i) {
                return cur < a[min] ? i : min;
            }
            return reduce(a, step, 0);
        }
        return minIndex([9, 3, 7, 1, 8]);
    "#,
    );
    assert_eq!(v, Value::Num(3));
}

#[test]
fn verified_overloads_run_safely() {
    let v = verified_and_safe(
        r#"
        type nat = {v: number | 0 <= v};
        type idx<a> = {v: nat | v < len(a)};
        type NEArray<T> = {v: T[] | 0 < len(v)};
        function reduce<A, B>(a: A[], f: (acc: B, cur: A, i: idx<a>) => B, x: B): B {
            var res = x, i;
            for (i = 0; i < a.length; i++) {
                res = f(res, a[i], i);
            }
            return res;
        }
        sig $reduce : <A>(a: NEArray<A>, f: (A, A, idx<a>) => A) => A;
        sig $reduce : <A, B>(a: A[], f: (B, A, idx<a>) => B, x: B) => B;
        function $reduce(a, f, x) {
            if (arguments.length === 3) { return reduce(a, f, x); }
            return reduce(a, f, a[0]);
        }
        function add(p, q, i) { return p + q; }
        return $reduce([1, 2, 3], add) + $reduce([1, 2, 3], add, 10);
    "#,
    );
    // Without `slice`, the 2-argument overload seeds with a[0] and then
    // folds the whole array: (1+1+2+3) + (10+1+2+3) = 23.
    assert_eq!(v, Value::Num(23));
}

#[test]
fn verified_class_runs_safely() {
    let v = verified_and_safe(
        r#"
        type nat = {v: number | 0 <= v};
        type pos = {v: number | 0 < v};
        type ArrayN<T, n> = {v: T[] | len(v) = n};
        type grid<w, h> = ArrayN<number, (w + 2) * (h + 2)>;
        type okW = {v: nat | v <= this.w};
        type okH = {v: nat | v <= this.h};
        declare gridIdxThm : (x: nat, y: nat, w: {v: number | x <= v}, h: {v: number | y <= v})
            => {v: boolean | 0 <= x + 1 + (y + 1) * (w + 2)
                          && x + 1 + (y + 1) * (w + 2) < (w + 2) * (h + 2)};
        class Field {
            immutable w : pos;
            immutable h : pos;
            dens : grid<this.w, this.h>;
            constructor(w: pos, h: pos, d: grid<w, h>) {
                this.h = h; this.w = w; this.dens = d;
            }
            setDensity(x: okW, y: okH, d: number) {
                var t = gridIdxThm(x, y, this.w, this.h);
                var rowS = this.w + 2;
                this.dens[x + 1 + (y + 1) * rowS] = d;
            }
            @ReadOnly getDensity(x: okW, y: okH): number {
                var t = gridIdxThm(x, y, this.w, this.h);
                var rowS = this.w + 2;
                return this.dens[x + 1 + (y + 1) * rowS];
            }
        }
        var z = new Field(3, 7, new Array(45));
        z.setDensity(2, 5, 42);
        return z.getDensity(2, 5);
    "#,
    );
    assert_eq!(v, Value::Num(42));
}

#[test]
fn verified_reflection_runs_safely() {
    let v = verified_and_safe(
        r#"
        function incr(x: number + undefined): number {
            var r = 1;
            if (typeof x === "number") { r = r + x; }
            return r;
        }
        return incr(41) + incr(undefined);
    "#,
    );
    assert_eq!(v, Value::Num(43));
}

/// The corpus `demo` entry points run without errors on both semantics.
#[test]
fn corpus_demos_run_safely() {
    for (name, call) in [
        ("navier-stokes", "return demo();"),
        ("splay", "return demo();"),
        ("richards", "return demo();"),
        ("raytrace", "return demo();"),
        ("transducers", "return demo();"),
        ("d3-arrays", "return demo();"),
        ("tsc-checker", "return demo([3, 42, 0 - 1, 7]);"),
    ] {
        let src = format!("{}\n{call}", rsc_bench::load_benchmark(name).unwrap());
        let prog = rsc_syntax::parse_program(&src).unwrap();
        let ir = rsc_ssa::transform_program(&prog);
        let a = run_frsc(&prog, FUEL);
        let b = run_irsc(&ir, FUEL);
        assert_eq!(a, b, "{name}: semantics disagree");
        match a {
            Ok(_) => {}
            Err(RuntimeError::OutOfFuel) => panic!("{name}: demo diverged"),
            Err(e) => panic!("{name}: verified benchmark hit a runtime error: {e}"),
        }
    }
}
