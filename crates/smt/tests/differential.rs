//! Differential testing of the SMT solver against a brute-force
//! finite-domain evaluator.
//!
//! Random QF LIA+EUF+BV32 predicates are generated with proptest and
//! checked both ways. Every solver answer comes from the one DPLL(T)
//! driver, [`IncrContext::query`]: [`Solver::is_sat`] and
//! [`Solver::is_valid`] run it on a one-shot context, and
//! [`Solver::is_valid_ctx`] on a persistent context with a model pool.
//!
//! * if the solver claims **Unsat**, no model may exist in the finite
//!   domain (a finite model would witness satisfiability outright);
//! * if the solver claims a VC is **valid**, no finite countermodel may
//!   exist — these two legs are the driver's independent arbiter;
//! * cached and uncached solvers must agree on every validity verdict,
//!   and a second probe of the same query must agree with the first;
//! * a persistent context must agree with a one-shot context per query;
//! * a goal a pooled counterexample model refutes must not be valid on
//!   a one-shot context, and a pool never turns a one-shot "valid"
//!   around.
//!
//! The finite domain is deliberately one-directional: a formula with no
//! model over `x, y ∈ [-2, 2]` may still be satisfiable over ℤ, so the
//! evaluator can never refute a `Sat` answer — only `Unsat`/valid claims
//! are falsifiable, which is exactly the soundness-critical direction
//! (and the only direction the VC cache memoizes).

use proptest::prelude::*;
use rsc_logic::{BinOp, CmpOp, FunSig, Pred, Sort, SortEnv, Sym, Term};
use rsc_smt::{IncrContext, ModelPool, SatResult, Solver, VcCache, MAX_ROUNDS};

// ------------------------------------------------------------ generator ---

const CMPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

fn int_term() -> BoxedStrategy<Term> {
    let leaf = prop_oneof![
        Just(Term::var("x")),
        Just(Term::var("y")),
        (-2i64..=2).prop_map(Term::int),
    ]
    .boxed();
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Term::neg),
            inner.clone().prop_map(|t| Term::app("f", vec![t])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Term::add(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Term::bin(BinOp::Sub, a, b)),
            ((-2i64..=2), inner).prop_map(|(c, t)| Term::bin(BinOp::Mul, Term::int(c), t)),
        ]
    })
}

fn bv_term() -> BoxedStrategy<Term> {
    let leaf = prop_oneof![
        Just(Term::var("u")),
        Just(Term::var("w")),
        (0u32..=3).prop_map(Term::bv),
    ]
    .boxed();
    leaf.prop_recursive(1, 4, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Term::bin(BinOp::BvAnd, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Term::bin(BinOp::BvOr, a, b)),
        ]
    })
}

fn pred() -> BoxedStrategy<Pred> {
    let atom = prop_oneof![
        (0usize..6, int_term(), int_term()).prop_map(|(i, a, b)| Pred::cmp(CMPS[i], a, b)),
        (0usize..2, bv_term(), bv_term())
            .prop_map(|(i, a, b)| { Pred::cmp(if i == 0 { CmpOp::Eq } else { CmpOp::Ne }, a, b) }),
        Just(Pred::TermPred(Term::var("p"))),
    ]
    .boxed();
    atom.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Pred::and(vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Pred::or(vec![a, b])),
            inner.clone().prop_map(Pred::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Pred::imp(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Pred::iff(a, b)),
        ]
    })
}

fn env() -> SortEnv {
    let mut e = SortEnv::new();
    e.bind("x", Sort::Int);
    e.bind("y", Sort::Int);
    e.bind("p", Sort::Bool);
    e.bind("u", Sort::Bv32);
    e.bind("w", Sort::Bv32);
    e.declare_fun("f", FunSig::Fixed(vec![Sort::Int], Sort::Int));
    e
}

// ------------------------------------------------- brute-force evaluator ---

/// Integer domain for variables.
const D: [i64; 5] = [-2, -1, 0, 1, 2];
/// Bit-vector domain.
const DBV: [u32; 4] = [0, 1, 2, 3];
/// Range of each entry of the uninterpreted function's table. `f` is
/// interpreted as the total periodic function `n ↦ table[n mod 5]` — a
/// legitimate interpretation, so any model found this way is a real model.
const DF: [i64; 3] = [-1, 0, 1];

#[derive(Clone, Copy)]
struct Model {
    x: i64,
    y: i64,
    p: bool,
    u: u32,
    w: u32,
    f: [i64; 5],
}

#[derive(Clone, Copy, PartialEq)]
enum Val {
    I(i64),
    B(bool),
    Bv(u32),
}

fn eval_term(t: &Term, m: &Model) -> Option<Val> {
    Some(match t {
        Term::Var(x) => match x.as_str() {
            "x" => Val::I(m.x),
            "y" => Val::I(m.y),
            "p" => Val::B(m.p),
            "u" => Val::Bv(m.u),
            "w" => Val::Bv(m.w),
            _ => return None,
        },
        Term::IntLit(n) => Val::I(*n),
        Term::BoolLit(b) => Val::B(*b),
        Term::BvLit(n) => Val::Bv(*n),
        Term::Neg(a) => match eval_term(a, m)? {
            Val::I(n) => Val::I(-n),
            _ => return None,
        },
        Term::App(f, args) if f.as_str() == "f" && args.len() == 1 => {
            match eval_term(&args[0], m)? {
                Val::I(n) => Val::I(m.f[(n.rem_euclid(5)) as usize]),
                _ => return None,
            }
        }
        Term::Bin(op, a, b) => {
            let (va, vb) = (eval_term(a, m)?, eval_term(b, m)?);
            match (op, va, vb) {
                (BinOp::Add, Val::I(a), Val::I(b)) => Val::I(a + b),
                (BinOp::Sub, Val::I(a), Val::I(b)) => Val::I(a - b),
                (BinOp::Mul, Val::I(a), Val::I(b)) => Val::I(a * b),
                (BinOp::BvAnd, Val::Bv(a), Val::Bv(b)) => Val::Bv(a & b),
                (BinOp::BvOr, Val::Bv(a), Val::Bv(b)) => Val::Bv(a | b),
                _ => return None,
            }
        }
        _ => return None,
    })
}

fn eval_pred(p: &Pred, m: &Model) -> Option<bool> {
    Some(match p {
        Pred::True => true,
        Pred::False => false,
        Pred::And(ps) => {
            for q in ps {
                if !eval_pred(q, m)? {
                    return Some(false);
                }
            }
            true
        }
        Pred::Or(ps) => {
            for q in ps {
                if eval_pred(q, m)? {
                    return Some(true);
                }
            }
            false
        }
        Pred::Not(q) => !eval_pred(q, m)?,
        Pred::Imp(a, b) => !eval_pred(a, m)? || eval_pred(b, m)?,
        Pred::Iff(a, b) => eval_pred(a, m)? == eval_pred(b, m)?,
        Pred::Cmp(op, a, b) => {
            let (va, vb) = (eval_term(a, m)?, eval_term(b, m)?);
            match (va, vb) {
                (Val::I(a), Val::I(b)) => match op {
                    CmpOp::Eq => a == b,
                    CmpOp::Ne => a != b,
                    CmpOp::Lt => a < b,
                    CmpOp::Le => a <= b,
                    CmpOp::Gt => a > b,
                    CmpOp::Ge => a >= b,
                },
                (va, vb) => match op {
                    CmpOp::Eq => va == vb,
                    CmpOp::Ne => va != vb,
                    _ => return None,
                },
            }
        }
        Pred::TermPred(t) => match eval_term(t, m)? {
            Val::B(b) => b,
            _ => return None,
        },
        _ => return None,
    })
}

fn contains_f_term(t: &Term) -> bool {
    match t {
        Term::App(f, args) => f.as_str() == "f" || args.iter().any(contains_f_term),
        Term::Bin(_, a, b) => contains_f_term(a) || contains_f_term(b),
        Term::Neg(a) | Term::Field(a, _) => contains_f_term(a),
        _ => false,
    }
}

fn contains_f(p: &Pred) -> bool {
    match p {
        Pred::And(ps) | Pred::Or(ps) => ps.iter().any(contains_f),
        Pred::Not(q) => contains_f(q),
        Pred::Imp(a, b) | Pred::Iff(a, b) => contains_f(a) || contains_f(b),
        Pred::Cmp(_, a, b) => contains_f_term(a) || contains_f_term(b),
        Pred::TermPred(t) => contains_f_term(t),
        Pred::App(_, args) => args.iter().any(contains_f_term),
        _ => false,
    }
}

/// Exhaustive search for a model over the finite domain, enumerating only
/// the dimensions the formula actually mentions.
fn exists_finite_model(preds: &[Pred]) -> bool {
    let mut vars = std::collections::BTreeSet::new();
    for p in preds {
        p.free_vars_into(&mut vars);
    }
    let used = |n: &str| vars.contains(&Sym::from(n));
    let one_i = [0i64];
    let one_b = [false];
    let one_bv = [0u32];
    let xs: &[i64] = if used("x") { &D } else { &one_i };
    let ys: &[i64] = if used("y") { &D } else { &one_i };
    let ps: &[bool] = if used("p") { &[false, true] } else { &one_b };
    let us: &[u32] = if used("u") { &DBV } else { &one_bv };
    let ws: &[u32] = if used("w") { &DBV } else { &one_bv };
    let f_codes: u32 = if preds.iter().any(contains_f) {
        (DF.len() as u32).pow(5)
    } else {
        1
    };

    for code in 0..f_codes {
        let mut f = [0i64; 5];
        let mut c = code as usize;
        for slot in &mut f {
            *slot = DF[c % DF.len()];
            c /= DF.len();
        }
        for &x in xs {
            for &y in ys {
                for &p in ps {
                    for &u in us {
                        for &w in ws {
                            let m = Model { x, y, p, u, w, f };
                            if preds.iter().all(|q| eval_pred(q, &m) == Some(true)) {
                                return true;
                            }
                        }
                    }
                }
            }
        }
    }
    false
}

// ----------------------------------------------------------- properties ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Soundness: an Unsat claim must survive exhaustive finite search.
    #[test]
    fn unsat_claims_have_no_finite_model(hyps in prop::collection::vec(pred(), 1..4)) {
        let e = env();
        let mut solver = Solver::new();
        if solver.is_sat(&e, &hyps) == SatResult::Unsat {
            prop_assert!(
                !exists_finite_model(&hyps),
                "solver claimed Unsat but a finite model exists for {:?}",
                hyps.iter().map(|p| p.to_string()).collect::<Vec<_>>()
            );
        }
    }

    /// Soundness of validity: `hyps ⊢ goal` must have no countermodel.
    #[test]
    fn valid_claims_have_no_finite_countermodel(
        hyps in prop::collection::vec(pred(), 0..3),
        goal in pred(),
    ) {
        let e = env();
        let mut solver = Solver::new();
        if solver.is_valid(&e, &hyps, &goal) {
            let mut refutation = hyps.clone();
            refutation.push(Pred::not(goal.clone()));
            prop_assert!(
                !exists_finite_model(&refutation),
                "solver claimed valid but a finite countermodel exists for {} under {:?}",
                goal,
                hyps.iter().map(|p| p.to_string()).collect::<Vec<_>>()
            );
        }
    }

    /// Cache coherence: a cache-sharing solver and a second probe of the
    /// same cache always agree (the verdict is a pure function of the
    /// canonical fingerprint), and Unsat answers served from the cache
    /// stay sound. The uncached solver solves the *original* conjunct
    /// orientation, which is only guaranteed to agree when neither side
    /// was cut off by the round cap — so that comparison is gated.
    #[test]
    fn cached_and_uncached_answers_agree(
        hyps in prop::collection::vec(pred(), 0..3),
        goal in pred(),
    ) {
        let e = env();
        let mut plain = Solver::new();
        let uncached = plain.is_valid(&e, &hyps, &goal);

        let cache = VcCache::shared();
        let mut first = Solver::with_cache(cache.clone());
        let v1 = first.is_valid(&e, &hyps, &goal);
        let mut second = Solver::with_cache(cache.clone());
        let v2 = second.is_valid(&e, &hyps, &goal);

        let capped = plain.stats.sat_rounds >= MAX_ROUNDS
            || first.stats.sat_rounds >= MAX_ROUNDS;
        if !capped {
            prop_assert_eq!(uncached, v1, "cache changed a decided validity verdict");
        }
        prop_assert_eq!(v1, v2, "second probe of the cache disagreed");
        if v1 {
            // The second solver must have answered from the cache.
            prop_assert_eq!(second.stats.cache_hits, 1);
            prop_assert_eq!(second.stats.queries, 0);
            prop_assert!(
                !exists_finite_model(
                    &hyps.iter().cloned().chain([Pred::not(goal.clone())]).collect::<Vec<_>>()
                ),
                "cached Unsat answer has a finite countermodel"
            );
        }
    }

    /// Incremental equivalence: one persistent [`IncrContext`] answering a
    /// whole *sequence* of queries — sharing its arena, atom table, SAT
    /// instance, learnt clauses and blocking clauses across them — must
    /// agree with a one-shot context per query ([`Solver::is_valid`]),
    /// which shares nothing between queries. Divergence is tolerated
    /// only when a side hit the DPLL(T) round cap (an `Unknown`, i.e.
    /// "not proven", never an unsound claim). Valid claims additionally
    /// must survive exhaustive finite search, so a context poisoned by an
    /// earlier query (a retained clause that is not theory-valid, a stale
    /// activation literal) cannot slip through as a spurious proof.
    #[test]
    fn incremental_context_agrees_with_fresh_solver(
        queries in prop::collection::vec(
            (prop::collection::vec(pred(), 0..3), pred()),
            1..5,
        ),
    ) {
        let e = env();
        let mut ctx = IncrContext::new();
        let mut incr = Solver::new();
        for (hyps, goal) in &queries {
            let mut fresh = Solver::new();
            let fresh_v = fresh.is_valid(&e, hyps, goal);
            // A pool per query keeps this leg a pure driver comparison.
            let incr_v = incr.is_valid_ctx(&mut ctx, &mut ModelPool::new(), 0, &e, hyps, goal);
            let incr_stats = incr.stats.take();
            let capped = fresh.stats.sat_rounds >= MAX_ROUNDS
                || incr_stats.sat_rounds >= MAX_ROUNDS;
            if !capped {
                prop_assert_eq!(
                    fresh_v,
                    incr_v,
                    "persistent context diverged from a one-shot context on {} under {:?}",
                    goal,
                    hyps.iter().map(|p| p.to_string()).collect::<Vec<_>>()
                );
            }
            if incr_v {
                let refutation: Vec<Pred> = hyps
                    .iter()
                    .cloned()
                    .chain([Pred::not(goal.clone())])
                    .collect();
                prop_assert!(
                    !exists_finite_model(&refutation),
                    "incremental context claimed valid but a finite countermodel exists for {} under {:?}",
                    goal,
                    hyps.iter().map(|p| p.to_string()).collect::<Vec<_>>()
                );
            }
        }
    }
    /// Pool soundness: one check's goals over one hypothesis list, asked
    /// through one [`IncrContext`] and one [`ModelPool`] as the fixpoint
    /// asks them. A goal a pooled model refutes must not be valid on a
    /// one-shot context without a pool (the model witnesses
    /// `hyps ∧ ¬goal`), and a goal the one-shot context proves valid must
    /// come back valid unless a side hit the round cap.
    #[test]
    fn pooled_refutations_are_never_valid(
        hyps in prop::collection::vec(pred(), 0..3),
        goals in prop::collection::vec(pred(), 4..9),
    ) {
        let e = env();
        let mut ctx = IncrContext::new();
        let mut pool = ModelPool::new();
        let mut pooled = Solver::new();
        for goal in &goals {
            let mut fresh = Solver::new();
            let fresh_v = fresh.is_valid(&e, &hyps, goal);
            let pooled_v = pooled.is_valid_ctx(&mut ctx, &mut pool, 0, &e, &hyps, goal);
            let stats = pooled.stats.take();
            let shown = || hyps.iter().map(|p| p.to_string()).collect::<Vec<_>>();
            if stats.model_refuted > 0 {
                prop_assert!(!pooled_v);
                prop_assert!(
                    !fresh_v,
                    "a pooled model refuted {}, which a one-shot context proves valid under {:?}",
                    goal,
                    shown()
                );
            }
            let capped = fresh.stats.sat_rounds >= MAX_ROUNDS
                || stats.sat_rounds >= MAX_ROUNDS;
            if fresh_v && !capped {
                prop_assert!(
                    pooled_v,
                    "the pooled context lost valid goal {} under {:?}",
                    goal,
                    shown()
                );
            }
        }
    }
}
