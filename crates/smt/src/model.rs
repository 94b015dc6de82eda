//! Counterexample models of refuting queries, and the per-check pool
//! that lets one model drop sibling candidates without a query.
//!
//! # Lift
//!
//! When a query ([`crate::IncrContext::query`]) answers Sat on a
//! theory round that ended without a new Nelson–Oppen equality, the
//! round's congruence classes over the query scope and its checked
//! integer model (`LiaProblem::feasible_with_model`) are lifted into a
//! [`Model`]:
//!
//! - an integer node takes its class constant, or its class's LIA value;
//!   a class no row mentions takes a fresh value above every value in
//!   use, distinct per class;
//! - a reference takes one abstract element per class, and so does a
//!   string class without a literal (distinct from every literal);
//! - a boolean takes the value of the `true`/`false` class it joined;
//! - each uninterpreted symbol (`len`, `ttag`, `field$f`, predicate
//!   applications) gets a table keyed by argument values. If two
//!   applications with equal arguments disagree, the table is not a
//!   function and the lift fails.
//!
//! Bit-vector nodes and the encoder's own `mul`/`div`/`mod` symbols get
//! no value or table: the evaluator computes arithmetic itself.
//!
//! # Check and pool
//!
//! A lifted model proves nothing until [`rsc_logic::eval_pred`] checks
//! it: it enters a [`ModelPool`] only if it makes every hypothesis of its
//! own query true and the goal false. Such a model is a concrete witness
//! that `hyps ∧ ¬goal` is satisfiable in the standard interpretation,
//! and every standard model is a model of the solver's theory, so any
//! other query the model also witnesses could only be answered Sat or
//! Unknown — "not valid". Unknown never counts as true or false, so a
//! model that does not determine a query refutes nothing.
//!
//! A pool lives for one κ-headed constraint check. Models of an earlier
//! check satisfy every candidate that survived it, so they cannot refute
//! one; the pool is dropped with the check.

use rsc_logic::{eval_pred, FxHashMap, Interp, Pred, Sort, Sym, Value};

use crate::euf::Euf;
use crate::lia;
use crate::node::{Arena, ConstKind, Node, NodeId};

/// A concrete model lifted from one refuting query (module docs).
#[derive(Clone, Debug, Default)]
pub struct Model {
    vars: FxHashMap<Sym, Value>,
    apps: FxHashMap<Sym, FxHashMap<Vec<Value>, Value>>,
    /// `field$f` tables, keyed by the field name `f`.
    fields: FxHashMap<Sym, FxHashMap<Value, Value>>,
}

impl Interp for Model {
    fn var(&self, x: &Sym) -> Option<&Value> {
        self.vars.get(x)
    }

    fn app(&self, f: &Sym, args: &[Value]) -> Option<&Value> {
        self.apps.get(f)?.get(args)
    }

    fn field(&self, base: &Value, f: &Sym) -> Option<&Value> {
        self.fields.get(f)?.get(base)
    }
}

/// Inserts `key ↦ value`; false when `key` already maps elsewhere.
fn insert_fn<K: std::hash::Hash + Eq>(
    table: &mut FxHashMap<K, Value>,
    key: K,
    value: Value,
) -> bool {
    match table.entry(key) {
        std::collections::hash_map::Entry::Occupied(e) => *e.get() == value,
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(value);
            true
        }
    }
}

impl Model {
    /// Lifts the model of a consistent theory round over `nodes` (the
    /// query scope, ascending and closed under subterms) from its
    /// congruence classes and integer model `ints`. `None` when a table
    /// is not a function or a fresh value would leave i128.
    pub(crate) fn lift(
        arena: &Arena,
        nodes: &[NodeId],
        euf: &mut Euf,
        ints: &lia::Model,
    ) -> Option<Model> {
        // Fresh values for integer classes no row mentions start above
        // every value in use.
        let fresh_base = ints
            .values()
            .copied()
            .chain(nodes.iter().filter_map(|&n| match arena.node(n) {
                Node::IntConst(c) => Some(i128::from(*c)),
                _ => None,
            }))
            .try_fold(0i128, |m, v| Some(m.max(v.checked_abs()?)))?
            .checked_add(1)?;
        let mut free: FxHashMap<NodeId, i128> = FxHashMap::default();
        let mut values: Vec<Option<Value>> = Vec::with_capacity(nodes.len());
        for &n in nodes {
            let rep = euf.find(n);
            let constant = arena.const_kind(rep);
            values.push(match arena.sort(n) {
                Sort::Int => Some(Value::Int(match constant {
                    Some(ConstKind::Int(c)) => i128::from(c),
                    _ => match ints.get(&rep.0) {
                        Some(&v) => v,
                        None => {
                            let fresh = fresh_base.checked_add(free.len() as i128)?;
                            *free.entry(rep).or_insert(fresh)
                        }
                    },
                })),
                Sort::Bool => match constant {
                    Some(ConstKind::Bool(b)) => Some(Value::Bool(b)),
                    _ => None,
                },
                Sort::Str => Some(match constant {
                    Some(ConstKind::Str(s)) => Value::Str(s),
                    _ => Value::AbsStr(rep.0),
                }),
                Sort::Ref => Some(Value::Ref(rep.0)),
                Sort::Bv32 => None,
            });
        }
        let value_of = |n: NodeId| nodes.binary_search(&n).ok().and_then(|i| values[i].clone());
        let mut model = Model::default();
        for (&n, value) in nodes.iter().zip(&values) {
            let Some(value) = value.clone() else {
                continue;
            };
            let consistent = match arena.node(n) {
                Node::Var(x, _) => insert_fn(&mut model.vars, *x, value),
                Node::App(f, args, _) if !matches!(f.as_str(), "mul" | "div" | "mod") => {
                    let Some(argv) = args
                        .iter()
                        .map(|&a| value_of(a))
                        .collect::<Option<Vec<_>>>()
                    else {
                        continue;
                    };
                    match (f.as_str().strip_prefix("field$"), &argv[..]) {
                        (Some(fld), [base]) => insert_fn(
                            model.fields.entry(Sym::from(fld)).or_default(),
                            base.clone(),
                            value,
                        ),
                        _ => insert_fn(model.apps.entry(*f).or_default(), argv, value),
                    }
                }
                _ => true,
            };
            if !consistent {
                return None;
            }
        }
        Some(model)
    }

    /// True when the model makes every hypothesis true and `goal` false:
    /// a concrete witness that `hyps ⇒ goal` is not valid.
    pub fn refutes(&self, hyps: &[Pred], goal: &Pred) -> bool {
        eval_pred(goal, self) == Some(false)
            && hyps.iter().all(|h| eval_pred(h, self) == Some(true))
    }
}

/// The checked models of one κ-headed constraint check (module docs).
///
/// The caller names each hypothesis list by an id that stays fixed for
/// the pool's life (in the fixpoint: the check's `HypGroup` index), so
/// each list is evaluated at most once per model.
#[derive(Debug, Default)]
pub struct ModelPool {
    models: Vec<Model>,
    /// Per model: whether each list it was evaluated on holds, by id.
    holds: Vec<FxHashMap<usize, bool>>,
}

impl ModelPool {
    /// An empty pool.
    pub fn new() -> Self {
        ModelPool::default()
    }

    /// True when some pooled model makes every hypothesis of list `list`
    /// true and `goal` false.
    pub fn refutes(&mut self, list: usize, hyps: &[Pred], goal: &Pred) -> bool {
        self.models.iter().zip(&mut self.holds).any(|(m, holds)| {
            eval_pred(goal, m) == Some(false)
                && *holds
                    .entry(list)
                    .or_insert_with(|| hyps.iter().all(|h| eval_pred(h, m) == Some(true)))
        })
    }

    /// Pools `model` if it refutes its own query (`hyps` is list `list`);
    /// returns whether it was pooled.
    pub fn admit(&mut self, model: Model, list: usize, hyps: &[Pred], goal: &Pred) -> bool {
        if !model.refutes(hyps, goal) {
            return false;
        }
        self.models.push(model);
        self.holds.push(FxHashMap::from_iter([(list, true)]));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_logic::{CmpOp, Term};

    fn le(a: Term, b: Term) -> Pred {
        Pred::cmp(CmpOp::Le, a, b)
    }

    fn int_var(arena: &mut Arena, x: &str) -> NodeId {
        arena.intern(Node::Var(Sym::from(x), Sort::Int))
    }

    #[test]
    fn lift_reads_classes_constants_and_integer_values() {
        let mut arena = Arena::new();
        let t = arena.intern(Node::True);
        let x = int_var(&mut arena, "x");
        int_var(&mut arena, "y");
        let a = arena.intern(Node::Var(Sym::from("a"), Sort::Ref));
        let b = arena.intern(Node::Var(Sym::from("b"), Sort::Ref));
        let p = arena.intern(Node::Var(Sym::from("p"), Sort::Bool));
        arena.intern(Node::Var(Sym::from("s"), Sort::Str));
        let la = arena.intern(Node::App(Sym::from("len"), vec![a], Sort::Int));
        let five = arena.intern(Node::IntConst(5));
        let mut euf = Euf::new(&arena);
        euf.merge(a, b);
        euf.merge(p, t);
        euf.merge(la, five);
        let ints: lia::Model = [(x.0, 3)].into();
        let nodes: Vec<NodeId> = arena.iter().map(|(id, _)| id).collect();
        let m = Model::lift(&arena, &nodes, &mut euf, &ints).expect("a model");
        assert_eq!(m.var(&Sym::from("x")), Some(&Value::Int(3)));
        // `y` is in no row: a fresh value above everything in use.
        assert_eq!(m.var(&Sym::from("y")), Some(&Value::Int(6)));
        assert_eq!(m.var(&Sym::from("a")), m.var(&Sym::from("b")));
        assert_eq!(m.var(&Sym::from("p")), Some(&Value::Bool(true)));
        assert!(matches!(m.var(&Sym::from("s")), Some(Value::AbsStr(_))));
        let len_b = Term::len_of(Term::var("b"));
        assert_eq!(
            rsc_logic::eval_term(&len_b, &m),
            Some(Value::Int(5)),
            "congruent applications share one table entry"
        );
    }

    /// Two applications with equal argument values and different results
    /// make the table a non-function: no model.
    #[test]
    fn a_table_that_is_not_a_function_is_rejected() {
        let mut arena = Arena::new();
        let x = int_var(&mut arena, "x");
        let y = int_var(&mut arena, "y");
        let fx = arena.intern(Node::App(Sym::from("f"), vec![x], Sort::Int));
        let fy = arena.intern(Node::App(Sym::from("f"), vec![y], Sort::Int));
        let mut euf = Euf::new(&arena);
        let nodes: Vec<NodeId> = arena.iter().map(|(id, _)| id).collect();
        let clash: lia::Model = [(x.0, 1), (y.0, 1), (fx.0, 2), (fy.0, 3)].into();
        assert!(Model::lift(&arena, &nodes, &mut euf, &clash).is_none());
        let agree: lia::Model = [(x.0, 1), (y.0, 1), (fx.0, 2), (fy.0, 2)].into();
        assert!(Model::lift(&arena, &nodes, &mut euf, &agree).is_some());
    }

    #[test]
    fn pool_admits_only_models_of_their_own_query() {
        let mut m = Model::default();
        m.vars.insert(Sym::from("x"), Value::Int(5));
        let x_le = |k| le(Term::var("x"), Term::int(k));
        let hyps = [le(Term::int(0), Term::var("x"))];
        let mut pool = ModelPool::new();
        // The goal holds under the model: not a counterexample.
        assert!(!pool.admit(m.clone(), 0, &hyps, &x_le(9)));
        // A hypothesis is unknown under the model: not a counterexample.
        let unknown = [le(Term::int(0), Term::var("z"))];
        assert!(!pool.admit(m.clone(), 0, &unknown, &x_le(3)));
        assert!(!pool.refutes(0, &hyps, &x_le(4)), "nothing pooled yet");
        assert!(pool.admit(m, 0, &hyps, &x_le(3)));
        // A sibling goal the model falsifies is refuted; one it satisfies
        // or cannot decide is not.
        assert!(pool.refutes(0, &hyps, &x_le(4)));
        assert!(!pool.refutes(0, &hyps, &x_le(5)));
        assert!(!pool.refutes(0, &hyps, &le(Term::var("z"), Term::int(4))));
        // A list whose hypotheses the model breaks refutes nothing.
        assert!(!pool.refutes(1, &[x_le(0)], &x_le(4)));
    }
}
