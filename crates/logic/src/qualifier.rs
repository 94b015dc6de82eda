use std::fmt;

use crate::{CmpOp, Pred, Sort, Subst, Sym, Term};

/// A logical qualifier: a predicate template over the value variable `v`
/// and placeholder parameters, used by Liquid inference to build candidate
/// refinements (§2.2.1; "simple terms that have been predefined in a
/// prelude").
///
/// Instantiation replaces each parameter with an in-scope program variable
/// of a matching sort. For example the qualifier `v < len(★a)` with
/// `★a : ref` instantiates to `v < len(a)` for every reference `a` in
/// scope — which is how rsc discovers `idx<a>` in the `minIndex` example.
#[derive(Clone, Debug, Hash)]
pub struct Qualifier {
    /// Name for diagnostics.
    pub name: String,
    /// The sort of the value variable this qualifier refines.
    pub vv_sort: Sort,
    /// Placeholder parameters and the sorts they range over.
    pub params: Vec<(Sym, Sort)>,
    /// The body, over `v` and the parameters.
    pub body: Pred,
}

impl Qualifier {
    /// Creates a qualifier.
    pub fn new(
        name: impl Into<String>,
        vv_sort: Sort,
        params: Vec<(Sym, Sort)>,
        body: Pred,
    ) -> Self {
        Qualifier {
            name: name.into(),
            vv_sort,
            params,
            body,
        }
    }

    /// Enumerates all instantiations of this qualifier over the given scope
    /// (variables with sorts). Parameters are replaced by scope variables of
    /// matching sort; distinct parameters may map to the same variable.
    pub fn instantiate(&self, scope: &[(Sym, Sort)]) -> Vec<Pred> {
        let mut out = Vec::new();
        let mut choice: Vec<usize> = Vec::new();
        self.enumerate(scope, &mut choice, &mut out);
        out
    }

    fn enumerate(&self, scope: &[(Sym, Sort)], choice: &mut Vec<usize>, out: &mut Vec<Pred>) {
        if choice.len() == self.params.len() {
            let mut subst = Subst::new();
            for (i, &c) in choice.iter().enumerate() {
                subst.push(self.params[i].0.clone(), Term::var(scope[c].0.clone()));
            }
            out.push(subst.apply_pred(&self.body));
            return;
        }
        let want = self.params[choice.len()].1;
        for (i, (_, s)) in scope.iter().enumerate() {
            if *s == want {
                choice.push(i);
                self.enumerate(scope, choice, out);
                choice.pop();
            }
        }
    }
}

impl fmt::Display for Qualifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "qualif {}(", self.name)?;
        for (i, (x, s)) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x}: {s}")?;
        }
        write!(f, "): {}", self.body)
    }
}

/// The default qualifier prelude used by the checker, mirroring the
/// prelude the paper's tool ships with: sign bounds, bounds against other
/// variables, and array-length bounds.
pub fn prelude_qualifiers() -> Vec<Qualifier> {
    let v = Term::vv;
    let p = || Term::var("★p");
    let a = || Term::var("★a");
    let mut qs = vec![
        Qualifier::new(
            "Nat",
            Sort::Int,
            vec![],
            Pred::cmp(CmpOp::Le, Term::int(0), v()),
        ),
        Qualifier::new(
            "Pos",
            Sort::Int,
            vec![],
            Pred::cmp(CmpOp::Lt, Term::int(0), v()),
        ),
        Qualifier::new(
            "One",
            Sort::Int,
            vec![],
            Pred::cmp(CmpOp::Le, Term::int(1), v()),
        ),
    ];
    for (name, op) in [
        ("EqVar", CmpOp::Eq),
        ("LtVar", CmpOp::Lt),
        ("LeVar", CmpOp::Le),
        ("GtVar", CmpOp::Gt),
        ("GeVar", CmpOp::Ge),
    ] {
        qs.push(Qualifier::new(
            name,
            Sort::Int,
            vec![(Sym::from("★p"), Sort::Int)],
            Pred::cmp(op, v(), p()),
        ));
    }
    for (name, op) in [
        ("LtLen", CmpOp::Lt),
        ("LeLen", CmpOp::Le),
        ("EqLen", CmpOp::Eq),
    ] {
        qs.push(Qualifier::new(
            name,
            Sort::Int,
            vec![(Sym::from("★a"), Sort::Ref)],
            Pred::cmp(op, v(), Term::len_of(a())),
        ));
    }
    for (name, op) in [("LtLenS", CmpOp::Lt), ("LeLenS", CmpOp::Le)] {
        qs.push(Qualifier::new(
            name,
            Sort::Int,
            vec![(Sym::from("★s"), Sort::Str)],
            Pred::cmp(op, v(), Term::len_of(Term::var("★s"))),
        ));
    }
    qs.push(Qualifier::new(
        "NonEmpty",
        Sort::Ref,
        vec![],
        Pred::cmp(CmpOp::Lt, Term::int(0), Term::len_of(v())),
    ));
    qs.push(Qualifier::new(
        "SameLen",
        Sort::Ref,
        vec![(Sym::from("★a"), Sort::Ref)],
        Pred::cmp(CmpOp::Eq, Term::len_of(v()), Term::len_of(a())),
    ));
    qs.push(Qualifier::new(
        "EqRef",
        Sort::Ref,
        vec![(Sym::from("★p"), Sort::Ref)],
        Pred::cmp(CmpOp::Eq, v(), p()),
    ));
    // Reflection-tag qualifiers (§4.2): discriminate union members.
    for tag in [
        "number",
        "string",
        "boolean",
        "undefined",
        "object",
        "function",
    ] {
        qs.push(Qualifier::new(
            format!("Tag_{tag}"),
            Sort::Ref,
            vec![],
            Pred::cmp(CmpOp::Eq, Term::ttag_of(v()), Term::str(tag)),
        ));
    }
    qs.push(Qualifier::new(
        "NotUndef",
        Sort::Ref,
        vec![],
        Pred::cmp(CmpOp::Ne, v(), Term::app("undefv", vec![])),
    ));
    qs.push(Qualifier::new(
        "NotNull",
        Sort::Ref,
        vec![],
        Pred::cmp(CmpOp::Ne, v(), Term::app("nullv", vec![])),
    ));
    qs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instantiation_enumerates_matching_sorts() {
        let q = Qualifier::new(
            "LtLen",
            Sort::Int,
            vec![(Sym::from("★a"), Sort::Ref)],
            Pred::cmp(CmpOp::Lt, Term::vv(), Term::len_of(Term::var("★a"))),
        );
        let scope = vec![
            (Sym::from("a"), Sort::Ref),
            (Sym::from("n"), Sort::Int),
            (Sym::from("b"), Sort::Ref),
        ];
        let insts = q.instantiate(&scope);
        let shown: Vec<String> = insts.iter().map(|p| p.to_string()).collect();
        assert_eq!(shown, vec!["v < len(a)", "v < len(b)"]);
    }

    #[test]
    fn nullary_qualifier_instantiates_once() {
        let q = &prelude_qualifiers()[0];
        assert_eq!(q.instantiate(&[]).len(), 1);
    }

    #[test]
    fn prelude_is_well_sorted() {
        let mut env = crate::SortEnv::new();
        env.declare_fun("nullv", crate::FunSig::Fixed(vec![], Sort::Ref));
        env.declare_fun("undefv", crate::FunSig::Fixed(vec![], Sort::Ref));
        for q in prelude_qualifiers() {
            env.bind("v", q.vv_sort);
            for (x, s) in &q.params {
                env.bind(x.clone(), *s);
            }
            env.check_pred(&q.body)
                .unwrap_or_else(|e| panic!("{}: {e}", q.name));
        }
    }

    #[test]
    fn two_param_enumeration_counts() {
        let q = Qualifier::new(
            "Between",
            Sort::Int,
            vec![(Sym::from("★p"), Sort::Int), (Sym::from("★q"), Sort::Int)],
            Pred::and(vec![
                Pred::cmp(CmpOp::Le, Term::var("★p"), Term::vv()),
                Pred::cmp(CmpOp::Lt, Term::vv(), Term::var("★q")),
            ]),
        );
        let scope = vec![(Sym::from("x"), Sort::Int), (Sym::from("y"), Sort::Int)];
        assert_eq!(q.instantiate(&scope).len(), 4);
    }
}
