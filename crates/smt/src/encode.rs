//! Encoding of [`rsc_logic`] predicates into the solver's internal
//! representation: a propositional [`Formula`] over theory [`AtomData`]s,
//! with terms hash-consed into the [`Arena`].

use rsc_logic::{sort_of_in, BinOp, CmpOp, FxHashMap, Pred, Sort, SortLookup, Sym, Term};

use crate::atom::{AtomData, AtomId, BvTerm, Formula, NLinExp};
use crate::node::{Arena, Node, NodeId};

/// An error during encoding (ill-sorted input, κ-variables, overflow).
/// The driver maps encoding errors to [`crate::SatResult::Unknown`], which
/// the checker treats conservatively.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncodeError(pub String);

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "encode error: {}", self.0)
    }
}

impl std::error::Error for EncodeError {}

/// The error for integer arithmetic that leaves i128 (or, for an
/// interned constant, i64): the query answers Unknown rather than
/// encoding a wrapped constraint.
fn overflow() -> EncodeError {
    EncodeError("integer constant overflow".into())
}

/// Owned encoder state: arena, atom table, and the defining equations of
/// lifted nodes (compound integer expressions in uninterpreted argument
/// position). Separate from the [`Encoder`] view so a persistent
/// incremental context ([`crate::incr`]) can keep the state alive across
/// queries while the (borrowed) sort environment is supplied per call.
pub struct EncoderState {
    /// The term arena.
    pub arena: Arena,
    /// The atom table.
    pub atoms: Vec<AtomData>,
    atom_map: FxHashMap<AtomData, AtomId>,
    /// Defining equations (`e = 0`) asserted in every theory check.
    pub defs: Vec<NLinExp>,
    /// The lifted node each entry of `defs` defines (parallel to `defs`):
    /// lets a scoped theory check select exactly the definitions whose
    /// lifted node is reachable from the query.
    pub def_nodes: Vec<NodeId>,
    lifted_cache: FxHashMap<NLinExp, NodeId>,
    /// The arena node for `true`.
    pub true_node: NodeId,
    /// The arena node for `false`.
    pub false_node: NodeId,
}

impl EncoderState {
    /// Fresh state with interned `true`/`false` nodes.
    pub fn new() -> Self {
        let mut arena = Arena::new();
        let true_node = arena.intern(Node::True);
        let false_node = arena.intern(Node::False);
        EncoderState {
            arena,
            atoms: Vec::new(),
            atom_map: FxHashMap::default(),
            defs: Vec::new(),
            def_nodes: Vec::new(),
            lifted_cache: FxHashMap::default(),
            true_node,
            false_node,
        }
    }
}

impl Default for EncoderState {
    fn default() -> Self {
        EncoderState::new()
    }
}

/// The encoding view: borrowed state plus the sort environment of the
/// current query.
pub struct Encoder<'a> {
    /// Sorts of variables and signatures of uninterpreted functions —
    /// either an owned [`rsc_logic::SortEnv`] or a borrowed
    /// [`rsc_logic::SortScope`] overlay (base env + binder list), so the
    /// VC cache's canonical-binder path never clones an environment.
    pub sort_env: &'a dyn SortLookup,
    /// The mutable encoder state (owned by the caller).
    pub st: &'a mut EncoderState,
}

impl<'a> Encoder<'a> {
    /// Creates an encoder view over the given sort environment and state.
    pub fn over(sort_env: &'a dyn SortLookup, st: &'a mut EncoderState) -> Self {
        Encoder { sort_env, st }
    }

    fn atom(&mut self, a: AtomData) -> AtomId {
        if let Some(&id) = self.st.atom_map.get(&a) {
            return id;
        }
        let id = AtomId(self.st.atoms.len() as u32);
        self.st.atoms.push(a.clone());
        self.st.atom_map.insert(a, id);
        id
    }

    /// Encodes predicate `p` with polarity `pol` (`false` encodes `¬p`),
    /// pushing negations down to atom literals.
    pub fn encode_pred(&mut self, p: &Pred, pol: bool) -> Result<Formula, EncodeError> {
        match p {
            Pred::True => Ok(Formula::Const(pol)),
            Pred::False => Ok(Formula::Const(!pol)),
            Pred::And(ps) => {
                let fs = ps
                    .iter()
                    .map(|q| self.encode_pred(q, pol))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(if pol {
                    Formula::And(fs)
                } else {
                    Formula::Or(fs)
                })
            }
            Pred::Or(ps) => {
                let fs = ps
                    .iter()
                    .map(|q| self.encode_pred(q, pol))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(if pol {
                    Formula::Or(fs)
                } else {
                    Formula::And(fs)
                })
            }
            Pred::Not(q) => self.encode_pred(q, !pol),
            Pred::Imp(a, b) => {
                if pol {
                    let na = self.encode_pred(a, false)?;
                    let fb = self.encode_pred(b, true)?;
                    Ok(Formula::Or(vec![na, fb]))
                } else {
                    let fa = self.encode_pred(a, true)?;
                    let nb = self.encode_pred(b, false)?;
                    Ok(Formula::And(vec![fa, nb]))
                }
            }
            Pred::Iff(a, b) => {
                let fa = self.encode_pred(a, true)?;
                let na = self.encode_pred(a, false)?;
                let fb = self.encode_pred(b, true)?;
                let nb = self.encode_pred(b, false)?;
                if pol {
                    Ok(Formula::And(vec![
                        Formula::Or(vec![na.clone(), fb.clone()]),
                        Formula::Or(vec![nb, fa]),
                    ]))
                } else {
                    Ok(Formula::Or(vec![
                        Formula::And(vec![fa, nb]),
                        Formula::And(vec![fb, na]),
                    ]))
                }
            }
            Pred::Cmp(op, a, b) => self.encode_cmp(*op, a, b, pol),
            Pred::App(f, args) => {
                let nargs = args
                    .iter()
                    .map(|t| self.node_of(t))
                    .collect::<Result<Vec<_>, _>>()?;
                let n = self.st.arena.intern(Node::App(*f, nargs, Sort::Bool));
                let id = self.atom(AtomData::BoolNode(n));
                Ok(Formula::Lit(id, pol))
            }
            Pred::TermPred(t) => self.bool_formula(t, pol),
            Pred::KVar(k, _) => Err(EncodeError(format!(
                "κ-variable {k} in a concrete verification condition"
            ))),
        }
    }

    fn encode_cmp(
        &mut self,
        op: CmpOp,
        a: &Term,
        b: &Term,
        pol: bool,
    ) -> Result<Formula, EncodeError> {
        let sa = sort_of_in(self.sort_env, a).map_err(|e| EncodeError(e.to_string()))?;
        let sb = sort_of_in(self.sort_env, b).map_err(|e| EncodeError(e.to_string()))?;
        if sa != sb {
            return Err(EncodeError(format!(
                "comparison between sorts {sa} and {sb}: {a} {} {b}",
                op.symbol()
            )));
        }
        match sa {
            Sort::Int => {
                let la = self.lin(a)?;
                let lb = self.lin(b)?;
                let d = la.sub(&lb).ok_or_else(overflow)?;
                let atom_le = |enc: &mut Self, mut e: NLinExp, strict: bool| {
                    if strict {
                        e.konst = e.konst.checked_add(1).ok_or_else(overflow)?;
                    }
                    Ok(if e.is_const() {
                        Formula::Const(e.konst <= 0)
                    } else {
                        let id = enc.atom(AtomData::LinLe(e));
                        Formula::Lit(id, true)
                    })
                };
                let lit = |f: Formula, pol: bool| match (f, pol) {
                    (Formula::Const(c), p) => Formula::Const(c == p),
                    (Formula::Lit(i, q), p) => Formula::Lit(i, q == p),
                    _ => unreachable!(),
                };
                let neg = |d: &NLinExp| d.scale(-1).ok_or_else(overflow);
                match op {
                    CmpOp::Le => Ok(lit(atom_le(self, d, false)?, pol)),
                    CmpOp::Lt => Ok(lit(atom_le(self, d, true)?, pol)),
                    CmpOp::Ge => Ok(lit(atom_le(self, neg(&d)?, false)?, pol)),
                    CmpOp::Gt => Ok(lit(atom_le(self, neg(&d)?, true)?, pol)),
                    CmpOp::Eq | CmpOp::Ne => {
                        if d.is_const() {
                            let truth = d.konst == 0;
                            let want_eq = op == CmpOp::Eq;
                            return Ok(Formula::Const((truth == want_eq) == pol));
                        }
                        let pair = match (la.as_single_node(), lb.as_single_node()) {
                            (Some(x), Some(y)) => Some((x.min(y), x.max(y))),
                            _ => None,
                        };
                        let id = self.atom(AtomData::IntEq(d, pair));
                        Ok(Formula::Lit(id, (op == CmpOp::Eq) == pol))
                    }
                }
            }
            Sort::Bool => {
                let fa = self.bool_formula(a, true)?;
                let na = self.bool_formula(a, false)?;
                let fb = self.bool_formula(b, true)?;
                let nb = self.bool_formula(b, false)?;
                let want_eq = match op {
                    CmpOp::Eq => true,
                    CmpOp::Ne => false,
                    _ => {
                        return Err(EncodeError(format!(
                            "ordering on booleans: {a} {} {b}",
                            op.symbol()
                        )))
                    }
                };
                let iff_pol = want_eq == pol;
                if iff_pol {
                    Ok(Formula::And(vec![
                        Formula::Or(vec![na, fb]),
                        Formula::Or(vec![nb, fa]),
                    ]))
                } else {
                    Ok(Formula::Or(vec![
                        Formula::And(vec![fa, nb]),
                        Formula::And(vec![fb, na]),
                    ]))
                }
            }
            Sort::Str | Sort::Ref => {
                let want_eq = match op {
                    CmpOp::Eq => true,
                    CmpOp::Ne => false,
                    _ => {
                        return Err(EncodeError(format!(
                            "ordering on sort {sa}: {a} {} {b}",
                            op.symbol()
                        )))
                    }
                };
                let na = self.node_of(a)?;
                let nb = self.node_of(b)?;
                if na == nb {
                    return Ok(Formula::Const(want_eq == pol));
                }
                let (x, y) = (na.min(nb), na.max(nb));
                let id = self.atom(AtomData::EufEq(x, y));
                Ok(Formula::Lit(id, want_eq == pol))
            }
            Sort::Bv32 => {
                let want_eq = match op {
                    CmpOp::Eq => true,
                    CmpOp::Ne => false,
                    _ => {
                        return Err(EncodeError(format!(
                            "ordering on bit-vectors: {a} {} {b}",
                            op.symbol()
                        )))
                    }
                };
                let ba = self.bvterm(a)?;
                let bb = self.bvterm(b)?;
                let id = self.atom(AtomData::BvEq(ba, bb));
                Ok(Formula::Lit(id, want_eq == pol))
            }
        }
    }

    fn bool_formula(&mut self, t: &Term, pol: bool) -> Result<Formula, EncodeError> {
        match t {
            Term::BoolLit(b) => Ok(Formula::Const(*b == pol)),
            _ => {
                let s = sort_of_in(self.sort_env, t).map_err(|e| EncodeError(e.to_string()))?;
                if s != Sort::Bool {
                    return Err(EncodeError(format!("truthiness of non-boolean term {t}")));
                }
                let n = self.node_of(t)?;
                let id = self.atom(AtomData::BoolNode(n));
                Ok(Formula::Lit(id, pol))
            }
        }
    }

    /// A linear expression over arena nodes for an integer-sorted term.
    pub fn lin(&mut self, t: &Term) -> Result<NLinExp, EncodeError> {
        match t {
            Term::IntLit(n) => Ok(NLinExp::konst(*n as i128)),
            Term::Var(_) | Term::Field(..) | Term::App(..) => {
                let n = self.node_of(t)?;
                Ok(NLinExp::var(n))
            }
            Term::Neg(a) => self.lin(a)?.scale(-1).ok_or_else(overflow),
            Term::Bin(op, a, b) => {
                let la = self.lin(a)?;
                let lb = self.lin(b)?;
                match op {
                    BinOp::Add => la.add(&lb).ok_or_else(overflow),
                    BinOp::Sub => la.sub(&lb).ok_or_else(overflow),
                    BinOp::Mul => {
                        if la.is_const() {
                            lb.scale(la.konst).ok_or_else(overflow)
                        } else if lb.is_const() {
                            la.scale(lb.konst).ok_or_else(overflow)
                        } else {
                            // Nonlinear: uninterpreted `mul`, commutatively
                            // normalized.
                            let na = self.node_of_lin(la)?;
                            let nb = self.node_of_lin(lb)?;
                            let (x, y) = (na.min(nb), na.max(nb));
                            let n = self.st.arena.intern(Node::App(
                                Sym::from("mul"),
                                vec![x, y],
                                Sort::Int,
                            ));
                            Ok(NLinExp::var(n))
                        }
                    }
                    BinOp::Div | BinOp::Mod => {
                        if la.is_const() && lb.is_const() && lb.konst != 0 {
                            let v = if *op == BinOp::Div {
                                la.konst.checked_div(lb.konst)
                            } else {
                                la.konst.checked_rem(lb.konst)
                            };
                            return v.map(NLinExp::konst).ok_or_else(overflow);
                        }
                        let na = self.node_of_lin(la)?;
                        let nb = self.node_of_lin(lb)?;
                        let f = if *op == BinOp::Div { "div" } else { "mod" };
                        let n =
                            self.st
                                .arena
                                .intern(Node::App(Sym::from(f), vec![na, nb], Sort::Int));
                        Ok(NLinExp::var(n))
                    }
                    BinOp::BvAnd | BinOp::BvOr => Err(EncodeError(format!(
                        "bit-vector operation {t} in integer position"
                    ))),
                }
            }
            _ => Err(EncodeError(format!("non-integer term {t} in arithmetic"))),
        }
    }

    /// An arena node representing a whole linear expression: the node
    /// itself for single-node expressions, an interned constant, or a fresh
    /// lifted node with a defining equation.
    pub fn node_of_lin(&mut self, l: NLinExp) -> Result<NodeId, EncodeError> {
        if let Some(n) = l.as_single_node() {
            return Ok(n);
        }
        if l.is_const() {
            let v = i64::try_from(l.konst).map_err(|_| overflow())?;
            return Ok(self.st.arena.intern(Node::IntConst(v)));
        }
        // Structurally identical expressions share a lifted node so that
        // congruence over nonlinear terms (e.g. `mul`) works directly.
        if let Some(&n) = self.st.lifted_cache.get(&l) {
            return Ok(n);
        }
        let fresh = self.st.arena.fresh_lifted();
        let mut def = l.clone();
        def.add_term(fresh, -1).ok_or_else(overflow)?;
        self.st.defs.push(def);
        self.st.def_nodes.push(fresh);
        self.st.lifted_cache.insert(l, fresh);
        Ok(fresh)
    }

    /// The arena node of a term of any sort (integers are lifted).
    pub fn node_of(&mut self, t: &Term) -> Result<NodeId, EncodeError> {
        let s = sort_of_in(self.sort_env, t).map_err(|e| EncodeError(e.to_string()))?;
        match t {
            Term::Var(x) => Ok(self.st.arena.intern(Node::Var(*x, s))),
            Term::IntLit(n) => Ok(self.st.arena.intern(Node::IntConst(*n))),
            Term::BoolLit(b) => Ok(if *b {
                self.st.true_node
            } else {
                self.st.false_node
            }),
            Term::StrLit(x) => Ok(self.st.arena.intern(Node::StrConst(*x))),
            Term::BvLit(_) => Err(EncodeError(format!(
                "bit-vector literal {t} in uninterpreted position"
            ))),
            Term::Field(base, fld) => {
                let nb = self.node_of(base)?;
                Ok(self
                    .st
                    .arena
                    .intern(Node::App(Sym::from(format!("field${fld}")), vec![nb], s)))
            }
            Term::App(f, args) => {
                let nargs = args
                    .iter()
                    .map(|x| self.node_of(x))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(self.st.arena.intern(Node::App(*f, nargs, s)))
            }
            Term::Bin(..) | Term::Neg(..) => {
                if s == Sort::Int {
                    let l = self.lin(t)?;
                    self.node_of_lin(l)
                } else {
                    Err(EncodeError(format!(
                        "compound term {t} of sort {s} in uninterpreted position"
                    )))
                }
            }
        }
    }

    fn bvterm(&mut self, t: &Term) -> Result<BvTerm, EncodeError> {
        match t {
            Term::BvLit(c) => Ok(BvTerm::Const(*c)),
            Term::Var(_) | Term::Field(..) | Term::App(..) => {
                let n = self.node_of(t)?;
                Ok(BvTerm::Node(n))
            }
            Term::Bin(BinOp::BvAnd, a, b) => Ok(BvTerm::And(
                Box::new(self.bvterm(a)?),
                Box::new(self.bvterm(b)?),
            )),
            Term::Bin(BinOp::BvOr, a, b) => Ok(BvTerm::Or(
                Box::new(self.bvterm(a)?),
                Box::new(self.bvterm(b)?),
            )),
            _ => Err(EncodeError(format!("not a bit-vector term: {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_logic::SortEnv;

    fn env() -> SortEnv {
        let mut e = SortEnv::new();
        e.bind("x", Sort::Int);
        e.bind("y", Sort::Int);
        e.bind("a", Sort::Ref);
        e.bind("v", Sort::Int);
        e
    }

    #[test]
    fn lin_flattening() {
        let env = env();
        let mut st = EncoderState::new();
        let mut enc = Encoder::over(&env, &mut st);
        // 2*x + len(a) - 3
        let t = Term::sub(
            Term::add(
                Term::mul(Term::int(2), Term::var("x")),
                Term::len_of(Term::var("a")),
            ),
            Term::int(3),
        );
        let l = enc.lin(&t).unwrap();
        assert_eq!(l.konst, -3);
        assert_eq!(l.coeffs.len(), 2);
    }

    #[test]
    fn nonlinear_becomes_uninterpreted() {
        let env = env();
        let mut st = EncoderState::new();
        let mut enc = Encoder::over(&env, &mut st);
        let t1 = Term::mul(Term::var("x"), Term::var("y"));
        let t2 = Term::mul(Term::var("y"), Term::var("x"));
        let l1 = enc.lin(&t1).unwrap();
        let l2 = enc.lin(&t2).unwrap();
        // Commutative normalization: same node.
        assert_eq!(l1, l2);
    }

    #[test]
    fn kvar_rejected() {
        let env = env();
        let mut st = EncoderState::new();
        let mut enc = Encoder::over(&env, &mut st);
        let p = Pred::KVar(rsc_logic::KVarId(0), rsc_logic::Subst::new());
        assert!(enc.encode_pred(&p, true).is_err());
    }

    #[test]
    fn trivial_cmp_folds() {
        let env = env();
        let mut st = EncoderState::new();
        let mut enc = Encoder::over(&env, &mut st);
        let p = Pred::Cmp(CmpOp::Le, Term::var("x"), Term::var("x"));
        let f = enc.encode_pred(&p, true).unwrap().simplify();
        assert_eq!(f, Formula::Const(true));
    }

    #[test]
    fn overflow_is_an_encode_error() {
        let env = env();
        let mut st = EncoderState::new();
        let mut enc = Encoder::over(&env, &mut st);
        // 9e18³·x leaves i128: an error (Unknown for the query), never a
        // wrapped coefficient.
        let big = Term::int(9_000_000_000_000_000_000);
        let t = Term::mul(
            Term::mul(Term::mul(big.clone(), big.clone()), big),
            Term::var("x"),
        );
        assert!(enc.lin(&t).is_err());
        let p = Pred::cmp(CmpOp::Lt, t, Term::int(0));
        assert!(enc.encode_pred(&p, true).is_err());
    }

    #[test]
    fn lifted_node_defs() {
        let env = env();
        let mut st = EncoderState::new();
        let mut enc = Encoder::over(&env, &mut st);
        // len applied to... an int term is ill-sorted; use mul(x+1, y) to
        // force lifting of x+1.
        let t = Term::mul(Term::add(Term::var("x"), Term::int(1)), Term::var("y"));
        enc.lin(&t).unwrap();
        assert_eq!(enc.st.defs.len(), 1);
    }
}
