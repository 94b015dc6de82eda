//! The DPLL(T) driver: lazy SMT by CDCL search under assumptions, with
//! theory-conflict blocking clauses, over a persistent context.
//!
//! Every satisfiability query the crate answers runs through
//! [`IncrContext::query`] (or [`IncrContext::query_conj`]), the one
//! DPLL(T) loop: the SAT core proposes an assignment of the query's
//! atoms, the theory combination ([`crate::theory`]) checks it, and a
//! conflict becomes a blocking clause over a minimized core, until the
//! assignment is theory-consistent (Sat), the clauses are refuted
//! (Unsat) or [`MAX_ROUNDS`] rounds pass (Unknown).
//!
//! The Liquid fixpoint keeps one context alive per κ-headed constraint
//! and re-validates each candidate qualifier in it on every weakening
//! iteration; [`crate::Solver::is_valid`] and [`crate::Solver::is_sat`]
//! solve on a one-shot context that lives for one query. A context keeps
//! one SAT instance, one term arena and one atom table:
//!
//! - Every hypothesis conjunct and every goal is encoded **once**, the
//!   first time it appears, under an *activation literal* `a` with the
//!   clause `¬a ∨ root(p)`. Asserting the item in a later query is just
//!   assuming `a` ([`crate::sat::SatSolver::solve_under`]); a dropped
//!   item's clauses stay behind, inert, because Tseitin definitions are
//!   bidirectional and fully define their fresh variables.
//! - Learnt clauses and theory blocking clauses are retained across
//!   queries: both are implied by the clause database alone (blocking
//!   clauses state theory-valid facts about atoms whose meaning never
//!   changes), so each query starts where the last one left off.
//! - Theory checks are *scoped* ([`crate::theory::check_scoped`]): only
//!   the atoms of the current query are assigned, only the defining
//!   equations reachable from it are passed, and the heuristic arena
//!   sweeps are restricted to the query's subterm closure, so unrelated
//!   queries sharing the context can neither consume bounded probe
//!   budgets nor surface in each other's conflicts.
//! - A Sat answer can carry a counterexample model
//!   ([`IncrContext::query`]): the final theory round's
//!   congruence classes and checked integer model over the query scope,
//!   lifted into a [`Model`]. [`crate::Solver::is_valid_ctx`] checks it
//!   against the query and pools it for the rest of the constraint
//!   check, where it can refute sibling candidates without a query
//!   ([`crate::model`]). Lifting only reads the round's state, so the
//!   search, the retained clauses and every counter are unchanged.
//!
//! # Context-per-constraint invariants
//!
//! A context must only be reused across queries that share one sort
//! environment (in the fixpoint: one constraint's binder scope layered
//! over the program environment). Item identity is the `(Pred, polarity)`
//! pair; the caller must not reuse a context across scopes where the
//! same predicate text means different sorts. Verdicts are `Unsat` only
//! when the clause database plus assumptions is refuted — activation
//! implications, Tseitin definitions and retained blocking clauses are
//! all consequences of the asserted items' theory semantics, so an
//! `Unsat` here is an `Unsat` of the original conjunction.

use std::collections::BTreeSet;

use rsc_logic::{FxHashMap, Pred, SortLookup};

use crate::atom::{AtomData, AtomId, Formula, NLinExp};
use crate::bv::Blaster;
use crate::cnf::tseitin;
use crate::encode::{Encoder, EncoderState};
use crate::model::Model;
use crate::node::{Node, NodeId};
use crate::sat::{Lit, SatOutcome, SatSolver};
use crate::solver::{SatResult, SolverStats};
use crate::theory::{self, TheoryVerdict};

/// The DPLL(T) round cap per query. A query whose `sat_rounds` reach this
/// bound was answered `Unknown` by resource exhaustion, not by proof.
pub const MAX_ROUNDS: u64 = 600;

/// How one encoded item participates in queries.
///
/// Atom lists are shared (`Arc`): the hot path clones the slot on every
/// query of every item, and the list is immutable after encoding.
#[derive(Clone, Debug)]
enum Slot {
    /// Assume `lit` to assert the item; `atoms` are the theory atoms it
    /// references (for scoping the theory check).
    Active {
        lit: Lit,
        atoms: std::sync::Arc<[AtomId]>,
    },
    /// The item simplified to `true`; it asserts nothing, but its atoms
    /// (interned before folding) still join the query scope.
    Tautology { atoms: std::sync::Arc<[AtomId]> },
    /// The item simplified to `false`: any query asserting it is Unsat.
    Contradiction,
    /// The item failed to encode: any query asserting it is Unknown.
    Poisoned,
}

/// A persistent incremental solving context (one per constraint).
pub struct IncrContext {
    sat: SatSolver,
    st: EncoderState,
    blaster: Blaster,
    /// SAT literal of each atom in `st.atoms` (parallel).
    atom_lits: Vec<Lit>,
    /// Encoded items, keyed by predicate; the two cells are the slots
    /// for the encoding polarities (index `pol as usize` — hypotheses
    /// use `true`; goals are refuted, so they use `false`). Keying by
    /// predicate alone lets the hot lookup borrow the caller's `&Pred`
    /// instead of cloning one per query item.
    items: FxHashMap<Pred, [Option<Slot>; 2]>,
}

impl IncrContext {
    /// An empty context.
    pub fn new() -> Self {
        IncrContext {
            sat: SatSolver::new(),
            st: EncoderState::new(),
            blaster: Blaster::new(),
            atom_lits: Vec::new(),
            items: FxHashMap::default(),
        }
    }

    /// Allocates SAT literals for atoms interned since the last call.
    fn extend_atom_lits(&mut self) {
        while self.atom_lits.len() < self.st.atoms.len() {
            let i = self.atom_lits.len();
            let lit = match self.st.atoms[i].clone() {
                AtomData::BvEq(x, y) => self.blaster.eq_lit(&x, &y, &mut self.sat),
                _ => Lit::pos(self.sat.new_var()),
            };
            self.atom_lits.push(lit);
        }
    }

    /// Atoms referenced by a simplified formula, in first-occurrence
    /// traversal order.
    fn formula_atoms(f: &Formula, out: &mut Vec<AtomId>, seen: &mut BTreeSet<u32>) {
        match f {
            Formula::Const(_) => {}
            Formula::Lit(a, _) => {
                if seen.insert(a.0) {
                    out.push(*a);
                }
            }
            Formula::And(fs) | Formula::Or(fs) => {
                for g in fs {
                    Self::formula_atoms(g, out, seen);
                }
            }
        }
    }

    /// Encodes `(pred, pol)` into the context if not already present and
    /// returns its slot.
    fn item(&mut self, env: &dyn SortLookup, pred: &Pred, pol: bool) -> Slot {
        if let Some(Some(slot)) = self.items.get(pred).map(|s| &s[pol as usize]) {
            return slot.clone();
        }
        let atoms_before = self.st.atoms.len() as u32;
        let mut enc = Encoder::over(env, &mut self.st);
        let slot = match enc.encode_pred(pred, pol) {
            Err(_) => Slot::Poisoned,
            Ok(f) => {
                let f = f.simplify();
                // Atoms of the item: those its formula references plus any
                // interned during encoding but folded away (they get model
                // polarities and join the theory check all the same).
                let mut atoms = Vec::new();
                let mut seen = BTreeSet::new();
                Self::formula_atoms(&f, &mut atoms, &mut seen);
                for i in atoms_before..self.st.atoms.len() as u32 {
                    if seen.insert(i) {
                        atoms.push(AtomId(i));
                    }
                }
                // Every atom of the item needs its literal now, folded
                // ones included: a query reads the SAT model of all its
                // atoms, and a tautology may be the last item it encodes.
                self.extend_atom_lits();
                match f {
                    Formula::Const(true) => Slot::Tautology {
                        atoms: atoms.into(),
                    },
                    Formula::Const(false) => Slot::Contradiction,
                    g => {
                        let atom_lits = &self.atom_lits;
                        let lookup = |a: AtomId, pol: bool| {
                            let l = atom_lits[a.0 as usize];
                            if pol {
                                l
                            } else {
                                l.negate()
                            }
                        };
                        let root = tseitin(&g, &lookup, &mut self.sat);
                        let a = Lit::pos(self.sat.new_var());
                        self.sat.add_clause(vec![a.negate(), root]);
                        Slot::Active {
                            lit: a,
                            atoms: atoms.into(),
                        }
                    }
                }
            }
        };
        self.items.entry(pred.clone()).or_insert([None, None])[pol as usize] = Some(slot.clone());
        slot
    }

    /// The subterm closure of the query's atoms, together with every
    /// defining equation whose lifted node it reaches (a fixpoint: a
    /// definition's right-hand side joins the closure, which can pull in
    /// further definitions). Returns the sorted scope and the selected
    /// definitions in table order.
    fn scope_and_defs(&self, atoms: &[AtomId]) -> (Vec<NodeId>, Vec<NLinExp>) {
        let mut scope: BTreeSet<NodeId> = BTreeSet::new();
        let mut stack: Vec<NodeId> = Vec::new();
        for &a in atoms {
            match &self.st.atoms[a.0 as usize] {
                AtomData::LinLe(l) => stack.extend(l.vars()),
                AtomData::IntEq(l, pair) => {
                    stack.extend(l.vars());
                    if let Some((x, y)) = pair {
                        stack.push(*x);
                        stack.push(*y);
                    }
                }
                AtomData::EufEq(x, y) => {
                    stack.push(*x);
                    stack.push(*y);
                }
                AtomData::BoolNode(n) => stack.push(*n),
                AtomData::BvEq(..) => {}
            }
        }
        // True/false nodes are always in scope (BoolNode merges them).
        stack.push(self.st.true_node);
        stack.push(self.st.false_node);
        let mut included = vec![false; self.st.defs.len()];
        loop {
            while let Some(n) = stack.pop() {
                if !scope.insert(n) {
                    continue;
                }
                if let Node::App(_, args, _) = self.st.arena.node(n) {
                    stack.extend(args.iter().copied());
                }
            }
            let mut grew = false;
            for (i, dn) in self.st.def_nodes.iter().enumerate() {
                if !included[i] && scope.contains(dn) {
                    included[i] = true;
                    stack.extend(self.st.defs[i].vars());
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        let defs = included
            .iter()
            .enumerate()
            .filter(|(_, inc)| **inc)
            .map(|(i, _)| self.st.defs[i].clone())
            .collect();
        (scope.into_iter().collect(), defs)
    }

    /// Checks satisfiability of `hyps ∧ ¬goal` in this context. `Unsat`
    /// means the implication `hyps ⇒ goal` is valid. Encoding is
    /// incremental, and learnt and blocking clauses persist across
    /// queries.
    ///
    /// A Sat answer also carries the counterexample model lifted from its
    /// final theory round (see [`crate::model`]), unchecked; it is `None`
    /// when the round hit its cap or a table is not a function. Lifting
    /// reads the round's state and changes nothing the search depends
    /// on.
    pub fn query(
        &mut self,
        env: &dyn SortLookup,
        hyps: &[Pred],
        goal: &Pred,
        stats: &mut SolverStats,
    ) -> (SatResult, Option<Model>) {
        // Items in refutation order: hypotheses, then the negated goal.
        let items = hyps
            .iter()
            .map(|h| (h, true))
            .chain(std::iter::once((goal, false)));
        self.solve(env, items, stats)
    }

    /// Checks satisfiability of the conjunction of `preds` in this
    /// context, as [`IncrContext::query`] does for `hyps ∧ ¬goal`.
    pub fn query_conj(
        &mut self,
        env: &dyn SortLookup,
        preds: &[Pred],
        stats: &mut SolverStats,
    ) -> (SatResult, Option<Model>) {
        self.solve(env, preds.iter().map(|p| (p, true)), stats)
    }

    /// The DPLL(T) loop over the conjunction of `items`, each a predicate
    /// with its encoding polarity.
    fn solve<'p>(
        &mut self,
        env: &dyn SortLookup,
        items: impl Iterator<Item = (&'p Pred, bool)>,
        stats: &mut SolverStats,
    ) -> (SatResult, Option<Model>) {
        stats.queries += 1;
        let mut assumptions: Vec<Lit> = Vec::new();
        let mut relevant: Vec<AtomId> = Vec::new();
        let mut seen_atoms: BTreeSet<u32> = BTreeSet::new();
        let mut add_atoms = |relevant: &mut Vec<AtomId>, atoms: &[AtomId]| {
            for &a in atoms {
                if seen_atoms.insert(a.0) {
                    relevant.push(a);
                }
            }
        };
        for (pred, pol) in items {
            match self.item(env, pred, pol) {
                Slot::Poisoned => return (SatResult::Unknown, None),
                Slot::Contradiction => return (SatResult::Unsat, None),
                Slot::Tautology { atoms } => add_atoms(&mut relevant, &atoms),
                Slot::Active { lit, atoms } => {
                    add_atoms(&mut relevant, &atoms);
                    assumptions.push(lit);
                }
            }
        }
        let (scope, defs) = self.scope_and_defs(&relevant);
        // Ascending-id copy of the relevant atoms: the theory check
        // derives its involved sets from this instead of scanning the
        // context's whole atom table on every (re-)check.
        let mut assigned_hint = relevant.clone();
        assigned_hint.sort_unstable_by_key(|a| a.0);
        if assumptions.is_empty() && defs.is_empty() {
            return (SatResult::Sat, None);
        }
        if self.sat.is_unsat() {
            // The clause database itself is contradictory (a hypothesis
            // set once asserted `false` at level zero — cannot happen
            // via activation literals, but stay defensive).
            return (SatResult::Unsat, None);
        }

        for _round in 0..MAX_ROUNDS {
            stats.sat_rounds += 1;
            match self.sat.solve_under(&assumptions) {
                SatOutcome::Unsat => return (SatResult::Unsat, None),
                SatOutcome::Sat(model) => {
                    let mut assign: Vec<Option<bool>> = vec![None; self.st.atoms.len()];
                    for &a in &relevant {
                        let i = a.0 as usize;
                        if matches!(self.st.atoms[i], AtomData::BvEq(..)) {
                            continue;
                        }
                        let l = self.atom_lits[i];
                        let val = model[l.var() as usize];
                        assign[i] = Some(if l.is_neg() { !val } else { val });
                    }
                    let run = |assign: &[Option<bool>], want_model: bool| {
                        theory::check_scoped(
                            &self.st.arena,
                            &self.st.atoms,
                            &defs,
                            assign,
                            self.st.true_node,
                            self.st.false_node,
                            &scope,
                            &assigned_hint,
                            want_model,
                        )
                    };
                    match run(&assign, true) {
                        (TheoryVerdict::Consistent, model) => return (SatResult::Sat, model),
                        (TheoryVerdict::Conflict(ids), _) => {
                            stats.theory_conflicts += 1;
                            // Core minimization: a short blocking clause
                            // prunes exponentially more models than
                            // negating the whole assignment.
                            let restrict = |core: &[AtomId]| {
                                let mut a: Vec<Option<bool>> = vec![None; assign.len()];
                                for id in core {
                                    a[id.0 as usize] = assign[id.0 as usize];
                                }
                                a
                            };
                            let mut core = ids.clone();
                            let check_core = |core: &[AtomId]| {
                                matches!(run(&restrict(core), false).0, TheoryVerdict::Conflict(_))
                            };
                            // A core covering every assigned atom restricts
                            // to the assignment itself — already known to
                            // conflict, so skip the confirmation check.
                            let assigned = assign.iter().filter(|a| a.is_some()).count();
                            if core.len() >= assigned || check_core(&core) {
                                core = theory::minimize_core(core, check_core);
                            }
                            let clause: Vec<Lit> = core
                                .iter()
                                .map(|id| {
                                    let l = self.atom_lits[id.0 as usize];
                                    match assign[id.0 as usize] {
                                        Some(true) => l.negate(),
                                        _ => l,
                                    }
                                })
                                .collect();
                            if clause.is_empty() {
                                return (SatResult::Unsat, None);
                            }
                            // Blocking clauses are theory-valid facts about
                            // the atoms: sound to retain for every future
                            // query of this context.
                            self.sat.add_clause(clause);
                        }
                    }
                }
            }
        }
        (SatResult::Unknown, None)
    }
}

impl Default for IncrContext {
    fn default() -> Self {
        IncrContext::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_logic::{CmpOp, Sort, SortEnv, Term};

    fn env() -> SortEnv {
        let mut e = SortEnv::new();
        e.bind("x", Sort::Int);
        e.bind("y", Sort::Int);
        e.bind("v", Sort::Int);
        e.bind("a", Sort::Ref);
        e
    }

    fn le(a: Term, b: Term) -> Pred {
        Pred::cmp(CmpOp::Le, a, b)
    }

    #[test]
    fn valid_and_invalid_in_one_context() {
        let e = env();
        let mut ctx = IncrContext::new();
        let mut stats = SolverStats::default();
        let hyp = le(Term::int(0), Term::var("x"));
        let weak = le(Term::int(-1), Term::var("x"));
        let wrong = le(Term::int(1), Term::var("x"));
        assert_eq!(
            ctx.query(&e, std::slice::from_ref(&hyp), &weak, &mut stats)
                .0,
            SatResult::Unsat,
            "0 <= x ⊢ -1 <= x must be valid"
        );
        assert_eq!(
            ctx.query(&e, std::slice::from_ref(&hyp), &wrong, &mut stats)
                .0,
            SatResult::Sat,
            "0 <= x ⊬ 1 <= x"
        );
        // Re-ask the valid one: the context must still answer correctly
        // after a Sat query and its retained clauses.
        assert_eq!(ctx.query(&e, &[hyp], &weak, &mut stats).0, SatResult::Unsat);
    }

    #[test]
    fn hypothesis_subsets_via_activation_literals() {
        let e = env();
        let mut ctx = IncrContext::new();
        let mut stats = SolverStats::default();
        let h1 = le(Term::int(0), Term::var("x"));
        let h2 = le(Term::var("x"), Term::var("y"));
        let goal = le(Term::int(0), Term::var("y"));
        assert_eq!(
            ctx.query(&e, &[h1.clone(), h2.clone()], &goal, &mut stats)
                .0,
            SatResult::Unsat
        );
        // Dropping h2 invalidates the implication; its clauses must be
        // inert when its activation literal is not assumed.
        assert_eq!(ctx.query(&e, &[h1], &goal, &mut stats).0, SatResult::Sat);
        assert_eq!(ctx.query(&e, &[h2], &goal, &mut stats).0, SatResult::Sat);
    }

    #[test]
    fn contradictory_hypothesis_and_tautology() {
        let e = env();
        let mut ctx = IncrContext::new();
        let mut stats = SolverStats::default();
        let fals = Pred::cmp(CmpOp::Lt, Term::int(1), Term::int(0));
        let goal = le(Term::int(1), Term::var("x"));
        assert_eq!(
            ctx.query(&e, &[fals], &goal, &mut stats).0,
            SatResult::Unsat,
            "false hypothesis proves anything"
        );
        // The contradiction must not poison unrelated queries.
        let taut = le(Term::int(0), Term::int(1));
        assert_eq!(ctx.query(&e, &[taut], &goal, &mut stats).0, SatResult::Sat);
    }

    /// A goal whose negation folds to `true` after interning a fresh atom
    /// (`¬(x ≤ 0 ∧ false)`) asserts nothing, but its atom still joins the
    /// query's theory check, so it needs a SAT literal of its own.
    #[test]
    fn tautology_with_a_fresh_atom_is_solvable() {
        let e = env();
        let mut ctx = IncrContext::new();
        let mut stats = SolverStats::default();
        let hyp = le(Term::int(0), Term::var("y"));
        let goal = Pred::And(vec![le(Term::var("x"), Term::int(0)), Pred::False]);
        assert_eq!(ctx.query(&e, &[hyp], &goal, &mut stats).0, SatResult::Sat);
    }

    #[test]
    fn euf_congruence_across_queries() {
        let e = env();
        let mut ctx = IncrContext::new();
        let mut stats = SolverStats::default();
        // 0 <= len(a) ∧ v = len(a) ⊢ 0 <= v
        let len_a = Term::len_of(Term::var("a"));
        let h1 = le(Term::int(0), len_a.clone());
        let h2 = Pred::vv_eq(len_a);
        let goal = le(Term::int(0), Term::vv());
        assert_eq!(
            ctx.query(&e, &[h1.clone(), h2.clone()], &goal, &mut stats)
                .0,
            SatResult::Unsat
        );
        // A weaker query in the same context: h1 alone does not bound v.
        assert_eq!(ctx.query(&e, &[h1], &goal, &mut stats).0, SatResult::Sat);
    }
}
