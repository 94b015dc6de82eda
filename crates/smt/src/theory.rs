//! Theory combination: congruence closure (EUF) plus linear integer
//! arithmetic, glued by a bounded Nelson–Oppen equality-propagation loop.
//!
//! Each round probes candidate pairs `x = y?` with
//! [`LiaProblem::entails_eq`], at most `MAX_EQ_PROBE_PAIRS` per round.
//! Most probes answer "not entailed", so the round first takes an integer
//! model from the feasibility run it already makes
//! (`LiaProblem::feasible_with_model`) and skips every probe whose two
//! variables the model assigns different values. The skip is exact: the
//! model is a checked integer solution of the round's rows with `x ≠ y`,
//! so it satisfies one of the two strict separations `entails_eq` tries,
//! and FM answers Infeasible only when no integer point exists — the probe
//! could only have answered "not entailed". A skipped pair still counts
//! against the probe budget, so the probe sequence, every verdict, every
//! conflict core (and with it every blocking clause and SAT trajectory)
//! is exactly the one the unskipped loop produces. When no model is
//! available (an empty integer interval, a cap, an overflow), every
//! pair is probed.

use rsc_logic::{FxHashMap, FxHashSet, Sort};

use crate::atom::{AtomData, AtomId, NLinExp};
use crate::euf::{Euf, EufResult};
use crate::lia::{LiaProblem, LiaResult, LinExp};
use crate::model::Model;
use crate::node::{Arena, ConstKind, Node, NodeId};

/// The verdict of a theory consistency check over a full propositional
/// assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TheoryVerdict {
    /// The assignment is theory-consistent.
    Consistent,
    /// The assignment is inconsistent; the listed atoms participate in the
    /// conflict (a superset of a minimal core).
    Conflict(Vec<AtomId>),
}

const MAX_NO_ROUNDS: usize = 6;

/// Shrinks a conflicting atom core to a 1-minimal one with binary
/// chunking: try dropping left-to-right chunks of halving size, ending
/// with the single-atom pass that guarantees 1-minimality (the final
/// level is exactly the greedy scan). `check(core)` must return whether
/// the assignment restricted to `core` is still theory-inconsistent.
///
/// The typical conflict involves a handful of atoms inside a large
/// assigned set, and every probe is a full theory check — chunking
/// reaches the kernel in `O(k log n)` checks instead of the greedy
/// scan's `O(n)`. The minimized core picks the blocking clause that
/// [`crate::IncrContext`]'s DPLL(T) loop adds.
pub fn minimize_core(
    mut core: Vec<AtomId>,
    mut check: impl FnMut(&[AtomId]) -> bool,
) -> Vec<AtomId> {
    let mut chunk = (core.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i < core.len() && core.len() > 1 {
            let end = (i + chunk).min(core.len());
            if end - i == core.len() {
                break; // never try the empty core
            }
            let mut trial = Vec::with_capacity(core.len() - (end - i));
            trial.extend_from_slice(&core[..i]);
            trial.extend_from_slice(&core[end..]);
            if check(&trial) {
                core = trial;
            } else {
                i = end;
            }
        }
        if chunk == 1 {
            return core;
        }
        chunk /= 2;
    }
}

/// Derives variable values implied by single-variable linear equalities,
/// propagating until a fixpoint (e.g. `x - 5 = 0` gives `x = 5`, which may
/// determine further equations). A row whose substitution overflows i128
/// is left alone: deriving fewer values is always sound.
fn derive_constants(eqs: &[LinExp]) -> FxHashMap<u32, i128> {
    let mut values: FxHashMap<u32, i128> = FxHashMap::default();
    let mut work: Vec<LinExp> = eqs.to_vec();
    loop {
        let mut changed = false;
        for e in &mut work {
            // Substitute known values.
            let known: Vec<(u32, i128)> = e
                .coeffs
                .iter()
                .filter_map(|&(x, c)| values.get(&x).and_then(|v| Some((x, c.checked_mul(*v)?))))
                .collect();
            for (x, add) in known {
                let Some(k) = e.konst.checked_add(add) else {
                    break;
                };
                e.remove(x);
                e.konst = k;
            }
            if e.coeffs.len() == 1 {
                let (x, c) = e.coeffs[0];
                if let Some(v) = e
                    .konst
                    .checked_rem(c)
                    .filter(|&r| r == 0)
                    .and_then(|_| e.konst.checked_div(c)?.checked_neg())
                {
                    if values.insert(x, v) != Some(v) {
                        changed = true;
                    }
                    e.coeffs.clear();
                    e.konst = 0;
                }
            }
        }
        if !changed {
            return values;
        }
    }
}
const MAX_EQ_PROBE_PAIRS: usize = 48;

/// Checks whether the assignment of theory atoms is consistent with
/// EUF + LIA. `assign[i]` is the polarity of atom `i`, or `None` for atoms
/// outside the theory (bit-vector atoms, which are blasted eagerly) and
/// atoms outside the query.
///
/// A persistent incremental context shares one arena and one atom table
/// across many queries, so the check is scoped to the current query:
///
/// - `scope` is the subterm closure of the query's atoms, in ascending
///   id order. The two heuristic arena sweeps (nonlinear constant
///   evaluation and Nelson–Oppen candidate collection) and the
///   congruence fixpoint run over it alone, so an unrelated query's nodes
///   can neither consume the bounded probe budget nor surface in its
///   conflicts.
/// - `assigned_hint` lists, in ascending id order, a superset of the
///   atoms with `assign[i].is_some()`; the involved-atom sets are derived
///   from it instead of scanning the whole atom table. Core minimization
///   re-checks restricted assignments many times per conflict, so
///   full-table scans would be quadratic-ish on the hot path.
///
/// With `want_model`, a Consistent verdict reached on a round that found
/// no new equality also carries that round's counterexample model over
/// the scope (unchecked; see [`crate::model`]). A verdict reached at the
/// round cap carries none.
#[allow(clippy::too_many_arguments)]
pub fn check_scoped(
    arena: &Arena,
    atoms: &[AtomData],
    defs: &[NLinExp],
    assign: &[Option<bool>],
    true_node: NodeId,
    false_node: NodeId,
    scope: &[NodeId],
    assigned_hint: &[AtomId],
    want_model: bool,
) -> (TheoryVerdict, Option<Model>) {
    let sweep: Vec<NodeId> = scope
        .iter()
        .copied()
        .filter(|&id| matches!(arena.node(id), Node::App(..)))
        .collect();
    // Both filters preserve the hint's ascending id order.
    let involved: Vec<AtomId> = assigned_hint
        .iter()
        .copied()
        .filter(|id| {
            assign[id.0 as usize].is_some() && !matches!(atoms[id.0 as usize], AtomData::BvEq(..))
        })
        .collect();
    // A smaller core for EUF-phase conflicts: only equality-bearing atoms.
    let is_euf_core = |a: &AtomData| {
        matches!(
            a,
            AtomData::EufEq(..) | AtomData::BoolNode(..) | AtomData::IntEq(_, Some(_))
        )
    };
    let euf_core: Vec<AtomId> = assigned_hint
        .iter()
        .copied()
        .filter(|id| assign[id.0 as usize].is_some() && is_euf_core(&atoms[id.0 as usize]))
        .collect();

    let mut extra_merges: Vec<(NodeId, NodeId)> = Vec::new();

    for _round in 0..MAX_NO_ROUNDS {
        // --- EUF phase -----------------------------------------------------
        let mut euf = Euf::new(arena);
        for &AtomId(i) in &involved {
            let a = &atoms[i as usize];
            let Some(pol) = assign[i as usize] else {
                continue;
            };
            match a {
                AtomData::EufEq(x, y) => {
                    if pol {
                        euf.merge(*x, *y);
                    } else {
                        euf.assert_diseq(*x, *y);
                    }
                }
                AtomData::BoolNode(n) => {
                    euf.merge(*n, if pol { true_node } else { false_node });
                }
                AtomData::IntEq(_, Some((x, y))) => {
                    if pol {
                        euf.merge(*x, *y);
                    } else {
                        euf.assert_diseq(*x, *y);
                    }
                }
                _ => {}
            }
        }
        for &(x, y) in &extra_merges {
            euf.merge(x, y);
        }
        if euf.close_over(&sweep, scope) == EufResult::Conflict {
            let core = if extra_merges.is_empty() {
                euf_core.clone()
            } else {
                involved.clone()
            };
            return (TheoryVerdict::Conflict(core), None);
        }

        // --- LIA phase -----------------------------------------------------
        // A row whose translation overflows i128 is left out of the
        // problem: that only weakens it (Infeasible stays a sound conflict,
        // and a skipped probe's model still satisfies the probed rows).
        let translate = |euf: &mut Euf, l: &NLinExp| -> Option<LinExp> {
            let mut out = LinExp::konst(l.konst);
            for &(n, c) in &l.coeffs {
                let rep = euf.find(n);
                match arena.const_kind(rep) {
                    Some(ConstKind::Int(v)) => {
                        out.konst = out.konst.checked_add(c.checked_mul(v as i128)?)?;
                    }
                    _ => out.add_term(rep.0, c)?,
                }
            }
            Some(out)
        };
        let mut prob = LiaProblem::default();
        for d in defs {
            if let Some(e) = translate(&mut euf, d) {
                prob.eqs.push(e);
            }
        }
        for &AtomId(i) in &involved {
            let a = &atoms[i as usize];
            let Some(pol) = assign[i as usize] else {
                continue;
            };
            match a {
                AtomData::LinLe(l) => {
                    let Some(e) = translate(&mut euf, l) else {
                        continue;
                    };
                    if pol {
                        prob.les.push(e);
                    } else {
                        // ¬(e ≤ 0) over integers: -e + 1 ≤ 0.
                        if let Some(neg) = e.scale(-1).and_then(|n| n.add(&LinExp::konst(1))) {
                            prob.les.push(neg);
                        }
                    }
                }
                AtomData::IntEq(l, _) => {
                    let Some(e) = translate(&mut euf, l) else {
                        continue;
                    };
                    if pol {
                        prob.eqs.push(e);
                    } else {
                        prob.diseqs.push(e);
                    }
                }
                _ => {}
            }
        }
        // --- Nonlinear constant evaluation ----------------------------------
        // Derive variable values implied by the (linear) equalities, then
        // evaluate uninterpreted `mul`/`div`/`mod` applications whose
        // arguments are determined — e.g. `(z.w+2)*(z.h+2)` with
        // `z.w = 3 ∧ z.h = 7` becomes 45.
        let consts = derive_constants(&prob.eqs);
        for &id in &sweep {
            if let Node::App(f, args, _) = arena.node(id) {
                let op = f.as_str();
                if !matches!(op, "mul" | "div" | "mod") || args.len() != 2 {
                    continue;
                }
                let val_of = |euf: &mut Euf, a: NodeId| -> Option<i128> {
                    let rep = euf.find(a);
                    match arena.const_kind(rep) {
                        Some(ConstKind::Int(v)) => Some(v as i128),
                        _ => consts.get(&rep.0).copied(),
                    }
                };
                let (Some(va), Some(vb)) = (val_of(&mut euf, args[0]), val_of(&mut euf, args[1]))
                else {
                    continue;
                };
                let value = match op {
                    "mul" => va.checked_mul(vb),
                    "div" => va.checked_div(vb),
                    "mod" => va.checked_rem(vb),
                    _ => None,
                };
                if let Some(v) = value {
                    let rep = euf.find(id);
                    let mut e = match arena.const_kind(rep) {
                        Some(ConstKind::Int(existing)) => {
                            if existing as i128 != v {
                                return (TheoryVerdict::Conflict(involved), None);
                            }
                            continue;
                        }
                        _ => LinExp::var(rep.0),
                    };
                    let Some(k) = v.checked_neg() else {
                        continue;
                    };
                    e.konst = k;
                    prob.eqs.push(e);
                }
            }
        }

        let (feasibility, model) = prob.feasible_with_model();
        if feasibility == LiaResult::Infeasible {
            return (TheoryVerdict::Conflict(involved), None);
        }

        // --- Nelson–Oppen equality propagation ------------------------------
        // Candidate nodes: integer-sorted nodes in argument position of an
        // uninterpreted application (only these can trigger new congruences).
        let mut candidates: Vec<NodeId> = Vec::new();
        for &id in &sweep {
            if let Node::App(_, args, _) = arena.node(id) {
                for &a in args {
                    if arena.sort(a) == Sort::Int {
                        let rep = euf.find(a);
                        if arena.const_kind(rep).is_none() && !candidates.contains(&rep) {
                            candidates.push(rep);
                        }
                    }
                }
            }
        }
        // A probe `x = y?` can only be entailed when both variables occur
        // in some row — an unconstrained variable always admits a strict
        // separation — and when the model (if any) gives them the same
        // value (module docs). Skipped probes still count against the
        // budget, so the probe sequence (and thus the verdict) is exactly
        // the one the unfiltered loop would produce, minus the doomed
        // solves.
        let separated = |x: u32, y: u32| {
            model
                .as_ref()
                .is_some_and(|m| matches!((m.get(&x), m.get(&y)), (Some(a), Some(b)) if a != b))
        };
        let mut bounded: FxHashSet<u32> = FxHashSet::default();
        for e in prob
            .les
            .iter()
            .chain(prob.eqs.iter())
            .chain(prob.diseqs.iter())
        {
            bounded.extend(e.vars());
        }
        let mut found: Option<(NodeId, NodeId)> = None;
        let mut probes = 0usize;
        'outer: for i in 0..candidates.len() {
            for j in (i + 1)..candidates.len() {
                if probes >= MAX_EQ_PROBE_PAIRS {
                    break 'outer;
                }
                probes += 1;
                let (x, y) = (candidates[i], candidates[j]);
                if bounded.contains(&x.0)
                    && bounded.contains(&y.0)
                    && !separated(x.0, y.0)
                    && prob.entails_eq(x.0, y.0)
                {
                    found = Some((x, y));
                    break 'outer;
                }
            }
        }
        match found {
            Some(pair) => {
                extra_merges.push(pair);
                continue;
            }
            None => {
                let model = match (want_model, &model) {
                    (true, Some(ints)) => Model::lift(arena, scope, &mut euf, ints),
                    _ => None,
                };
                return (TheoryVerdict::Consistent, model);
            }
        }
    }
    (TheoryVerdict::Consistent, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_logic::Sym;

    /// Checks `assign` over the query's own scope: each test arena holds
    /// exactly one query, so that is every node, with every atom assigned.
    fn check_query(
        arena: &Arena,
        atoms: &[AtomData],
        assign: &[Option<bool>],
        true_node: NodeId,
        false_node: NodeId,
    ) -> TheoryVerdict {
        let scope: Vec<NodeId> = arena.iter().map(|(id, _)| id).collect();
        let hint: Vec<AtomId> = (0..atoms.len() as u32).map(AtomId).collect();
        check_scoped(
            arena,
            atoms,
            &[],
            assign,
            true_node,
            false_node,
            &scope,
            &hint,
            false,
        )
        .0
    }

    /// x = y, len(x) ≤ 3, len(y) ≥ 5 should conflict via congruence.
    #[test]
    fn euf_lia_interaction() {
        let mut arena = Arena::new();
        let tn = arena.intern(Node::True);
        let fnode = arena.intern(Node::False);
        let x = arena.intern(Node::Var(Sym::from("x"), Sort::Ref));
        let y = arena.intern(Node::Var(Sym::from("y"), Sort::Ref));
        let lx = arena.intern(Node::App(Sym::from("len"), vec![x], Sort::Int));
        let ly = arena.intern(Node::App(Sym::from("len"), vec![y], Sort::Int));
        let atoms = vec![
            AtomData::EufEq(x, y),
            AtomData::LinLe({
                let mut e = NLinExp::var(lx);
                e.konst = -3;
                e
            }), // len(x) - 3 <= 0
            AtomData::LinLe({
                let mut e = NLinExp::var(ly).scale(-1).unwrap();
                e.konst = 5;
                e
            }), // 5 - len(y) <= 0
        ];
        let assign = vec![Some(true), Some(true), Some(true)];
        let v = check_query(&arena, &atoms, &assign, tn, fnode);
        assert!(matches!(v, TheoryVerdict::Conflict(_)));
    }

    /// Arithmetic forces i = j, so f(i) != f(j) conflicts (Nelson–Oppen).
    #[test]
    fn no_equality_propagation() {
        let mut arena = Arena::new();
        let tn = arena.intern(Node::True);
        let fnode = arena.intern(Node::False);
        let i = arena.intern(Node::Var(Sym::from("i"), Sort::Int));
        let j = arena.intern(Node::Var(Sym::from("j"), Sort::Int));
        let fi = arena.intern(Node::App(Sym::from("f"), vec![i], Sort::Ref));
        let fj = arena.intern(Node::App(Sym::from("f"), vec![j], Sort::Ref));
        // i <= j, j <= i, f(i) != f(j)
        let mut le1 = NLinExp::var(i);
        le1.add_term(j, -1).unwrap();
        let mut le2 = NLinExp::var(j);
        le2.add_term(i, -1).unwrap();
        let atoms = vec![
            AtomData::LinLe(le1),
            AtomData::LinLe(le2),
            AtomData::EufEq(fi, fj),
        ];
        let assign = vec![Some(true), Some(true), Some(false)];
        let v = check_query(&arena, &atoms, &assign, tn, fnode);
        assert!(matches!(v, TheoryVerdict::Conflict(_)));
    }

    #[test]
    fn consistent_assignment() {
        let mut arena = Arena::new();
        let tn = arena.intern(Node::True);
        let fnode = arena.intern(Node::False);
        let x = arena.intern(Node::Var(Sym::from("x"), Sort::Int));
        let mut e = NLinExp::var(x);
        e.konst = -10; // x <= 10
        let atoms = vec![AtomData::LinLe(e)];
        let v = check_query(&arena, &atoms, &[Some(true)], tn, fnode);
        assert_eq!(v, TheoryVerdict::Consistent);
    }

    #[test]
    fn bool_node_conflict() {
        let mut arena = Arena::new();
        let tn = arena.intern(Node::True);
        let fnode = arena.intern(Node::False);
        let x = arena.intern(Node::Var(Sym::from("x"), Sort::Ref));
        let p = arena.intern(Node::App(Sym::from("impl"), vec![x], Sort::Bool));
        let q = arena.intern(Node::App(Sym::from("impl"), vec![x], Sort::Bool));
        assert_eq!(p, q);
        let atoms = vec![AtomData::BoolNode(p)];
        // Atom asserted both ways cannot happen with one atom id; check that
        // a single positive assertion is consistent.
        let v = check_query(&arena, &atoms, &[Some(true)], tn, fnode);
        assert_eq!(v, TheoryVerdict::Consistent);
    }
}
