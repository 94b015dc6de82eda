//! A compact CDCL SAT solver: two-watched literals, first-UIP clause
//! learning, VSIDS-style activities and phase saving.
//!
//! The solver is deliberately small but complete. It supports
//! MiniSat-style *solve under assumptions* ([`SatSolver::solve_under`]):
//! assumption literals are established as pseudo-decisions below any
//! real decision, so learnt clauses are implied by the clause database
//! alone and are retained across calls — the foundation of the
//! DPLL(T) contexts in [`crate::incr`], which add theory blocking
//! clauses between calls and keep everything learnt.

use std::fmt;

/// A boolean variable, numbered from 0.
pub type Var = u32;

/// A literal: a variable together with a polarity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit((v << 1) | 1)
    }

    /// Builds a literal from a variable and a sign (`true` = positive).
    pub fn new(v: Var, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        self.0 >> 1
    }

    /// True if this is a negative literal.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The opposite literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_neg() {
            write!(f, "-{}", self.var())
        } else {
            write!(f, "{}", self.var())
        }
    }
}

/// The result of [`SatSolver::solve`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatOutcome {
    /// Satisfiable; the model maps each variable to a value (variables
    /// never touched by the search may be defaulted).
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
}

const REASON_NONE: u32 = u32::MAX;

/// A CDCL SAT solver over clauses added with [`SatSolver::add_clause`].
pub struct SatSolver {
    num_vars: u32,
    clauses: Vec<Vec<Lit>>,
    watches: Vec<Vec<u32>>, // literal index -> clause indices watching it
    assign: Vec<Option<bool>>,
    level: Vec<u32>,
    reason: Vec<u32>, // clause index or REASON_NONE
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    queue_head: usize,
    activity: Vec<f64>,
    act_inc: f64,
    phase: Vec<bool>,
    unsat: bool,
    /// Number of conflicts encountered (statistics).
    pub conflicts: u64,
    /// Number of decisions made (statistics).
    pub decisions: u64,
}

impl SatSolver {
    /// Creates a solver with no variables or clauses.
    pub fn new() -> Self {
        SatSolver {
            num_vars: 0,
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            queue_head: 0,
            activity: Vec::new(),
            act_inc: 1.0,
            phase: Vec::new(),
            unsat: false,
            conflicts: 0,
            decisions: 0,
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = self.num_vars;
        self.num_vars += 1;
        self.assign.push(None);
        self.level.push(0);
        self.reason.push(REASON_NONE);
        self.activity.push(0.0);
        self.phase.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// The number of allocated variables.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Adds a clause. Duplicated literals are removed; tautologies are
    /// dropped; the empty clause marks the instance unsatisfiable.
    ///
    /// Must be called at decision level zero (i.e. before or between
    /// `solve` calls — `solve` always returns at level zero).
    pub fn add_clause(&mut self, mut lits: Vec<Lit>) {
        debug_assert!(self.trail_lim.is_empty());
        if self.unsat {
            return;
        }
        lits.sort();
        lits.dedup();
        // Tautology?
        for w in lits.windows(2) {
            if w[0].var() == w[1].var() {
                return; // x and !x both present
            }
        }
        // Remove literals already false at level 0; satisfied clause is dropped.
        lits.retain(|&l| self.value(l) != Some(false) || self.level[l.var() as usize] != 0);
        if lits
            .iter()
            .any(|&l| self.value(l) == Some(true) && self.level[l.var() as usize] == 0)
        {
            return;
        }
        match lits.len() {
            0 => self.unsat = true,
            1 => {
                if self.value(lits[0]) == Some(false) {
                    self.unsat = true;
                } else if self.value(lits[0]).is_none() {
                    self.enqueue(lits[0], REASON_NONE);
                    if self.propagate().is_some() {
                        self.unsat = true;
                    }
                }
            }
            _ => {
                let idx = self.clauses.len() as u32;
                self.watches[lits[0].negate().index()].push(idx);
                self.watches[lits[1].negate().index()].push(idx);
                self.clauses.push(lits);
            }
        }
    }

    fn value(&self, l: Lit) -> Option<bool> {
        self.assign[l.var() as usize].map(|b| b != l.is_neg())
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert!(self.value(l).is_none());
        self.assign[l.var() as usize] = Some(!l.is_neg());
        self.level[l.var() as usize] = self.trail_lim.len() as u32;
        self.reason[l.var() as usize] = reason;
        self.trail.push(l);
    }

    /// Unit propagation. Returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.queue_head < self.trail.len() {
            let l = self.trail[self.queue_head];
            self.queue_head += 1;
            let watch_idx = l.index();
            let watching = std::mem::take(&mut self.watches[watch_idx]);
            let mut kept = Vec::with_capacity(watching.len());
            let mut conflict = None;
            let mut wi = 0;
            while wi < watching.len() {
                let ci = watching[wi];
                wi += 1;
                let clause = &mut self.clauses[ci as usize];
                // Ensure the falsified literal is at position 1.
                if clause[0].negate() == l {
                    clause.swap(0, 1);
                }
                debug_assert_eq!(clause[1].negate(), l);
                let first = clause[0];
                if self.assign[first.var() as usize].map(|b| b != first.is_neg()) == Some(true) {
                    kept.push(ci);
                    continue;
                }
                // Find a new literal to watch.
                let mut moved = false;
                for k in 2..clause.len() {
                    let lk = clause[k];
                    let val = self.assign[lk.var() as usize].map(|b| b != lk.is_neg());
                    if val != Some(false) {
                        clause.swap(1, k);
                        let new_watch = clause[1].negate().index();
                        self.watches[new_watch].push(ci);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                kept.push(ci);
                // Clause is unit or conflicting.
                match self.value(first) {
                    None => self.enqueue(first, ci),
                    Some(false) => {
                        // Conflict: keep remaining watchers and bail.
                        while wi < watching.len() {
                            kept.push(watching[wi]);
                            wi += 1;
                        }
                        conflict = Some(ci);
                    }
                    Some(true) => unreachable!(),
                }
                if conflict.is_some() {
                    break;
                }
            }
            let slot = &mut self.watches[watch_idx];
            kept.extend_from_slice(&slot[..]);
            *slot = kept;
            if let Some(ci) = conflict {
                return Some(ci);
            }
        }
        None
    }

    fn bump(&mut self, v: Var) {
        self.activity[v as usize] += self.act_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause and the level
    /// to backtrack to.
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, u32) {
        let current_level = self.trail_lim.len() as u32;
        let mut learnt: Vec<Lit> = Vec::new();
        let mut seen = vec![false; self.num_vars as usize];
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut reason_clause = conflict;
        let mut trail_idx = self.trail.len();

        loop {
            let clause = &self.clauses[reason_clause as usize];
            let start = if p.is_some() { 1 } else { 0 };
            let lits: Vec<Lit> = clause[start..].to_vec();
            for q in lits {
                let v = q.var() as usize;
                if !seen[v] && self.level[v] > 0 {
                    seen[v] = true;
                    self.bump(q.var());
                    if self.level[v] == current_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find next literal on trail to resolve on.
            loop {
                trail_idx -= 1;
                let l = self.trail[trail_idx];
                if seen[l.var() as usize] {
                    p = Some(l);
                    break;
                }
            }
            let pl = p.unwrap();
            seen[pl.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                learnt.insert(0, pl.negate());
                break;
            }
            reason_clause = self.reason[pl.var() as usize];
            debug_assert_ne!(reason_clause, REASON_NONE);
            // Put the resolved-on literal first in the reason clause view.
            let rc = &mut self.clauses[reason_clause as usize];
            if rc[0] != pl {
                let pos = rc.iter().position(|&x| x == pl).unwrap();
                rc.swap(0, pos);
            }
        }

        let back_level = learnt[1..]
            .iter()
            .map(|l| self.level[l.var() as usize])
            .max()
            .unwrap_or(0);
        // Move a max-level literal to position 1 for watching.
        if learnt.len() > 1 {
            let mut mi = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var() as usize] > self.level[learnt[mi].var() as usize] {
                    mi = i;
                }
            }
            learnt.swap(1, mi);
        }
        (learnt, back_level)
    }

    fn backtrack(&mut self, level: u32) {
        while self.trail_lim.len() as u32 > level {
            let lim = self.trail_lim.pop().unwrap();
            while self.trail.len() > lim {
                let l = self.trail.pop().unwrap();
                let v = l.var() as usize;
                self.phase[v] = self.assign[v].unwrap();
                self.assign[v] = None;
                self.reason[v] = REASON_NONE;
            }
        }
        self.queue_head = self.trail.len();
    }

    fn decide(&mut self) -> Option<Lit> {
        let mut best: Option<Var> = None;
        for v in 0..self.num_vars {
            if self.assign[v as usize].is_none()
                && best.is_none_or(|b| self.activity[v as usize] > self.activity[b as usize])
            {
                best = Some(v);
            }
        }
        best.map(|v| Lit::new(v, self.phase[v as usize]))
    }

    /// Solves the current clause set.
    pub fn solve(&mut self) -> SatOutcome {
        self.solve_under(&[])
    }

    /// True once the clause set itself (no assumptions) has been proven
    /// unsatisfiable; every later call answers `Unsat` immediately.
    pub fn is_unsat(&self) -> bool {
        self.unsat
    }

    /// Solves the current clause set under temporary assumption literals.
    ///
    /// Each assumption is established as a pseudo-decision owning one
    /// decision level (a dummy level when already implied), below every
    /// real decision. Conflict analysis therefore never resolves on an
    /// assumption *as a clause*: learnt clauses — including learnt units
    /// enqueued at level zero — are implied by the clause database alone
    /// and are sound to retain across calls. An assumption found false
    /// under its predecessors yields `Unsat` *for this call only*: the
    /// solver backtracks to level zero and stays usable, without marking
    /// the instance globally unsatisfiable. A conflict at level zero, by
    /// contrast, involves no assumptions and is recorded permanently.
    pub fn solve_under(&mut self, assumptions: &[Lit]) -> SatOutcome {
        if self.unsat {
            return SatOutcome::Unsat;
        }
        if self.propagate().is_some() {
            self.unsat = true;
            return SatOutcome::Unsat;
        }
        loop {
            match self.propagate() {
                Some(conflict) => {
                    self.conflicts += 1;
                    if self.trail_lim.is_empty() {
                        self.unsat = true;
                        return SatOutcome::Unsat;
                    }
                    let (learnt, back) = self.analyze(conflict);
                    self.backtrack(back);
                    self.act_inc *= 1.05;
                    let asserting = learnt[0];
                    if learnt.len() == 1 {
                        self.enqueue(asserting, REASON_NONE);
                    } else {
                        let idx = self.clauses.len() as u32;
                        self.watches[learnt[0].negate().index()].push(idx);
                        self.watches[learnt[1].negate().index()].push(idx);
                        self.clauses.push(learnt);
                        self.enqueue(asserting, idx);
                    }
                }
                None if self.trail_lim.len() < assumptions.len() => {
                    let p = assumptions[self.trail_lim.len()];
                    match self.value(p) {
                        Some(true) => {
                            // Already implied: a dummy level keeps the
                            // level ↔ assumption correspondence.
                            self.trail_lim.push(self.trail.len());
                        }
                        Some(false) => {
                            // False under the earlier assumptions (or at
                            // level zero): Unsat under assumptions only.
                            self.backtrack(0);
                            return SatOutcome::Unsat;
                        }
                        None => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(p, REASON_NONE);
                        }
                    }
                }
                None => match self.decide() {
                    None => {
                        let model = self.assign.iter().map(|a| a.unwrap_or(false)).collect();
                        self.backtrack(0);
                        return SatOutcome::Sat(model);
                    }
                    Some(l) => {
                        self.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(l, REASON_NONE);
                    }
                },
            }
        }
    }
}

impl Default for SatSolver {
    fn default() -> Self {
        SatSolver::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: i32) -> Lit {
        assert!(i != 0);
        Lit::new((i.unsigned_abs() - 1) as Var, i > 0)
    }

    fn solve(nvars: u32, clauses: &[Vec<i32>]) -> SatOutcome {
        let mut s = SatSolver::new();
        for _ in 0..nvars {
            s.new_var();
        }
        for c in clauses {
            s.add_clause(c.iter().map(|&i| lit(i)).collect());
        }
        s.solve()
    }

    fn check_model(clauses: &[Vec<i32>], model: &[bool]) -> bool {
        clauses.iter().all(|c| {
            c.iter().any(|&i| {
                let v = (i.unsigned_abs() - 1) as usize;
                model[v] == (i > 0)
            })
        })
    }

    #[test]
    fn trivial_sat() {
        match solve(2, &[vec![1, 2], vec![-1]]) {
            SatOutcome::Sat(m) => assert!(m[1]),
            _ => panic!("expected sat"),
        }
    }

    #[test]
    fn trivial_unsat() {
        assert_eq!(solve(1, &[vec![1], vec![-1]]), SatOutcome::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p_ij: pigeon i in hole j. vars: p11=1,p12=2,p21=3,p22=4,p31=5,p32=6
        let clauses = vec![
            vec![1, 2],
            vec![3, 4],
            vec![5, 6],
            vec![-1, -3],
            vec![-1, -5],
            vec![-3, -5],
            vec![-2, -4],
            vec![-2, -6],
            vec![-4, -6],
        ];
        assert_eq!(solve(6, &clauses), SatOutcome::Unsat);
    }

    #[test]
    fn xor_chain_sat() {
        // (a xor b) and (b xor c) and a  => c = a
        let clauses = vec![vec![1, 2], vec![-1, -2], vec![2, 3], vec![-2, -3], vec![1]];
        match solve(3, &clauses) {
            SatOutcome::Sat(m) => {
                assert!(m[0]);
                assert!(!m[1]);
                assert!(m[2]);
                assert!(check_model(&clauses, &m));
            }
            _ => panic!("expected sat"),
        }
    }

    #[test]
    fn duplicate_and_tautology_clauses() {
        match solve(2, &[vec![1, 1, 2], vec![1, -1]]) {
            SatOutcome::Sat(_) => {}
            _ => panic!("expected sat"),
        }
    }

    #[test]
    fn unit_conflict_at_level_zero() {
        assert_eq!(
            solve(2, &[vec![1], vec![-1, 2], vec![-2, -1]]),
            SatOutcome::Unsat
        );
    }

    /// Brute-force reference solver.
    fn brute(nvars: u32, clauses: &[Vec<i32>]) -> bool {
        for bits in 0u32..(1 << nvars) {
            let model: Vec<bool> = (0..nvars).map(|i| bits & (1 << i) != 0).collect();
            if check_model(clauses, &model) {
                return true;
            }
        }
        false
    }

    #[test]
    fn assumptions_do_not_poison_the_instance() {
        // (a ∨ b) with assumption ¬a ∧ ¬b is Unsat under assumptions,
        // but the instance itself stays satisfiable afterwards.
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(vec![Lit::pos(a), Lit::pos(b)]);
        assert_eq!(
            s.solve_under(&[Lit::neg(a), Lit::neg(b)]),
            SatOutcome::Unsat
        );
        assert!(
            !s.is_unsat(),
            "assumption conflict must not set global unsat"
        );
        match s.solve_under(&[Lit::neg(a)]) {
            SatOutcome::Sat(m) => assert!(!m[a as usize] && m[b as usize]),
            SatOutcome::Unsat => panic!("expected sat under ¬a"),
        }
        match s.solve() {
            SatOutcome::Sat(m) => assert!(m[a as usize] || m[b as usize]),
            SatOutcome::Unsat => panic!("expected sat with no assumptions"),
        }
    }

    #[test]
    fn assumptions_already_implied_and_contradictory() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(vec![Lit::pos(a)]); // unit: a is true at level 0
                                         // Assuming a (already implied, dummy level) plus b works.
        assert!(matches!(
            s.solve_under(&[Lit::pos(a), Lit::pos(b)]),
            SatOutcome::Sat(_)
        ));
        // Assuming ¬a conflicts with the level-0 unit: Unsat under
        // assumptions, but not globally.
        assert_eq!(s.solve_under(&[Lit::neg(a)]), SatOutcome::Unsat);
        assert!(!s.is_unsat());
        // Directly contradictory assumptions.
        assert_eq!(
            s.solve_under(&[Lit::pos(b), Lit::neg(b)]),
            SatOutcome::Unsat
        );
        assert!(!s.is_unsat());
        assert!(matches!(s.solve(), SatOutcome::Sat(_)));
    }

    #[test]
    fn clauses_addable_between_solve_under_calls() {
        // Interleave adds and assumption solves: the activation-literal
        // lifecycle of the incremental context in miniature.
        let mut s = SatSolver::new();
        let act1 = s.new_var();
        let x = s.new_var();
        s.add_clause(vec![Lit::neg(act1), Lit::pos(x)]); // act1 -> x
        assert!(matches!(
            s.solve_under(&[Lit::pos(act1)]),
            SatOutcome::Sat(_)
        ));
        let act2 = s.new_var();
        s.add_clause(vec![Lit::neg(act2), Lit::neg(x)]); // act2 -> ¬x
        assert_eq!(
            s.solve_under(&[Lit::pos(act1), Lit::pos(act2)]),
            SatOutcome::Unsat
        );
        assert!(!s.is_unsat());
        assert!(matches!(
            s.solve_under(&[Lit::pos(act2)]),
            SatOutcome::Sat(_)
        ));
    }

    use proptest::prelude::*;

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]
        #[test]
        fn agrees_with_brute_force(
            clauses in proptest::collection::vec(
                proptest::collection::vec(
                    (-6i32..=6).prop_filter("nonzero", |x| *x != 0),
                    1..4,
                ),
                0..14,
            )
        ) {
            let nvars = 6;
            let expect_sat = brute(nvars, &clauses);
            match solve(nvars, &clauses) {
                SatOutcome::Sat(m) => {
                    prop_assert!(expect_sat, "solver said SAT, brute force says UNSAT");
                    prop_assert!(check_model(&clauses, &m), "model does not satisfy clauses");
                }
                SatOutcome::Unsat => prop_assert!(!expect_sat, "solver said UNSAT, brute force says SAT"),
            }
        }

        /// One persistent solver, a sequence of assumption sets: every
        /// answer must match brute force on clauses + assumptions-as-units,
        /// and retained learnt clauses must never change later answers.
        #[test]
        fn solve_under_agrees_with_brute_force(
            clauses in proptest::collection::vec(
                proptest::collection::vec(
                    (-6i32..=6).prop_filter("nonzero", |x| *x != 0),
                    1..4,
                ),
                0..14,
            ),
            assumption_sets in proptest::collection::vec(
                proptest::collection::vec(
                    (-6i32..=6).prop_filter("nonzero", |x| *x != 0),
                    0..4,
                ),
                1..5,
            )
        ) {
            let nvars = 6;
            let mut s = SatSolver::new();
            for _ in 0..nvars {
                s.new_var();
            }
            for c in &clauses {
                s.add_clause(c.iter().map(|&i| lit(i)).collect());
            }
            for assumptions in &assumption_sets {
                let mut with_units = clauses.clone();
                with_units.extend(assumptions.iter().map(|&i| vec![i]));
                let expect_sat = brute(nvars, &with_units);
                let lits: Vec<Lit> = assumptions.iter().map(|&i| lit(i)).collect();
                match s.solve_under(&lits) {
                    SatOutcome::Sat(m) => {
                        prop_assert!(expect_sat, "SAT under {assumptions:?}, brute says UNSAT");
                        prop_assert!(check_model(&with_units, &m));
                    }
                    SatOutcome::Unsat => {
                        prop_assert!(!expect_sat, "UNSAT under {assumptions:?}, brute says SAT");
                    }
                }
                if s.is_unsat() {
                    prop_assert!(
                        !brute(nvars, &clauses),
                        "global unsat flag set on a satisfiable base instance"
                    );
                }
            }
        }
    }
}
