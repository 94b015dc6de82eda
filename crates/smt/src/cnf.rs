//! Tseitin transformation of [`Formula`]s into the SAT core's clauses.

use crate::atom::{AtomId, Formula};
use crate::sat::{Lit, SatSolver};

/// Tseitin-encodes `f` (which must be free of `Const` after
/// [`Formula::simplify`]) and returns a literal equivalent to `f`.
///
/// `atom_lit` maps an atom with polarity to its SAT literal. The
/// definitional clauses are bidirectional (`o ↔ …`), so the fresh
/// variables are fully defined by their inputs: adding them unasserted
/// to a persistent context never constrains the context.
pub fn tseitin(f: &Formula, atom_lit: &impl Fn(AtomId, bool) -> Lit, cnf: &mut SatSolver) -> Lit {
    match f {
        Formula::Const(_) => panic!("tseitin: simplify the formula first"),
        Formula::Lit(a, pol) => atom_lit(*a, *pol),
        Formula::And(fs) => {
            let lits: Vec<Lit> = fs.iter().map(|g| tseitin(g, atom_lit, cnf)).collect();
            let o = Lit::pos(cnf.new_var());
            // o -> l_i
            for &l in &lits {
                cnf.add_clause(vec![o.negate(), l]);
            }
            // (∧ l_i) -> o
            let mut big: Vec<Lit> = lits.iter().map(|l| l.negate()).collect();
            big.push(o);
            cnf.add_clause(big);
            o
        }
        Formula::Or(fs) => {
            let lits: Vec<Lit> = fs.iter().map(|g| tseitin(g, atom_lit, cnf)).collect();
            let o = Lit::pos(cnf.new_var());
            // l_i -> o
            for &l in &lits {
                cnf.add_clause(vec![l.negate(), o]);
            }
            // o -> (∨ l_i)
            let mut big: Vec<Lit> = lits.clone();
            big.push(o.negate());
            cnf.add_clause(big);
            o
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatOutcome;

    #[test]
    fn tseitin_and_or() {
        // (a || b) && !a  — satisfiable with b=true, a=false.
        let mut cnf = SatSolver::new();
        let va = cnf.new_var();
        let vb = cnf.new_var();
        let lookup = move |a: AtomId, pol: bool| {
            let v = if a.0 == 0 { va } else { vb };
            Lit::new(v, pol)
        };
        let f = Formula::And(vec![
            Formula::Or(vec![
                Formula::Lit(AtomId(0), true),
                Formula::Lit(AtomId(1), true),
            ]),
            Formula::Lit(AtomId(0), false),
        ]);
        let root = tseitin(&f, &lookup, &mut cnf);
        cnf.add_clause(vec![root]);
        match cnf.solve() {
            SatOutcome::Sat(m) => {
                assert!(!m[va as usize]);
                assert!(m[vb as usize]);
            }
            SatOutcome::Unsat => panic!("expected sat"),
        }
    }

    #[test]
    fn tseitin_unsat() {
        // a && !a
        let mut cnf = SatSolver::new();
        let va = cnf.new_var();
        let lookup = move |_: AtomId, pol: bool| Lit::new(va, pol);
        let f = Formula::And(vec![
            Formula::Lit(AtomId(0), true),
            Formula::Lit(AtomId(0), false),
        ]);
        let root = tseitin(&f, &lookup, &mut cnf);
        cnf.add_clause(vec![root]);
        assert_eq!(cnf.solve(), SatOutcome::Unsat);
    }
}
