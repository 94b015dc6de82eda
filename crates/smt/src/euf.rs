//! Congruence closure for the theory of equality with uninterpreted
//! functions (EUF).
//!
//! The implementation is a straightforward union-find plus a congruence
//! fixpoint over application nodes; arenas in RSC verification conditions
//! are small (tens of nodes), so the quadratic fixpoint is more than fast
//! enough and much easier to audit than an e-graph.

use crate::node::{Arena, ConstKind, Node, NodeId};

/// The result of running congruence closure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EufResult {
    /// The asserted (dis)equalities are consistent.
    Consistent,
    /// A conflict: two distinct interpreted constants were merged, or an
    /// asserted disequality was violated.
    Conflict,
}

/// A congruence-closure engine over an [`Arena`].
pub struct Euf<'a> {
    arena: &'a Arena,
    parent: Vec<u32>,
    diseqs: Vec<(NodeId, NodeId)>,
}

impl<'a> Euf<'a> {
    /// Creates an engine over the arena with every node in its own class.
    pub fn new(arena: &'a Arena) -> Self {
        Euf {
            arena,
            parent: (0..arena.len() as u32).collect(),
            diseqs: Vec::new(),
        }
    }

    /// The representative of `n`'s class.
    pub fn find(&mut self, n: NodeId) -> NodeId {
        let mut r = n.0;
        while self.parent[r as usize] != r {
            r = self.parent[r as usize];
        }
        // Path compression.
        let mut c = n.0;
        while self.parent[c as usize] != r {
            let next = self.parent[c as usize];
            self.parent[c as usize] = r;
            c = next;
        }
        NodeId(r)
    }

    /// Asserts `a = b`.
    pub fn merge(&mut self, a: NodeId, b: NodeId) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            // Prefer constant representatives for easy conflict checks.
            if self.arena.const_kind(ra).is_some() {
                self.parent[rb.0 as usize] = ra.0;
            } else {
                self.parent[ra.0 as usize] = rb.0;
            }
        }
    }

    /// Asserts `a != b`.
    pub fn assert_diseq(&mut self, a: NodeId, b: NodeId) {
        self.diseqs.push((a, b));
    }

    /// Runs the congruence fixpoint restricted to `apps` (the application
    /// nodes that can participate in a congruence) and checks consistency
    /// against the constants of `scope`, the query's subterm closure. A
    /// persistent incremental context shares one arena across many
    /// queries; restricting both to the current query makes the quadratic
    /// fixpoint quadratic in the *query*, not in everything the context
    /// ever encoded — and since merges only ever start from the query's
    /// own assertions, out-of-scope nodes stay in singleton classes and
    /// cannot contribute a conflict anyway.
    pub fn close_over(&mut self, apps: &[NodeId], scope: &[NodeId]) -> EufResult {
        loop {
            let mut changed = false;
            for i in 0..apps.len() {
                for j in (i + 1)..apps.len() {
                    let (id_i, id_j) = (apps[i], apps[j]);
                    if self.find(id_i) == self.find(id_j) {
                        continue;
                    }
                    if let (Node::App(f, ai, _), Node::App(g, aj, _)) =
                        (self.arena.node(id_i), self.arena.node(id_j))
                    {
                        if f == g
                            && ai.len() == aj.len()
                            && ai
                                .iter()
                                .zip(aj.iter())
                                .all(|(&x, &y)| self.find(x) == self.find(y))
                        {
                            self.merge(id_i, id_j);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Distinct-constant conflicts.
        let n = self.arena.len();
        let mut class_const: Vec<Option<ConstKind>> = vec![None; n];
        let mut scan_one = |this: &mut Self, id: NodeId| -> bool {
            if let Some(c) = this.arena.const_kind(id) {
                let r = this.find(id).0 as usize;
                match &class_const[r] {
                    None => class_const[r] = Some(c),
                    Some(c0) if *c0 != c => return false,
                    _ => {}
                }
            }
            true
        };
        for &id in scope {
            if !scan_one(self, id) {
                return EufResult::Conflict;
            }
        }
        // Asserted disequality conflicts.
        for (a, b) in self.diseqs.clone() {
            if self.find(a) == self.find(b) {
                return EufResult::Conflict;
            }
        }
        EufResult::Consistent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_logic::{Sort, Sym};

    /// Closes `e` over the query's own scope: each test arena holds
    /// exactly one query, so that is every node.
    fn close_query(e: &mut Euf) -> EufResult {
        let scope: Vec<NodeId> = e.arena.iter().map(|(id, _)| id).collect();
        let apps: Vec<NodeId> = scope
            .iter()
            .copied()
            .filter(|&id| matches!(e.arena.node(id), Node::App(..)))
            .collect();
        e.close_over(&apps, &scope)
    }

    fn var(a: &mut Arena, s: &str) -> NodeId {
        a.intern(Node::Var(Sym::from(s), Sort::Ref))
    }

    fn app(a: &mut Arena, f: &str, args: Vec<NodeId>) -> NodeId {
        a.intern(Node::App(Sym::from(f), args, Sort::Ref))
    }

    #[test]
    fn congruence_basic() {
        // x = y |= f(x) = f(y)
        let mut a = Arena::new();
        let x = var(&mut a, "x");
        let y = var(&mut a, "y");
        let fx = app(&mut a, "f", vec![x]);
        let fy = app(&mut a, "f", vec![y]);
        let mut e = Euf::new(&a);
        e.merge(x, y);
        e.assert_diseq(fx, fy);
        assert_eq!(close_query(&mut e), EufResult::Conflict);
    }

    #[test]
    fn transitive_congruence() {
        // x = y |= f(f(x)) = f(f(y))
        let mut a = Arena::new();
        let x = var(&mut a, "x");
        let y = var(&mut a, "y");
        let fx = app(&mut a, "f", vec![x]);
        let fy = app(&mut a, "f", vec![y]);
        let ffx = app(&mut a, "f", vec![fx]);
        let ffy = app(&mut a, "f", vec![fy]);
        let mut e = Euf::new(&a);
        e.merge(x, y);
        e.assert_diseq(ffx, ffy);
        assert_eq!(close_query(&mut e), EufResult::Conflict);
    }

    #[test]
    fn distinct_strings_conflict() {
        let mut a = Arena::new();
        let s1 = a.intern(Node::StrConst(Sym::from("number")));
        let s2 = a.intern(Node::StrConst(Sym::from("string")));
        let x = var(&mut a, "x");
        let tx = a.intern(Node::App(Sym::from("ttag"), vec![x], Sort::Str));
        let mut e = Euf::new(&a);
        e.merge(tx, s1);
        e.merge(tx, s2);
        assert_eq!(close_query(&mut e), EufResult::Conflict);
    }

    #[test]
    fn consistent_assertions() {
        let mut a = Arena::new();
        let x = var(&mut a, "x");
        let y = var(&mut a, "y");
        let fx = app(&mut a, "f", vec![x]);
        let gy = app(&mut a, "g", vec![y]);
        let mut e = Euf::new(&a);
        e.merge(x, y);
        e.assert_diseq(fx, gy); // different symbols: no congruence
        assert_eq!(close_query(&mut e), EufResult::Consistent);
    }

    #[test]
    fn true_false_conflict() {
        let mut a = Arena::new();
        let t = a.intern(Node::True);
        let f = a.intern(Node::False);
        let b = a.intern(Node::Var(Sym::from("b"), Sort::Bool));
        let mut e = Euf::new(&a);
        e.merge(b, t);
        e.merge(b, f);
        assert_eq!(close_query(&mut e), EufResult::Conflict);
    }
}
