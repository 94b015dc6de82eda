//! Hash-consed term arena shared by the EUF and LIA theory solvers.

use rsc_logic::{FxHashMap, Sort, Sym};

/// Index of a node in the [`Arena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// A first-order term node. Arithmetic is *not* represented here: linear
/// expressions live in [`crate::lia::LinExp`] over these nodes, and
/// nonlinear operations appear as uninterpreted applications (`mul`, `div`,
/// `mod`).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Node {
    /// A free variable with its sort.
    Var(Sym, Sort),
    /// An integer constant.
    IntConst(i64),
    /// A string constant (distinct from every other string constant).
    StrConst(Sym),
    /// The boolean constant `true`.
    True,
    /// The boolean constant `false`.
    False,
    /// An uninterpreted application with its result sort.
    App(Sym, Vec<NodeId>, Sort),
    /// A fresh node standing for a compound integer expression that occurs
    /// in an uninterpreted-function argument position; the encoder emits a
    /// defining equation for it.
    Lifted(u32),
}

/// The kind of interpreted constant a node denotes, used for conflict
/// detection inside congruence classes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ConstKind {
    /// Integer constant.
    Int(i64),
    /// String constant.
    Str(Sym),
    /// Boolean constant.
    Bool(bool),
}

/// A hash-consed arena of [`Node`]s.
#[derive(Default, Debug)]
pub struct Arena {
    nodes: Vec<Node>,
    sorts: Vec<Sort>,
    map: FxHashMap<Node, NodeId>,
}

impl Arena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Arena::default()
    }

    /// Interns a node, returning its id.
    pub fn intern(&mut self, n: Node) -> NodeId {
        if let Some(&id) = self.map.get(&n) {
            return id;
        }
        let sort = match &n {
            Node::Var(_, s) => *s,
            Node::IntConst(_) => Sort::Int,
            Node::StrConst(_) => Sort::Str,
            Node::True | Node::False => Sort::Bool,
            Node::App(_, _, s) => *s,
            Node::Lifted(_) => Sort::Int,
        };
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(n.clone());
        self.sorts.push(sort);
        self.map.insert(n, id);
        id
    }

    /// Allocates a fresh lifted node (for compound integer arguments).
    pub fn fresh_lifted(&mut self) -> NodeId {
        let k = self.nodes.len() as u32;
        self.intern(Node::Lifted(k))
    }

    /// The node stored at `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// The sort of the node at `id`.
    pub fn sort(&self, id: NodeId) -> Sort {
        self.sorts[id.0 as usize]
    }

    /// Number of interned nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The interpreted constant denoted by a node, if any.
    pub fn const_kind(&self, id: NodeId) -> Option<ConstKind> {
        match self.node(id) {
            Node::IntConst(n) => Some(ConstKind::Int(*n)),
            Node::StrConst(s) => Some(ConstKind::Str(*s)),
            Node::True => Some(ConstKind::Bool(true)),
            Node::False => Some(ConstKind::Bool(false)),
            _ => None,
        }
    }

    /// Iterates over all (id, node) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing() {
        let mut a = Arena::new();
        let x1 = a.intern(Node::Var(Sym::from("x"), Sort::Int));
        let x2 = a.intern(Node::Var(Sym::from("x"), Sort::Int));
        assert_eq!(x1, x2);
        assert_eq!(a.len(), 1);
        let f1 = a.intern(Node::App(Sym::from("f"), vec![x1], Sort::Int));
        let f2 = a.intern(Node::App(Sym::from("f"), vec![x2], Sort::Int));
        assert_eq!(f1, f2);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn sorts_recorded() {
        let mut a = Arena::new();
        let s = a.intern(Node::StrConst(Sym::from("number")));
        assert_eq!(a.sort(s), Sort::Str);
        assert_eq!(a.const_kind(s), Some(ConstKind::Str(Sym::from("number"))));
    }

    #[test]
    fn lifted_nodes_are_fresh() {
        let mut a = Arena::new();
        let l1 = a.fresh_lifted();
        let l2 = a.fresh_lifted();
        assert_ne!(l1, l2);
    }
}
