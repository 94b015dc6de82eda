//! A control-flow-graph view over the tree-shaped [`Body`] IR, for
//! forward dataflow analyses (`rsc_absint`).
//!
//! The SSA translation produces a recursive body whose `If`/`Loop` nodes
//! carry their continuations; dataflow engines want basic blocks with
//! explicit successor edges instead. [`Cfg::build`] lowers a
//! body into blocks that *borrow* the underlying expressions (no IR is
//! cloned), with φ-assignments and branch assumptions attached to the
//! edges that perform them:
//!
//! * a conditional's two out-edges each carry the branch condition with
//!   its polarity (`assume`), so an analysis can refine facts
//!   path-sensitively;
//! * the edge into a join block carries the φ-copies of the arm it
//!   leaves (`copies`); the edges into a loop head carry the loop-φ
//!   init/body copies, and the head is flagged [`Block::loop_head`] so
//!   engines know where to widen.
//!
//! Reverse postorder ([`Cfg::rpo`]) is provided as a utility; it is a
//! deterministic function of the body.

use rsc_logic::Sym;
use rsc_syntax::types::AnnTy;
use rsc_syntax::Span;

use crate::ir::{Body, IrExpr, IrFun};

/// Index of a basic block in [`Cfg::blocks`]. Block 0 is the entry.
pub type BlockId = usize;

/// A straight-line statement inside a block.
#[derive(Clone, Copy, Debug)]
pub enum Stmt<'a> {
    /// `let x = rhs` (with the optional source annotation).
    Let {
        /// The bound SSA variable.
        x: &'a Sym,
        /// The source annotation, when present.
        ann: Option<&'a AnnTy>,
        /// The right-hand side.
        rhs: &'a IrExpr,
        /// The binding's source span.
        span: Span,
    },
    /// An expression evaluated for effect.
    Effect {
        /// The effectful expression.
        e: &'a IrExpr,
        /// The statement's source span.
        span: Span,
    },
    /// A nested function definition bound as a value.
    Fun {
        /// The nested function.
        fun: &'a IrFun,
    },
}

/// A directed edge between blocks, carrying the work the control
/// transfer performs: an assumed branch condition and/or φ-copies.
#[derive(Clone, Debug)]
pub struct Edge<'a> {
    /// The target block.
    pub to: BlockId,
    /// A branch condition assumed along this edge (`true` = the
    /// condition holds, `false` = its negation holds).
    pub assume: Option<(&'a IrExpr, bool)>,
    /// φ-assignments `dst ← src` performed along this edge.
    pub copies: Vec<(Sym, Sym)>,
}

/// How a block ends.
#[derive(Clone, Copy, Debug)]
pub enum Terminator<'a> {
    /// `return e` / void return: no successors.
    Ret(Option<&'a IrExpr>, Span),
    /// A two-way branch on `cond`: the block has exactly two out-edges,
    /// the first assuming `cond`, the second assuming `¬cond`.
    Branch(&'a IrExpr, Span),
    /// An unconditional transfer (exactly one out-edge).
    Jump,
}

/// A basic block.
#[derive(Clone, Debug)]
pub struct Block<'a> {
    /// Straight-line statements, in execution order.
    pub stmts: Vec<Stmt<'a>>,
    /// The block terminator.
    pub term: Terminator<'a>,
    /// Out-edges (0 for `Ret`, 1 for `Jump`, 2 for `Branch`).
    pub succs: Vec<Edge<'a>>,
    /// True for loop-head blocks (widening points).
    pub loop_head: bool,
}

impl<'a> Block<'a> {
    fn new() -> Self {
        Block {
            stmts: Vec::new(),
            term: Terminator::Jump,
            succs: Vec::new(),
            loop_head: false,
        }
    }
}

/// The CFG of one function body.
#[derive(Clone, Debug)]
pub struct Cfg<'a> {
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block<'a>>,
}

impl<'a> Cfg<'a> {
    /// Lowers a body into a CFG. Purely structural and deterministic:
    /// blocks are allocated in a fixed traversal order of the tree.
    pub fn build(body: &'a Body) -> Cfg<'a> {
        let mut cfg = Cfg {
            blocks: vec![Block::new()],
        };
        cfg.lower(body, 0, None);
        cfg
    }

    fn fresh(&mut self) -> BlockId {
        self.blocks.push(Block::new());
        self.blocks.len() - 1
    }

    /// Lowers `body` starting in `cur`. `exit` is where an `EndBranch`
    /// transfers to, together with the φ-copies that edge performs (the
    /// enclosing join for conditional arms, the loop head for loop
    /// bodies).
    fn lower(&mut self, body: &'a Body, cur: BlockId, exit: Option<(BlockId, &[(Sym, Sym)])>) {
        match body {
            Body::Ret(e, span) => {
                self.blocks[cur].term = Terminator::Ret(e.as_ref(), *span);
            }
            Body::EndBranch(_) => {
                let (to, copies) = exit.expect("EndBranch outside a branch arm");
                self.blocks[cur].term = Terminator::Jump;
                self.blocks[cur].succs.push(Edge {
                    to,
                    assume: None,
                    copies: copies.to_vec(),
                });
            }
            Body::Let {
                x,
                ann,
                rhs,
                rest,
                span,
            } => {
                self.blocks[cur].stmts.push(Stmt::Let {
                    x,
                    ann: ann.as_ref(),
                    rhs,
                    span: *span,
                });
                self.lower(rest, cur, exit);
            }
            Body::Effect { e, rest, span } => {
                self.blocks[cur].stmts.push(Stmt::Effect { e, span: *span });
                self.lower(rest, cur, exit);
            }
            Body::LetFun { fun, rest, .. } => {
                self.blocks[cur].stmts.push(Stmt::Fun { fun });
                self.lower(rest, cur, exit);
            }
            Body::If {
                cond,
                phis,
                then_br,
                else_br,
                rest,
                span,
                ..
            } => {
                let then_entry = self.fresh();
                let else_entry = self.fresh();
                let join = self.fresh();
                self.blocks[cur].term = Terminator::Branch(cond, *span);
                self.blocks[cur].succs.push(Edge {
                    to: then_entry,
                    assume: Some((cond, true)),
                    copies: Vec::new(),
                });
                self.blocks[cur].succs.push(Edge {
                    to: else_entry,
                    assume: Some((cond, false)),
                    copies: Vec::new(),
                });
                let then_copies: Vec<(Sym, Sym)> = phis
                    .iter()
                    .filter_map(|p| p.then_src.map(|s| (p.new, s)))
                    .collect();
                let else_copies: Vec<(Sym, Sym)> = phis
                    .iter()
                    .filter_map(|p| p.else_src.map(|s| (p.new, s)))
                    .collect();
                // An arm that does not fall through never reaches its
                // `EndBranch`; its returns terminate inside the arm.
                self.lower(then_br, then_entry, Some((join, &then_copies)));
                self.lower(else_br, else_entry, Some((join, &else_copies)));
                self.lower(rest, join, exit);
            }
            Body::Loop {
                phis,
                cond,
                body,
                rest,
                span,
            } => {
                let head = self.fresh();
                let body_entry = self.fresh();
                let rest_entry = self.fresh();
                self.blocks[head].loop_head = true;
                let init_copies: Vec<(Sym, Sym)> =
                    phis.iter().map(|p| (p.new, p.init_src)).collect();
                self.blocks[cur].term = Terminator::Jump;
                self.blocks[cur].succs.push(Edge {
                    to: head,
                    assume: None,
                    copies: init_copies,
                });
                self.blocks[head].term = Terminator::Branch(cond, *span);
                self.blocks[head].succs.push(Edge {
                    to: body_entry,
                    assume: Some((cond, true)),
                    copies: Vec::new(),
                });
                self.blocks[head].succs.push(Edge {
                    to: rest_entry,
                    assume: Some((cond, false)),
                    copies: Vec::new(),
                });
                let body_copies: Vec<(Sym, Sym)> = phis
                    .iter()
                    .filter_map(|p| p.body_src.map(|s| (p.new, s)))
                    .collect();
                self.lower(body, body_entry, Some((head, &body_copies)));
                self.lower(rest, rest_entry, exit);
            }
        }
    }

    /// Reverse postorder over the successor graph from the entry block.
    /// Unreachable blocks (joins of two returning arms) are omitted.
    pub fn rpo(&self) -> Vec<BlockId> {
        let mut seen = vec![false; self.blocks.len()];
        let mut post = Vec::with_capacity(self.blocks.len());
        // Iterative DFS with an explicit "children pushed" marker so the
        // postorder matches the recursive formulation exactly.
        let mut stack: Vec<(BlockId, bool)> = vec![(0, false)];
        while let Some((b, expanded)) = stack.pop() {
            if expanded {
                post.push(b);
                continue;
            }
            if seen[b] {
                continue;
            }
            seen[b] = true;
            stack.push((b, true));
            for e in self.blocks[b].succs.iter().rev() {
                if !seen[e.to] {
                    stack.push((e.to, false));
                }
            }
        }
        post.reverse();
        post
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_of(src: &str) -> (crate::ir::IrProgram, ()) {
        let prog = rsc_syntax::parse_program(src).unwrap();
        (crate::transform_program(&prog), ())
    }

    /// The blocks with an out-edge into `to`.
    fn preds(cfg: &Cfg<'_>, to: BlockId) -> Vec<BlockId> {
        (0..cfg.blocks.len())
            .filter(|&b| cfg.blocks[b].succs.iter().any(|e| e.to == to))
            .collect()
    }

    #[test]
    fn straight_line_is_one_block() {
        let (ir, _) = cfg_of("function f(): number { var x = 1; var y = x + 1; return y; }");
        let cfg = Cfg::build(&ir.funs[0].body);
        assert_eq!(cfg.blocks.len(), 1);
        assert_eq!(cfg.blocks[0].stmts.len(), 2);
        assert!(matches!(cfg.blocks[0].term, Terminator::Ret(..)));
    }

    #[test]
    fn ite_makes_diamond_with_phi_copies() {
        let (ir, _) = cfg_of(
            "function f(c: boolean): number {
                 var x = 0;
                 if (c) { x = 1; } else { x = 2; }
                 return x;
             }",
        );
        let cfg = Cfg::build(&ir.funs[0].body);
        // entry, then, else, join.
        assert_eq!(cfg.blocks.len(), 4);
        assert!(matches!(cfg.blocks[0].term, Terminator::Branch(..)));
        assert_eq!(cfg.blocks[0].succs.len(), 2);
        assert_eq!(
            cfg.blocks[0].succs[0].assume.map(|(_, pol)| pol),
            Some(true)
        );
        assert_eq!(
            cfg.blocks[0].succs[1].assume.map(|(_, pol)| pol),
            Some(false)
        );
        let join = cfg.blocks[0].succs[0].to;
        let join = cfg.blocks[join].succs[0].to;
        assert_eq!(preds(&cfg, join).len(), 2);
        // Each arm's out-edge carries exactly one φ-copy for x.
        for p in preds(&cfg, join) {
            let e = &cfg.blocks[p].succs[0];
            assert_eq!(e.copies.len(), 1, "arm edge must copy the φ source");
        }
    }

    #[test]
    fn loop_head_is_flagged_and_has_back_edge() {
        let (ir, _) = cfg_of(
            "function f(): number {
                 var i = 0;
                 while (i < 10) { i = i + 1; }
                 return i;
             }",
        );
        let cfg = Cfg::build(&ir.funs[0].body);
        let head = (0..cfg.blocks.len())
            .find(|&b| cfg.blocks[b].loop_head)
            .expect("a loop head");
        // Entry edge + back edge.
        assert_eq!(preds(&cfg, head).len(), 2);
        assert!(matches!(cfg.blocks[head].term, Terminator::Branch(..)));
    }

    #[test]
    fn rpo_visits_reachable_blocks_once() {
        let (ir, _) = cfg_of(
            "function f(c: boolean): number {
                 if (c) { return 1; } else { return 2; }
             }",
        );
        let cfg = Cfg::build(&ir.funs[0].body);
        let rpo = cfg.rpo();
        let mut sorted = rpo.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), rpo.len(), "no duplicates");
        assert_eq!(rpo[0], 0, "entry first");
        // The join of two returning arms is unreachable and omitted.
        assert!(rpo.len() < cfg.blocks.len());
    }
}
