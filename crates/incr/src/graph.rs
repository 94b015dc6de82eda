//! The unit-level dependency graph behind a [`crate::CheckSession`].
//!
//! Nodes are checkable units — top-level functions, class constructors
//! and methods, and the synthetic top-level body — each carrying two
//! content fingerprints: a `body_hash` over its SSA body and an
//! `iface_hash` over its declared signature. Both are derived [`Hash`]es
//! of the IR, in which spans hash to nothing: spans are provenance, and
//! since blame is re-attached from each run's own constraints (see
//! `rsc_liquid::blame`), a pure line shift changes no check result and
//! should not report a unit dirty.
//!
//! Edges follow syntactic references: calls by name, method names
//! reached through field access (a deliberate overapproximation —
//! receiver types are not resolved here), and `new C(...)` constructor
//! uses.
//!
//! A unit's *check input hash* combines its own hashes, the interface
//! hashes of its dependencies, the **body** hashes of any unannotated
//! (deferred) functions it can reach — their constraints are generated
//! inline at the call site — and the global declaration hash (aliases,
//! enums, interfaces, ambient declares, qualifiers, class declarations,
//! all of which feed the class table and qualifier mining).
//!
//! The graph powers the session's *reporting*:
//! [`DepGraph::dirty_against`] names the units whose inputs changed.
//! (The session's no-op fast path is keyed on source text instead,
//! because it must see span changes.) Which bundles actually re-solve
//! is decided one level lower, by exact
//! canonical bundle identity (`rsc_liquid::bundle_fingerprint`) — that
//! is strictly more precise and is what the byte-identical guarantee
//! rests on; the graph's dirty set is the human-readable explanation.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

use rsc_ssa::{Body, IrExpr, IrProgram};

/// The structural hash of `v`: its derived [`Hash`], in which spans
/// hash to nothing (`rsc_syntax::Span` is provenance — blame is
/// re-attached from each run's constraints and bundle fingerprints
/// exclude it), so two snapshots differing only in span positions — a
/// comment-only edit that shifts every line — hash equal here.
fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// One checkable unit and its content fingerprints.
#[derive(Clone, Debug)]
pub struct UnitNode {
    /// Stable display name: `fun:f`, `ctor:C`, `method:C.m`, or `top`.
    pub name: String,
    /// Hash of the unit's SSA body (spans excluded).
    pub body_hash: u64,
    /// Hash of the unit's declared interface (signatures).
    pub iface_hash: u64,
    /// True for unannotated (deferred) functions, whose bodies are
    /// checked inline at their call sites.
    pub transparent: bool,
    /// Indices of the units this unit references.
    pub deps: Vec<usize>,
    /// Byte offset of the unit's declaration in the program text. In a
    /// merged multi-file program this is what attributes a unit to its
    /// owning file (`u32::MAX` for the synthetic top-level unit, whose
    /// statements may span every file).
    pub span_lo: u32,
    /// True when the source marked the unit's declaration `export`
    /// (methods and constructors inherit their class's marker). The
    /// workspace keys its cross-file edges on the exported units'
    /// interface hashes — see [`DepGraph::export_surface`].
    pub exported: bool,
}

/// The dependency graph of one program snapshot.
#[derive(Clone, Debug, Default)]
pub struct DepGraph {
    /// Units in source order.
    pub units: Vec<UnitNode>,
    /// Hash of all non-body declarations (class tables, aliases, enums,
    /// interfaces, ambient declares, qualifiers) — an input to every
    /// unit's check.
    pub globals_hash: u64,
    /// Memoized [`DepGraph::check_input_hash`] per unit, computed once
    /// at build time so per-edit diffs are O(units), not O(units ×
    /// reachable).
    input_hashes: Vec<u64>,
}

/// Collects the syntactic references of an expression: variable names
/// (calls by name arrive as variables), field/method names, and `new`ed
/// class names (prefixed `new:`).
fn refs_of_expr(e: &IrExpr, out: &mut BTreeSet<String>) {
    match e {
        IrExpr::Var(x, _) => {
            out.insert(x.to_string());
        }
        IrExpr::Field(b, f, _) => {
            out.insert(f.to_string());
            refs_of_expr(b, out);
        }
        IrExpr::Index(a, i, _) => {
            refs_of_expr(a, out);
            refs_of_expr(i, out);
        }
        IrExpr::Call(f, args, _) => {
            refs_of_expr(f, out);
            for a in args {
                refs_of_expr(a, out);
            }
        }
        IrExpr::New(c, _, args, _) => {
            out.insert(format!("new:{c}"));
            for a in args {
                refs_of_expr(a, out);
            }
        }
        IrExpr::Cast(_, x, _) | IrExpr::Unary(_, x, _) => refs_of_expr(x, out),
        IrExpr::Binary(_, a, b, _) => {
            refs_of_expr(a, out);
            refs_of_expr(b, out);
        }
        IrExpr::ArrayLit(xs, _) => {
            for x in xs {
                refs_of_expr(x, out);
            }
        }
        IrExpr::FieldAssign(b, f, v, _) => {
            out.insert(f.to_string());
            refs_of_expr(b, out);
            refs_of_expr(v, out);
        }
        IrExpr::IndexAssign(a, i, v, _) => {
            refs_of_expr(a, out);
            refs_of_expr(i, out);
            refs_of_expr(v, out);
        }
        _ => {}
    }
}

fn refs_of_body(b: &Body, out: &mut BTreeSet<String>) {
    match b {
        Body::Ret(e, _) => {
            if let Some(e) = e {
                refs_of_expr(e, out);
            }
        }
        Body::EndBranch(_) => {}
        Body::Let { rhs, rest, .. } => {
            refs_of_expr(rhs, out);
            refs_of_body(rest, out);
        }
        Body::Effect { e, rest, .. } => {
            refs_of_expr(e, out);
            refs_of_body(rest, out);
        }
        Body::If {
            cond,
            then_br,
            else_br,
            rest,
            ..
        } => {
            refs_of_expr(cond, out);
            refs_of_body(then_br, out);
            refs_of_body(else_br, out);
            refs_of_body(rest, out);
        }
        Body::Loop {
            cond, body, rest, ..
        } => {
            refs_of_expr(cond, out);
            refs_of_body(body, out);
            refs_of_body(rest, out);
        }
        Body::LetFun { fun, rest, .. } => {
            refs_of_body(&fun.body, out);
            refs_of_body(rest, out);
        }
    }
}

impl DepGraph {
    /// Builds the graph for one SSA program snapshot.
    pub fn build(ir: &IrProgram) -> DepGraph {
        let mut units: Vec<UnitNode> = Vec::new();
        let mut unit_refs: Vec<BTreeSet<String>> = Vec::new();
        // name → unit indices answering to it (a method name can resolve
        // to several classes' methods; all become deps).
        let mut resolve: HashMap<String, Vec<usize>> = HashMap::new();

        let exported: BTreeSet<&str> = ir.exports.iter().map(|s| s.as_str()).collect();

        #[allow(clippy::too_many_arguments)]
        let push = |units: &mut Vec<UnitNode>,
                    unit_refs: &mut Vec<BTreeSet<String>>,
                    resolve: &mut HashMap<String, Vec<usize>>,
                    name: String,
                    keys: Vec<String>,
                    body_hash: u64,
                    iface_hash: u64,
                    transparent: bool,
                    span_lo: u32,
                    exported: bool,
                    refs: BTreeSet<String>| {
            let idx = units.len();
            units.push(UnitNode {
                name,
                body_hash,
                iface_hash,
                transparent,
                deps: Vec::new(),
                span_lo,
                exported,
            });
            unit_refs.push(refs);
            for k in keys {
                resolve.entry(k).or_default().push(idx);
            }
        };

        for f in &ir.funs {
            let mut refs = BTreeSet::new();
            refs_of_body(&f.body, &mut refs);
            push(
                &mut units,
                &mut unit_refs,
                &mut resolve,
                format!("fun:{}", f.name),
                vec![f.name.to_string()],
                hash_of(&(&f.params, &f.body)),
                hash_of(&f.sigs),
                f.sigs.is_empty(),
                f.span.lo,
                exported.contains(f.name.as_str()),
                refs,
            );
        }
        for c in &ir.classes {
            let cname = c.decl.name.to_string();
            let class_exported = exported.contains(cname.as_str());
            if let Some(ctor) = &c.ctor {
                let mut refs = BTreeSet::new();
                refs_of_body(&ctor.body, &mut refs);
                push(
                    &mut units,
                    &mut unit_refs,
                    &mut resolve,
                    format!("ctor:{cname}"),
                    vec![format!("new:{cname}")],
                    hash_of(&(&ctor.params, &ctor.body)),
                    hash_of(&ctor.params),
                    false,
                    ctor.span.lo,
                    class_exported,
                    refs,
                );
            }
            for m in &c.methods {
                let mut refs = BTreeSet::new();
                if let Some(body) = &m.body {
                    refs_of_body(body, &mut refs);
                }
                push(
                    &mut units,
                    &mut unit_refs,
                    &mut resolve,
                    format!("method:{cname}.{}", m.name),
                    vec![m.name.to_string()],
                    hash_of(&m.body),
                    hash_of(&(m.recv, &m.sig)),
                    false,
                    m.span.lo,
                    class_exported,
                    refs,
                );
            }
        }
        {
            let mut refs = BTreeSet::new();
            refs_of_body(&ir.top, &mut refs);
            push(
                &mut units,
                &mut unit_refs,
                &mut resolve,
                "top".to_string(),
                vec![],
                hash_of(&ir.top),
                0,
                false,
                u32::MAX,
                false,
                refs,
            );
        }

        // Resolve references to edges.
        for (i, refs) in unit_refs.iter().enumerate() {
            let mut deps: BTreeSet<usize> = BTreeSet::new();
            for r in refs {
                if let Some(targets) = resolve.get(r) {
                    for &t in targets {
                        if t != i {
                            deps.insert(t);
                        }
                    }
                }
            }
            units[i].deps = deps.into_iter().collect();
        }

        let decls: Vec<_> = ir.classes.iter().map(|c| &c.decl).collect();
        let globals_hash = hash_of(&(
            &ir.aliases,
            &ir.quals,
            &ir.enums,
            &ir.interfaces,
            &ir.declares,
            decls,
        ));
        let mut graph = DepGraph {
            units,
            globals_hash,
            input_hashes: Vec::new(),
        };
        graph.input_hashes = (0..graph.units.len())
            .map(|i| graph.check_input_hash(i))
            .collect();
        graph
    }

    /// The unit's full check input: its own body and interface, its
    /// dependencies' interfaces, the bodies of reachable transparent
    /// (unannotated) functions, and the global declaration hash.
    pub fn check_input_hash(&self, unit: usize) -> u64 {
        let mut h = DefaultHasher::new();
        h.write_u64(self.globals_hash);
        let mut visited = vec![false; self.units.len()];
        let mut stack = vec![(unit, true)];
        // Deterministic traversal: stack of (unit, include_body). Only
        // units whose *body* is checked here expose their dependencies:
        // an annotated dep contributes its interface and stops the walk
        // (its body is its own unit's problem), while a transparent dep
        // is expanded — its body is generated inline at this unit's call
        // sites, so its own deps matter too. This bounds the walk to the
        // direct deps plus the transparent closure.
        while let Some((i, with_body)) = stack.pop() {
            if visited[i] {
                continue;
            }
            visited[i] = true;
            let u = &self.units[i];
            h.write_u64(u.iface_hash);
            if with_body {
                h.write_u64(u.body_hash);
                for &d in &u.deps {
                    // Every pusher computes the same `with_body` for a
                    // given node, so the first visit is authoritative.
                    if !visited[d] {
                        stack.push((d, self.units[d].transparent));
                    }
                }
            }
        }
        h.finish()
    }

    /// A fingerprint of the file's *export surface* — everything another
    /// file can observe of this one through `import`:
    ///
    /// * each exported unit's `iface_hash` (and, for transparent
    ///   functions whose bodies are inlined at their call sites, the
    ///   `body_hash` too),
    /// * the global declaration hash (type aliases, interfaces, enums,
    ///   ambient declares, qualifiers, class shapes — all of which feed
    ///   the merged program's class table and qualifier mining
    ///   regardless of export markers).
    ///
    /// The workspace keys its cross-file dependency edges on this value:
    /// an importer is flagged dirty exactly when a dependency's export
    /// surface changed, so a non-exported body edit never dirties
    /// importers while an exported-signature edit dirties them all.
    /// Built per *file* (not per merged program) by the workspace layer.
    pub fn export_surface(&self) -> u64 {
        let mut h = DefaultHasher::new();
        h.write_u64(self.globals_hash);
        for u in &self.units {
            if !u.exported {
                continue;
            }
            h.write(u.name.as_bytes());
            h.write_u64(u.iface_hash);
            if u.transparent {
                h.write_u64(u.body_hash);
            }
        }
        h.finish()
    }

    /// Names of units whose check inputs changed relative to `prev`
    /// (including units that did not exist before). Removed units do not
    /// appear — their constraints simply vanish from the new run.
    pub fn dirty_against(&self, prev: &DepGraph) -> Vec<String> {
        let prev_by_name: HashMap<&str, usize> = prev
            .units
            .iter()
            .enumerate()
            .map(|(i, u)| (u.name.as_str(), i))
            .collect();
        let mut dirty = Vec::new();
        for (i, u) in self.units.iter().enumerate() {
            match prev_by_name.get(u.name.as_str()) {
                Some(&j) => {
                    // Both sides memoized at build time: the diff is
                    // O(units) per edit.
                    if self.input_hashes[i] != prev.input_hashes[j] {
                        dirty.push(u.name.clone());
                    }
                }
                None => dirty.push(u.name.clone()),
            }
        }
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(src: &str) -> DepGraph {
        let prog = rsc_syntax::parse_program(src).expect("parse");
        let ir = rsc_ssa::transform_program(&prog).expect("ssa");
        DepGraph::build(&ir)
    }

    const BASE: &str = r#"
        function inc(x: number): number { return x + 1; }
        function twice(x: number): number { return inc(inc(x)); }
        function lone(x: number): number { return x; }
    "#;

    #[test]
    fn body_edit_dirties_only_the_editee() {
        let g1 = graph(BASE);
        let g2 = graph(&BASE.replace("return x + 1;", "return x + 2;"));
        let dirty = g2.dirty_against(&g1);
        assert_eq!(dirty, vec!["fun:inc".to_string()]);
    }

    #[test]
    fn signature_edit_dirties_callers() {
        let g1 = graph(BASE);
        let g2 = graph(&BASE.replace(
            "function inc(x: number): number",
            "function inc(x: number): {v: number | x < v}",
        ));
        let dirty = g2.dirty_against(&g1);
        assert!(dirty.contains(&"fun:inc".to_string()), "{dirty:?}");
        assert!(dirty.contains(&"fun:twice".to_string()), "{dirty:?}");
        assert!(!dirty.contains(&"fun:lone".to_string()), "{dirty:?}");
    }

    #[test]
    fn call_edges_resolve() {
        let g = graph(BASE);
        let twice = g.units.iter().position(|u| u.name == "fun:twice").unwrap();
        let inc = g.units.iter().position(|u| u.name == "fun:inc").unwrap();
        assert!(g.units[twice].deps.contains(&inc));
    }

    #[test]
    fn comment_only_edit_dirties_nothing() {
        // A comment insertion shifts every span but changes no check
        // input: the dirty report must be empty (fingerprints re-solve
        // nothing, and blame lines come from the current run).
        let g1 = graph(BASE);
        let g2 = graph(&format!("// shifted\n\n{BASE}"));
        assert_eq!(g2.dirty_against(&g1), Vec::<String>::new());
    }

    /// Spans are left out of the hash structurally, not by rewriting a
    /// rendering, so a string literal that spells a span is content
    /// like any other.
    #[test]
    fn span_lookalike_literals_hash_apart() {
        let body = |lit: &str| {
            let g = graph(&format!("function f(): string {{ return \"{lit}\"; }}"));
            g.units[0].body_hash
        };
        assert_ne!(
            body("Span { lo: 1, hi: 2, line: 3 }"),
            body("Span { lo: 4, hi: 5, line: 6 }")
        );
    }

    const LIB: &str = r#"
        export function step(x: number): number { return x + 1; }
        function helper(x: number): number { return x - 1; }
    "#;

    #[test]
    fn export_surface_ignores_private_bodies() {
        let base = graph(LIB).export_surface();
        // Editing a non-exported body leaves the surface untouched…
        let private_edit = graph(&LIB.replace("return x - 1;", "return x - 2;"));
        assert_eq!(base, private_edit.export_surface());
        // …and so does editing an exported *body* behind an annotation…
        let body_edit = graph(&LIB.replace("return x + 1;", "return x + 2;"));
        assert_eq!(base, body_edit.export_surface());
        // …but an exported-signature edit changes it.
        let sig_edit = graph(&LIB.replace(
            "export function step(x: number): number",
            "export function step(x: number): {v: number | x < v}",
        ));
        assert_ne!(base, sig_edit.export_surface());
    }

    #[test]
    fn export_surface_sees_transparent_export_bodies() {
        // An exported *unannotated* function's body is inlined at its
        // call sites, so it is part of the surface.
        let src = "export function f(x) { return x + 1; }";
        let a = graph(src).export_surface();
        let b = graph(&src.replace("x + 1", "x + 2")).export_surface();
        assert_ne!(a, b);
    }

    #[test]
    fn units_carry_spans_and_export_flags() {
        let g = graph(LIB);
        let step = g.units.iter().find(|u| u.name == "fun:step").unwrap();
        let helper = g.units.iter().find(|u| u.name == "fun:helper").unwrap();
        assert!(step.exported && !helper.exported);
        assert!(step.span_lo < helper.span_lo);
        assert_eq!(g.units.last().unwrap().span_lo, u32::MAX);
    }
}
