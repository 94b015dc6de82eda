//! The class table (structural constraints of Figure 16: `fields`,
//! `hasImm`/`hasMut`, `inv`) and the resolver from surface annotations
//! ([`AnnTy`]) to checker types ([`RType`]), including dependent type
//! alias expansion (`idx<a>`, `grid<this.w, this.h>`, …).

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use rsc_logic::{FunSig, Pred, Sort, Subst, Sym, Term};
use rsc_syntax::ast::{ClassDecl, EnumDecl, FieldMut, InterfaceDecl, TypeAlias};
use rsc_syntax::types::{AnnArg, AnnTy, FunTy};
use rsc_syntax::Mutability;

use crate::rtype::{Base, RFun, RType};

/// A resolved field.
#[derive(Clone, Debug)]
pub struct FieldInfo {
    /// Field name.
    pub name: Sym,
    /// True for `immutable` fields (assignable only during construction;
    /// usable in refinements).
    pub imm: bool,
    /// Declared type; refinements may mention `this`.
    pub ty: RType,
}

/// A resolved method.
#[derive(Clone, Debug)]
pub struct MethodInfo {
    /// Method name.
    pub name: Sym,
    /// Receiver mutability requirement.
    pub recv: Mutability,
    /// Resolved signature.
    pub fun: RFun,
}

/// A class or interface entry.
#[derive(Clone, Debug)]
pub struct ObjInfo {
    /// Name.
    pub name: Sym,
    /// True for interfaces.
    pub is_interface: bool,
    /// Type parameters.
    pub tparams: Vec<Sym>,
    /// Direct supertypes.
    pub extends: Vec<Sym>,
    /// Fields declared here (not inherited).
    pub fields: Vec<FieldInfo>,
    /// Methods declared here.
    pub methods: Vec<MethodInfo>,
    /// Explicit class invariant (over `v`), `true` if absent.
    pub invariant: Pred,
    /// Constructor parameters, if a constructor is declared.
    pub ctor_params: Option<Vec<(Sym, RType)>>,
}

/// An error during type resolution.
#[derive(Clone, Debug)]
pub struct ResolveError(pub String);

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "type resolution error: {}", self.0)
    }
}

impl std::error::Error for ResolveError {}

/// The class table: every named object type, enum and alias in the
/// program.
#[derive(Debug, Default)]
pub struct ClassTable {
    /// Classes and interfaces.
    pub objs: HashMap<Sym, ObjInfo>,
    /// Enums: member → 32-bit value.
    pub enums: HashMap<Sym, HashMap<Sym, u32>>,
    aliases: HashMap<Sym, TypeAlias>,
}

impl ClassTable {
    /// Builds the table from declarations (two passes: names, then types).
    pub fn build(
        aliases: &[TypeAlias],
        enums: &[EnumDecl],
        interfaces: &[InterfaceDecl],
        classes: &[ClassDecl],
    ) -> Result<ClassTable, ResolveError> {
        let mut ct = ClassTable::default();
        for a in aliases {
            ct.aliases.insert(a.name, a.clone());
        }
        for e in enums {
            ct.enums.insert(e.name, e.members.iter().cloned().collect());
        }
        // Pre-declare object names so mutually recursive references resolve.
        for i in interfaces {
            ct.objs.insert(
                i.name,
                ObjInfo {
                    name: i.name,
                    is_interface: true,
                    tparams: i.tparams.clone(),
                    extends: i.extends.clone(),
                    fields: Vec::new(),
                    methods: Vec::new(),
                    invariant: Pred::True,
                    ctor_params: None,
                },
            );
        }
        for c in classes {
            ct.objs.insert(
                c.name,
                ObjInfo {
                    name: c.name,
                    is_interface: false,
                    tparams: c.tparams.clone(),
                    extends: c.extends.iter().cloned().collect(),
                    fields: Vec::new(),
                    methods: Vec::new(),
                    invariant: c.invariant.clone().unwrap_or(Pred::True),
                    ctor_params: None,
                },
            );
        }
        // Second pass: resolve member types.
        for i in interfaces {
            let tp: HashSet<Sym> = i.tparams.iter().cloned().collect();
            let fields = ct.resolve_fields(&i.fields, &tp)?;
            let methods = ct.resolve_methods_iface(i, &tp)?;
            let e = ct.objs.get_mut(&i.name).unwrap();
            e.fields = fields;
            e.methods = methods;
        }
        for c in classes {
            let tp: HashSet<Sym> = c.tparams.iter().cloned().collect();
            let fields = ct.resolve_fields(&c.fields, &tp)?;
            let mut methods = Vec::new();
            for m in &c.methods {
                methods.push(MethodInfo {
                    name: m.name,
                    recv: m.recv,
                    fun: ct.resolve_funty(&m.sig, &tp)?,
                });
            }
            let ctor_params = match &c.ctor {
                Some(ctor) => {
                    let mut ps = Vec::new();
                    for (x, t) in &ctor.params {
                        ps.push((*x, ct.resolve_in(t, &tp)?));
                    }
                    Some(ps)
                }
                None => None,
            };
            let e = ct.objs.get_mut(&c.name).unwrap();
            e.fields = fields;
            e.methods = methods;
            e.ctor_params = ctor_params;
        }
        Ok(ct)
    }

    fn resolve_fields(
        &self,
        fields: &[rsc_syntax::ast::FieldDecl],
        tp: &HashSet<Sym>,
    ) -> Result<Vec<FieldInfo>, ResolveError> {
        fields
            .iter()
            .map(|f| {
                Ok(FieldInfo {
                    name: f.name,
                    imm: f.mutability == FieldMut::Immutable,
                    ty: self.resolve_in(&f.ty, tp)?,
                })
            })
            .collect()
    }

    fn resolve_methods_iface(
        &self,
        i: &InterfaceDecl,
        tp: &HashSet<Sym>,
    ) -> Result<Vec<MethodInfo>, ResolveError> {
        i.methods
            .iter()
            .map(|m| {
                Ok(MethodInfo {
                    name: m.name,
                    recv: m.recv,
                    fun: self.resolve_funty(&m.sig, tp)?,
                })
            })
            .collect()
    }

    /// All ancestors of `name` (not including itself), transitively.
    pub fn ancestors(&self, name: &Sym) -> Vec<Sym> {
        let mut out = Vec::new();
        let mut stack: Vec<Sym> = match self.objs.get(name) {
            Some(o) => o.extends.clone(),
            None => return out,
        };
        while let Some(n) = stack.pop() {
            if out.contains(&n) {
                continue;
            }
            if let Some(o) = self.objs.get(&n) {
                stack.extend(o.extends.clone());
            }
            out.push(n);
        }
        out
    }

    /// True if `sub` = `sup` or `sup` is an ancestor of `sub`.
    pub fn is_subclass(&self, sub: &Sym, sup: &Sym) -> bool {
        sub == sup || self.ancestors(sub).contains(sup)
    }

    /// Finds a field by walking up the hierarchy.
    pub fn lookup_field(&self, class: &Sym, f: &Sym) -> Option<&FieldInfo> {
        let mut names = vec![*class];
        names.extend(self.ancestors(class));
        for n in names {
            if let Some(o) = self.objs.get(&n) {
                if let Some(fi) = o.fields.iter().find(|fi| &fi.name == f) {
                    return Some(fi);
                }
            }
        }
        None
    }

    /// Finds a method by walking up the hierarchy.
    pub fn lookup_method(&self, class: &Sym, m: &Sym) -> Option<&MethodInfo> {
        let mut names = vec![*class];
        names.extend(self.ancestors(class));
        for n in names {
            if let Some(o) = self.objs.get(&n) {
                if let Some(mi) = o.methods.iter().find(|mi| &mi.name == m) {
                    return Some(mi);
                }
            }
        }
        None
    }

    /// All fields visible on `class` (inherited first).
    pub fn all_fields(&self, class: &Sym) -> Vec<FieldInfo> {
        let mut names = self.ancestors(class);
        names.reverse();
        names.push(*class);
        let mut out: Vec<FieldInfo> = Vec::new();
        for n in names {
            if let Some(o) = self.objs.get(&n) {
                for fi in &o.fields {
                    if !out.iter().any(|x| x.name == fi.name) {
                        out.push(fi.clone());
                    }
                }
            }
        }
        out
    }

    /// The invariant `inv(C, t)` (§3.2): inclusion predicates `impl(t, D)`
    /// for `C` and all ancestors, the explicit class invariants, and the
    /// refinements of immutable fields (instantiated at `t`).
    pub fn inv_pred(&self, class: &Sym, t: &Term) -> Pred {
        let mut parts = vec![Pred::App(
            Sym::from("impl"),
            vec![t.clone(), Term::str(*class)],
        )];
        for a in self.ancestors(class) {
            parts.push(Pred::App(Sym::from("impl"), vec![t.clone(), Term::str(a)]));
        }
        let self_subst = Subst::one("v", t.clone());
        let mut names = vec![*class];
        names.extend(self.ancestors(class));
        for n in &names {
            if let Some(o) = self.objs.get(n) {
                parts.push(self_subst.apply_pred(&o.invariant));
            }
        }
        for fi in self.all_fields(class) {
            if fi.imm && !matches!(fi.ty.pred, Pred::True) {
                // p[t.f / v, t / this]
                let mut s = Subst::new();
                s.push("v", Term::field(t.clone(), fi.name));
                s.push("this", t.clone());
                parts.push(s.apply_pred(&fi.ty.pred));
            }
        }
        Pred::and(parts)
    }

    /// Registers the uninterpreted symbols this table needs (field
    /// selectors, null/undefined constants) in a sort environment.
    pub fn register_sorts(&self, env: &mut rsc_logic::SortEnv) {
        env.declare_fun("nullv", FunSig::Fixed(vec![], Sort::Ref));
        env.declare_fun("undefv", FunSig::Fixed(vec![], Sort::Ref));
        let mut seen: HashMap<Sym, Sort> = HashMap::new();
        for o in self.objs.values() {
            for fi in &o.fields {
                let s = fi.ty.sort();
                let entry = seen.entry(fi.name).or_insert(s);
                // Conflicting sorts across classes degrade to Int: the
                // embedding drops ill-sorted hypotheses conservatively.
                if *entry != s {
                    *entry = Sort::Int;
                }
            }
        }
        for (f, s) in seen {
            env.declare_fun(format!("field${f}"), FunSig::Fixed(vec![Sort::Ref], s));
        }
    }

    // ------------------------------------------------------- resolution ---

    /// Resolves an annotation with no type parameters in scope.
    pub fn resolve(&self, t: &AnnTy) -> Result<RType, ResolveError> {
        self.resolve_in(t, &HashSet::new())
    }

    /// Resolves an annotation with the given rigid type parameters.
    pub fn resolve_in(&self, t: &AnnTy, tparams: &HashSet<Sym>) -> Result<RType, ResolveError> {
        self.go(t, tparams, &HashMap::new(), 0)
    }

    fn go(
        &self,
        t: &AnnTy,
        tparams: &HashSet<Sym>,
        tsubst: &HashMap<Sym, RType>,
        depth: usize,
    ) -> Result<RType, ResolveError> {
        if depth > 32 {
            return Err(ResolveError("type alias expansion too deep".into()));
        }
        match t {
            AnnTy::Refined { vv, base, pred } => {
                let b = self.go(base, tparams, tsubst, depth + 1)?;
                let p = if vv.as_str() == "v" {
                    pred.clone()
                } else {
                    Subst::one(*vv, Term::vv()).apply_pred(pred)
                };
                Ok(b.strengthen(p))
            }
            AnnTy::Array {
                elem,
                mutability,
                nonempty,
            } => {
                let e = self.go(elem, tparams, tsubst, depth + 1)?;
                let mut t = RType::trivial(Base::Arr(Box::new(e), *mutability));
                if *nonempty {
                    t = t.strengthen(RType::nonempty_pred());
                }
                Ok(t)
            }
            AnnTy::Union(parts) => {
                let ps = parts
                    .iter()
                    .map(|p| self.go(p, tparams, tsubst, depth + 1))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(RType::trivial(Base::Union(ps)))
            }
            AnnTy::Arrow(ft) => Ok(RType::trivial(Base::Fun(Rc::new(
                self.resolve_funty_in(ft, tparams, tsubst, depth)?,
            )))),
            AnnTy::Name(n, args) => self.resolve_name(n, args, tparams, tsubst, depth),
        }
    }

    /// Resolves a function type.
    pub fn resolve_funty(&self, ft: &FunTy, tparams: &HashSet<Sym>) -> Result<RFun, ResolveError> {
        self.resolve_funty_in(ft, tparams, &HashMap::new(), 0)
    }

    fn resolve_funty_in(
        &self,
        ft: &FunTy,
        tparams: &HashSet<Sym>,
        tsubst: &HashMap<Sym, RType>,
        depth: usize,
    ) -> Result<RFun, ResolveError> {
        let mut tp = tparams.clone();
        tp.extend(ft.tparams.iter().cloned());
        let mut params = Vec::new();
        for (x, t) in &ft.params {
            params.push((*x, self.go(t, &tp, tsubst, depth + 1)?));
        }
        let ret = self.go(&ft.ret, &tp, tsubst, depth + 1)?;
        Ok(RFun {
            tparams: ft.tparams.clone(),
            params,
            ret,
        })
    }

    fn resolve_name(
        &self,
        n: &Sym,
        args: &[AnnArg],
        tparams: &HashSet<Sym>,
        tsubst: &HashMap<Sym, RType>,
        depth: usize,
    ) -> Result<RType, ResolveError> {
        // Primitives.
        if args.is_empty() {
            match n.as_str() {
                "number" => return Ok(RType::number()),
                "boolean" | "bool" => return Ok(RType::boolean()),
                "string" => return Ok(RType::string()),
                "void" => return Ok(RType::void()),
                "undefined" => return Ok(RType::undefined()),
                "null" => return Ok(RType::null()),
                "bitvector32" => return Ok(RType::trivial(Base::Bv(*n))),
                _ => {}
            }
            if let Some(t) = tsubst.get(n) {
                return Ok(t.clone());
            }
            if tparams.contains(n) {
                return Ok(RType::trivial(Base::TVar(*n)));
            }
            if self.enums.contains_key(n) {
                return Ok(RType::trivial(Base::Bv(*n)));
            }
        }
        if let Some(alias) = self.aliases.get(n) {
            return self.expand_alias(alias, args, tparams, tsubst, depth);
        }
        if let Some(o) = self.objs.get(n) {
            let mut mutability = Mutability::Mutable;
            let mut targs = Vec::new();
            for a in args {
                match a {
                    AnnArg::Mut(m) => mutability = *m,
                    AnnArg::Ty(t) => targs.push(self.go(t, tparams, tsubst, depth + 1)?),
                    AnnArg::Term(_) => {
                        return Err(ResolveError(format!(
                            "object type {n} takes no term arguments"
                        )))
                    }
                }
            }
            let _ = o;
            return Ok(RType::trivial(Base::Obj(*n, mutability, targs)));
        }
        Err(ResolveError(format!("unknown type `{n}`")))
    }

    fn expand_alias(
        &self,
        alias: &TypeAlias,
        args: &[AnnArg],
        tparams: &HashSet<Sym>,
        tsubst: &HashMap<Sym, RType>,
        depth: usize,
    ) -> Result<RType, ResolveError> {
        if args.len() != alias.params.len() {
            return Err(ResolveError(format!(
                "alias {} expects {} arguments, got {}",
                alias.name,
                alias.params.len(),
                args.len()
            )));
        }
        let mut new_tsubst = tsubst.clone();
        let mut term_subst = Subst::new();
        for (p, a) in alias.params.iter().zip(args) {
            let used_as_type = ann_uses_as_type(&alias.body, p);
            match (used_as_type, a) {
                (true, AnnArg::Ty(t)) => {
                    new_tsubst.insert(*p, self.go(t, tparams, tsubst, depth + 1)?);
                }
                (false, AnnArg::Term(t)) => term_subst.push(*p, t.clone()),
                (false, AnnArg::Ty(AnnTy::Name(x, xs))) if xs.is_empty() => {
                    // A bare identifier parsed as a type but used as a term.
                    term_subst.push(*p, Term::var(*x));
                }
                _ => {
                    return Err(ResolveError(format!(
                        "argument for parameter {p} of alias {} has the wrong kind",
                        alias.name
                    )))
                }
            }
        }
        let body = self.go(&alias.body, tparams, &new_tsubst, depth + 1)?;
        Ok(body.subst(&term_subst))
    }
}

/// True if the alias body uses parameter `p` in a type position.
fn ann_uses_as_type(t: &AnnTy, p: &Sym) -> bool {
    match t {
        AnnTy::Name(n, args) => {
            n == p
                || args.iter().any(|a| match a {
                    AnnArg::Ty(t) => ann_uses_as_type(t, p),
                    _ => false,
                })
        }
        AnnTy::Refined { base, .. } => ann_uses_as_type(base, p),
        AnnTy::Array { elem, .. } => ann_uses_as_type(elem, p),
        AnnTy::Union(ps) => ps.iter().any(|t| ann_uses_as_type(t, p)),
        AnnTy::Arrow(ft) => {
            ft.params.iter().any(|(_, t)| ann_uses_as_type(t, p)) || ann_uses_as_type(&ft.ret, p)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_syntax::ast::Item;

    fn table_of(src: &str) -> ClassTable {
        let p = rsc_syntax::parse_program(src).unwrap();
        let mut aliases = Vec::new();
        let mut enums = Vec::new();
        let mut classes = Vec::new();
        let mut ifaces = Vec::new();
        for i in p.items {
            match i {
                Item::TypeAlias(a) => aliases.push(a),
                Item::Enum(e) => enums.push(e),
                Item::Class(c) => classes.push(c),
                Item::Interface(i) => ifaces.push(i),
                _ => {}
            }
        }
        ClassTable::build(&aliases, &enums, &ifaces, &classes).unwrap()
    }

    const PRELUDE: &str = r#"
        type nat = {v: number | 0 <= v};
        type pos = {v: number | 0 < v};
        type idx<a> = {v: nat | v < len(a)};
    "#;

    #[test]
    fn alias_expansion_idx() {
        let ct = table_of(PRELUDE);
        let t = ct
            .resolve(&rsc_syntax::parse_type("idx<arr>").unwrap())
            .unwrap();
        assert_eq!(t.to_string(), "{v: number | (0 <= v && v < len(arr))}");
    }

    #[test]
    fn dependent_alias_with_terms() {
        let ct = table_of(
            r#"
            type ArrayN<T, n> = {v: T[] | len(v) = n};
            type grid<w, h> = ArrayN<number, (w + 2) * (h + 2)>;
        "#,
        );
        let t = ct
            .resolve(&rsc_syntax::parse_type("grid<this.w, this.h>").unwrap())
            .unwrap();
        let s = t.to_string();
        assert!(s.contains("len(v) = ((this.w + 2) * (this.h + 2))"), "{s}");
    }

    #[test]
    fn hierarchy_and_inv() {
        let ct = table_of(
            r#"
            interface Type { immutable flags : number; }
            interface ObjectType extends Type { }
            interface InterfaceType extends ObjectType { }
        "#,
        );
        assert!(ct.is_subclass(&Sym::from("InterfaceType"), &Sym::from("Type")));
        assert!(!ct.is_subclass(&Sym::from("Type"), &Sym::from("ObjectType")));
        let p = ct.inv_pred(&Sym::from("InterfaceType"), &Term::var("t"));
        let s = p.to_string();
        assert!(s.contains("impl(t, \"InterfaceType\")"));
        assert!(s.contains("impl(t, \"Type\")"));
    }

    #[test]
    fn field_lookup_through_hierarchy() {
        let ct = table_of(
            r#"
            interface Type { immutable flags : number; }
            interface ObjectType extends Type { }
        "#,
        );
        let fi = ct
            .lookup_field(&Sym::from("ObjectType"), &Sym::from("flags"))
            .unwrap();
        assert!(fi.imm);
    }

    #[test]
    fn enum_is_bitvector() {
        let ct = table_of("enum F { A = 0x1, B = 0x2, }");
        let t = ct.resolve(&rsc_syntax::parse_type("F").unwrap()).unwrap();
        assert!(matches!(t.base, Base::Bv(_)));
        assert_eq!(t.sort(), Sort::Bv32);
    }

    #[test]
    fn unknown_type_is_error() {
        let ct = table_of("");
        assert!(ct
            .resolve(&rsc_syntax::parse_type("Mystery").unwrap())
            .is_err());
    }

    #[test]
    fn class_invariant_field_refinements() {
        let ct = table_of(
            r#"
            type pos = {v: number | 0 < v};
            class Field {
                immutable w : pos;
                immutable h : pos;
                dens : number[];
            }
        "#,
        );
        let p = ct.inv_pred(&Sym::from("Field"), &Term::var("z"));
        let s = p.to_string();
        assert!(s.contains("0 < z.w"), "{s}");
        assert!(s.contains("0 < z.h"), "{s}");
        assert!(!s.contains("dens"), "mutable fields must not appear: {s}");
    }
}
