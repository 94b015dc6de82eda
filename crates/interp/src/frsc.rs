//! A big-step interpreter for FRSC (the imperative surface language),
//! following the reduction rules of Figure 10 in the paper.
//!
//! Deviations from JavaScript, fixed deliberately for the whole project
//! (both interpreters agree, and the checker assumes the same semantics):
//!
//! * numbers are 64-bit integers;
//! * closures capture a **snapshot** of the enclosing variables (the SSA
//!   translation hands closures the SSA names live at the definition
//!   point, so mutation-after-capture is out of the fragment);
//! * `new Array(n)` builds a zero-initialized numeric buffer (the Octane
//!   benchmarks use arrays this way — as `Float64Array`-style grids);
//! * casts are erased (Corollary 4: verified casts cannot fail).

use std::collections::HashMap;

use rsc_logic::Sym;
use rsc_syntax::ast::*;

use crate::ops;
use crate::value::{Heap, Obj, RuntimeError, Value};

/// Result of executing statements: fall through or return.
enum Flow {
    Normal,
    Returned(Value),
}

struct Closure {
    decl: FunDecl,
    captured: HashMap<Sym, Value>,
}

/// The FRSC interpreter.
pub struct FrscInterp {
    heap: Heap,
    fuel: u64,
    closures: Vec<Closure>,
    classes: HashMap<Sym, ClassDecl>,
    enums: HashMap<Sym, HashMap<Sym, u32>>,
    declares: HashMap<Sym, ()>,
    globals: HashMap<Sym, Value>,
}

impl FrscInterp {
    /// Creates an interpreter with the given fuel (step budget).
    pub fn new(fuel: u64) -> Self {
        FrscInterp {
            heap: Heap::new(),
            fuel,
            closures: Vec::new(),
            classes: HashMap::new(),
            enums: HashMap::new(),
            declares: HashMap::new(),
            globals: HashMap::new(),
        }
    }

    /// Runs a program: declarations are collected, top-level statements are
    /// executed in order, and the value of a top-level `return` (if any) is
    /// the program result.
    pub fn run(&mut self, p: &Program) -> Result<Value, RuntimeError> {
        let mut top: Vec<Stmt> = Vec::new();
        for item in &p.items {
            match item {
                Item::Class(c) => {
                    self.classes.insert(c.name, c.clone());
                }
                Item::Enum(e) => {
                    self.enums
                        .insert(e.name, e.members.iter().cloned().collect());
                }
                Item::Declare(d) => {
                    self.declares.insert(d.name, ());
                }
                Item::Fun(f) => {
                    let idx = self.closures.len();
                    self.closures.push(Closure {
                        decl: f.clone(),
                        captured: HashMap::new(),
                    });
                    let r = self.heap.alloc(Obj::Closure { fun: idx });
                    self.globals.insert(f.name, Value::Ref(r));
                }
                _ => {}
            }
            if let Item::Stmt(s) = item {
                top.push(s.clone());
            }
        }
        let mut frame = self.globals.clone();
        match self.exec_block(&top, &mut frame)? {
            Flow::Returned(v) => Ok(v),
            Flow::Normal => Ok(Value::Undefined),
        }
    }

    fn tick(&mut self) -> Result<(), RuntimeError> {
        if self.fuel == 0 {
            return Err(RuntimeError::OutOfFuel);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn exec_block(
        &mut self,
        stmts: &[Stmt],
        env: &mut HashMap<Sym, Value>,
    ) -> Result<Flow, RuntimeError> {
        for s in stmts {
            match self.exec(s, env)? {
                Flow::Normal => {}
                r @ Flow::Returned(_) => return Ok(r),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec(&mut self, s: &Stmt, env: &mut HashMap<Sym, Value>) -> Result<Flow, RuntimeError> {
        self.tick()?;
        match s {
            Stmt::Skip(_) => Ok(Flow::Normal),
            Stmt::Seq(ss, _) => self.exec_block(ss, env),
            Stmt::VarDecl { name, init, .. } => {
                let v = self.eval(init, env)?;
                env.insert(*name, v);
                Ok(Flow::Normal)
            }
            Stmt::Assign { target, value, .. } => {
                match target {
                    LValue::Var(x, _) => {
                        let v = self.eval(value, env)?;
                        env.insert(*x, v);
                    }
                    LValue::Field(obj, f, _) => {
                        let o = self.eval(obj, env)?;
                        let v = self.eval(value, env)?;
                        let Value::Ref(r) = o else {
                            return Err(RuntimeError::BadField(format!("field write on {o}")));
                        };
                        match self.heap.get_mut(r) {
                            Some(Obj::Instance { fields, .. }) => {
                                fields.insert(*f, v);
                            }
                            _ => {
                                return Err(RuntimeError::BadField(format!(
                                    "field write .{f} on non-instance"
                                )))
                            }
                        }
                    }
                    LValue::Index(arr, idx, _) => {
                        let a = self.eval(arr, env)?;
                        let i = self.eval(idx, env)?;
                        let v = self.eval(value, env)?;
                        self.array_write(a, i, v)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::ExprStmt { expr, .. } => {
                self.eval(expr, env)?;
                Ok(Flow::Normal)
            }
            Stmt::Return { value, .. } => {
                let v = match value {
                    Some(e) => self.eval(e, env)?,
                    None => Value::Undefined,
                };
                Ok(Flow::Returned(v))
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                let c = self.eval(cond, env)?;
                if c.truthy() {
                    self.exec_block(&then_blk.stmts, env)
                } else {
                    self.exec_block(&else_blk.stmts, env)
                }
            }
            Stmt::While { cond, body, .. } => {
                loop {
                    self.tick()?;
                    let c = self.eval(cond, env)?;
                    if !c.truthy() {
                        break;
                    }
                    match self.exec_block(&body.stmts, env)? {
                        Flow::Normal => {}
                        r @ Flow::Returned(_) => return Ok(r),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Fun(f) => {
                let idx = self.closures.len();
                self.closures.push(Closure {
                    decl: f.clone(),
                    captured: env.clone(),
                });
                let r = self.heap.alloc(Obj::Closure { fun: idx });
                env.insert(f.name, Value::Ref(r));
                Ok(Flow::Normal)
            }
        }
    }

    fn array_write(&mut self, a: Value, i: Value, v: Value) -> Result<(), RuntimeError> {
        let Value::Ref(r) = a else {
            return Err(RuntimeError::TypeError(format!("index write on {a}")));
        };
        let Value::Num(ix) = i else {
            return Err(RuntimeError::TypeError(format!("non-numeric index {i}")));
        };
        match self.heap.get_mut(r) {
            Some(Obj::Arr(elems)) => {
                if ix < 0 || ix as usize >= elems.len() {
                    return Err(RuntimeError::OutOfBounds(format!(
                        "write index {ix} on length {}",
                        elems.len()
                    )));
                }
                elems[ix as usize] = v;
                Ok(())
            }
            _ => Err(RuntimeError::TypeError("index write on non-array".into())),
        }
    }

    fn eval(&mut self, e: &Expr, env: &mut HashMap<Sym, Value>) -> Result<Value, RuntimeError> {
        self.tick()?;
        match e {
            Expr::Num(n, _) => Ok(Value::Num(*n)),
            Expr::Bv(n, _) => Ok(Value::Bv(*n)),
            Expr::Str(s, _) => Ok(Value::Str(s.clone())),
            Expr::Bool(b, _) => Ok(Value::Bool(*b)),
            Expr::Null(_) => Ok(Value::Null),
            Expr::Undefined(_) => Ok(Value::Undefined),
            Expr::This(_) => env
                .get(&Sym::from("this"))
                .cloned()
                .ok_or_else(|| RuntimeError::Unbound("this".into())),
            Expr::Var(x, _) => env
                .get(x)
                .or_else(|| self.globals.get(x))
                .cloned()
                .or_else(|| {
                    if self.declares.contains_key(x) {
                        Some(Value::Str(format!("$declare:{x}")))
                    } else {
                        None
                    }
                })
                .ok_or_else(|| RuntimeError::Unbound(x.to_string())),
            Expr::Field(b, f, _) => {
                // Enum member access?
                if let Expr::Var(name, _) = b.as_ref() {
                    if let Some(members) = self.enums.get(name) {
                        return members
                            .get(f)
                            .map(|v| Value::Bv(*v))
                            .ok_or_else(|| RuntimeError::BadField(format!("{name}.{f}")));
                    }
                }
                let o = self.eval(b, env)?;
                self.field_read(o, f)
            }
            Expr::Index(a, i, _) => {
                let av = self.eval(a, env)?;
                let iv = self.eval(i, env)?;
                self.array_read(av, iv)
            }
            Expr::Call(callee, args, _) => self.eval_call(callee, args, env),
            Expr::New(cname, _targs, args, _) => {
                let argv: Vec<Value> = args
                    .iter()
                    .map(|a| self.eval(a, env))
                    .collect::<Result<_, _>>()?;
                self.construct(cname, argv)
            }
            Expr::Cast(_, e, _) => self.eval(e, env),
            Expr::Unary(op, e, _) => {
                let v = self.eval(e, env)?;
                ops::unop(*op, v, &self.heap)
            }
            Expr::Binary(op, a, b, _) => match op {
                BinOpE::And => {
                    let va = self.eval(a, env)?;
                    if va.truthy() {
                        self.eval(b, env)
                    } else {
                        Ok(va)
                    }
                }
                BinOpE::Or => {
                    let va = self.eval(a, env)?;
                    if va.truthy() {
                        Ok(va)
                    } else {
                        self.eval(b, env)
                    }
                }
                _ => {
                    let va = self.eval(a, env)?;
                    let vb = self.eval(b, env)?;
                    ops::binop(*op, va, vb)
                }
            },
            Expr::Ternary(c, t, f, _) => {
                let vc = self.eval(c, env)?;
                if vc.truthy() {
                    self.eval(t, env)
                } else {
                    self.eval(f, env)
                }
            }
            Expr::ArrayLit(es, _) => {
                let vs: Vec<Value> = es
                    .iter()
                    .map(|x| self.eval(x, env))
                    .collect::<Result<_, _>>()?;
                Ok(Value::Ref(self.heap.alloc(Obj::Arr(vs))))
            }
        }
    }

    fn field_read(&mut self, o: Value, f: &Sym) -> Result<Value, RuntimeError> {
        match o {
            Value::Ref(r) => match self.heap.get(r) {
                Some(Obj::Arr(elems)) => {
                    if f == &Sym::from("length") {
                        Ok(Value::Num(elems.len() as i64))
                    } else {
                        Err(RuntimeError::BadField(format!("array .{f}")))
                    }
                }
                Some(Obj::Instance { fields, class }) => fields.get(f).cloned().ok_or_else(|| {
                    RuntimeError::BadField(format!("{class} instance has no field {f}"))
                }),
                Some(Obj::Closure { .. }) => Err(RuntimeError::BadField(format!("closure .{f}"))),
                None => Err(RuntimeError::BadField("dangling reference".into())),
            },
            Value::Str(s) if f == &Sym::from("length") => Ok(Value::Num(s.len() as i64)),
            other => Err(RuntimeError::BadField(format!(
                "field .{f} on non-object {other}"
            ))),
        }
    }

    fn array_read(&mut self, a: Value, i: Value) -> Result<Value, RuntimeError> {
        match (&a, &i) {
            (Value::Ref(r), Value::Num(ix)) => match self.heap.get(*r) {
                Some(Obj::Arr(elems)) => {
                    if *ix < 0 || *ix as usize >= elems.len() {
                        Err(RuntimeError::OutOfBounds(format!(
                            "read index {ix} on length {}",
                            elems.len()
                        )))
                    } else {
                        Ok(elems[*ix as usize].clone())
                    }
                }
                _ => Err(RuntimeError::TypeError("index read on non-array".into())),
            },
            (Value::Str(s), Value::Num(ix)) => {
                let chars: Vec<char> = s.chars().collect();
                if *ix < 0 || *ix as usize >= chars.len() {
                    Err(RuntimeError::OutOfBounds(format!(
                        "string index {ix} on length {}",
                        chars.len()
                    )))
                } else {
                    Ok(Value::Str(chars[*ix as usize].to_string()))
                }
            }
            _ => Err(RuntimeError::TypeError(format!("index {i} on {a}"))),
        }
    }

    fn eval_call(
        &mut self,
        callee: &Expr,
        args: &[Expr],
        env: &mut HashMap<Sym, Value>,
    ) -> Result<Value, RuntimeError> {
        // Built-ins and ghost axioms.
        if let Expr::Var(name, _) = callee {
            let n = name.as_str();
            if n == "assert" || n == "assume" {
                let v = self.eval(&args[0], env)?;
                return if v.truthy() {
                    Ok(Value::Undefined)
                } else {
                    Err(RuntimeError::AssertFailed("assert(false)".into()))
                };
            }
            if self.declares.contains_key(name) && !self.globals.contains_key(name) {
                // Trusted ghost function: evaluate arguments, return true.
                for a in args {
                    self.eval(a, env)?;
                }
                return Ok(Value::Bool(true));
            }
        }
        // Method call?
        if let Expr::Field(obj, m, _) = callee {
            let recv = self.eval(obj, env)?;
            let argv: Vec<Value> = args
                .iter()
                .map(|a| self.eval(a, env))
                .collect::<Result<_, _>>()?;
            return self.call_method(recv, m, argv);
        }
        let f = self.eval(callee, env)?;
        let argv: Vec<Value> = args
            .iter()
            .map(|a| self.eval(a, env))
            .collect::<Result<_, _>>()?;
        self.apply(f, argv, None)
    }

    fn call_method(
        &mut self,
        recv: Value,
        m: &Sym,
        argv: Vec<Value>,
    ) -> Result<Value, RuntimeError> {
        // Array built-ins.
        if let Value::Ref(r) = recv {
            if let Some(Obj::Arr(_)) = self.heap.get(r) {
                match m.as_str() {
                    "push" => {
                        let Some(Obj::Arr(elems)) = self.heap.get_mut(r) else {
                            unreachable!()
                        };
                        elems.push(argv.into_iter().next().unwrap_or(Value::Undefined));
                        let n = elems.len() as i64;
                        return Ok(Value::Num(n));
                    }
                    "pop" => {
                        let Some(Obj::Arr(elems)) = self.heap.get_mut(r) else {
                            unreachable!()
                        };
                        return Ok(elems.pop().unwrap_or(Value::Undefined));
                    }
                    _ => {}
                }
            }
        }
        let Value::Ref(r) = recv else {
            return Err(RuntimeError::BadField(format!("method {m} on {recv}")));
        };
        let class = match self.heap.get(r) {
            Some(Obj::Instance { class, fields }) => {
                // A function-valued field shadows methods.
                if let Some(v @ Value::Ref(_)) = fields.get(m) {
                    let v = v.clone();
                    if let Value::Ref(cr) = v {
                        if matches!(self.heap.get(cr), Some(Obj::Closure { .. })) {
                            return self.apply(v, argv, Some(Value::Ref(r)));
                        }
                    }
                }
                *class
            }
            _ => {
                return Err(RuntimeError::BadField(format!(
                    "method {m} on non-instance"
                )))
            }
        };
        let method = self
            .lookup_method(&class, m)
            .ok_or_else(|| RuntimeError::BadField(format!("class {class} has no method {m}")))?;
        let Some(body) = method.body.clone() else {
            return Err(RuntimeError::NotAFunction(format!("abstract method {m}")));
        };
        let mut frame: HashMap<Sym, Value> = self.globals.clone();
        for (i, (pname, _)) in method.sig.params.iter().enumerate() {
            frame.insert(*pname, argv.get(i).cloned().unwrap_or(Value::Undefined));
        }
        frame.insert(Sym::from("this"), Value::Ref(r));
        match self.exec_block(&body.stmts, &mut frame)? {
            Flow::Returned(v) => Ok(v),
            Flow::Normal => Ok(Value::Undefined),
        }
    }

    fn lookup_method(&self, class: &Sym, m: &Sym) -> Option<MethodDecl> {
        let mut cur = Some(*class);
        while let Some(cname) = cur {
            let c = self.classes.get(&cname)?;
            if let Some(md) = c.methods.iter().find(|md| &md.name == m) {
                return Some(md.clone());
            }
            cur = c.extends;
        }
        None
    }

    fn apply(
        &mut self,
        f: Value,
        argv: Vec<Value>,
        this: Option<Value>,
    ) -> Result<Value, RuntimeError> {
        let Value::Ref(r) = f else {
            return Err(RuntimeError::NotAFunction(format!("{f}")));
        };
        let Some(Obj::Closure { fun }) = self.heap.get(r) else {
            return Err(RuntimeError::NotAFunction(format!("{f}")));
        };
        let clos = &self.closures[*fun];
        let decl = clos.decl.clone();
        let mut frame = self.globals.clone();
        frame.extend(clos.captured.clone());
        for (i, p) in decl.params.iter().enumerate() {
            frame.insert(*p, argv.get(i).cloned().unwrap_or(Value::Undefined));
        }
        // `arguments` array-like (value-based overloading, §2.1.2).
        let args_arr = self.heap.alloc(Obj::Arr(argv));
        frame.insert(Sym::from("arguments"), Value::Ref(args_arr));
        if let Some(t) = this {
            frame.insert(Sym::from("this"), t);
        }
        match self.exec_block(&decl.body.stmts, &mut frame)? {
            Flow::Returned(v) => Ok(v),
            Flow::Normal => Ok(Value::Undefined),
        }
    }

    fn construct(&mut self, cname: &Sym, argv: Vec<Value>) -> Result<Value, RuntimeError> {
        if cname == &Sym::from("Array") {
            return match argv.as_slice() {
                [Value::Num(n)] => {
                    if *n < 0 {
                        Err(RuntimeError::TypeError("negative array length".into()))
                    } else {
                        Ok(Value::Ref(
                            self.heap.alloc(Obj::Arr(vec![Value::Num(0); *n as usize])),
                        ))
                    }
                }
                _ => Ok(Value::Ref(self.heap.alloc(Obj::Arr(argv)))),
            };
        }
        let class = self
            .classes
            .get(cname)
            .cloned()
            .ok_or_else(|| RuntimeError::Unbound(format!("class {cname}")))?;
        let r = self.heap.alloc(Obj::Instance {
            class: *cname,
            fields: HashMap::new(),
        });
        if let Some(ctor) = &class.ctor {
            let mut frame = self.globals.clone();
            for (i, (pname, _)) in ctor.params.iter().enumerate() {
                frame.insert(*pname, argv.get(i).cloned().unwrap_or(Value::Undefined));
            }
            frame.insert(Sym::from("this"), Value::Ref(r));
            self.exec_block(&ctor.body.stmts.clone(), &mut frame)?;
        }
        Ok(Value::Ref(r))
    }
}

/// Convenience: parse-free entry point used by tests.
pub fn run_frsc(p: &Program, fuel: u64) -> Result<Value, RuntimeError> {
    FrscInterp::new(fuel).run(p)
}
