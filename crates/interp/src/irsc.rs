//! A big-step interpreter for IRSC (the SSA functional core), following
//! Figure 12 of the paper, with the `letloop` extension.
//!
//! Used together with [`crate::frsc`] to test SSA Consistency (Theorem 1):
//! on the deterministic fragment, a program and its SSA translation
//! produce identical outcomes.

use std::collections::HashMap;

use rsc_logic::Sym;
use rsc_ssa::{Body, IrClass, IrExpr, IrFun, IrProgram};
use rsc_syntax::ast::BinOpE;

use crate::ops;
use crate::value::{Heap, Obj, RuntimeError, Value};

struct Closure {
    fun: IrFun,
    captured: HashMap<Sym, Value>,
}

/// The IRSC interpreter.
pub struct IrscInterp {
    heap: Heap,
    fuel: u64,
    closures: Vec<Closure>,
    classes: HashMap<Sym, IrClass>,
    enums: HashMap<Sym, HashMap<Sym, u32>>,
    declares: HashMap<Sym, ()>,
    globals: HashMap<Sym, Value>,
}

type Env = HashMap<Sym, Value>;

impl IrscInterp {
    /// Creates an interpreter with the given fuel.
    pub fn new(fuel: u64) -> Self {
        IrscInterp {
            heap: Heap::new(),
            fuel,
            closures: Vec::new(),
            classes: HashMap::new(),
            enums: HashMap::new(),
            declares: HashMap::new(),
            globals: HashMap::new(),
        }
    }

    /// Runs an SSA program; the result is the value of the top-level
    /// `return`, or `undefined`.
    pub fn run(&mut self, p: &IrProgram) -> Result<Value, RuntimeError> {
        for c in &p.classes {
            self.classes.insert(c.decl.name, c.clone());
        }
        for e in &p.enums {
            self.enums
                .insert(e.name, e.members.iter().cloned().collect());
        }
        for d in &p.declares {
            self.declares.insert(d.name, ());
        }
        for f in &p.funs {
            let idx = self.closures.len();
            self.closures.push(Closure {
                fun: f.clone(),
                captured: HashMap::new(),
            });
            let r = self.heap.alloc(Obj::Closure { fun: idx });
            self.globals.insert(f.name, Value::Ref(r));
        }
        let mut env = self.globals.clone();
        Ok(self.body(&p.top, &mut env)?.unwrap_or(Value::Undefined))
    }

    fn tick(&mut self) -> Result<(), RuntimeError> {
        if self.fuel == 0 {
            return Err(RuntimeError::OutOfFuel);
        }
        self.fuel -= 1;
        Ok(())
    }

    /// Evaluates a body. `Ok(Some(v))` means a `return v` was executed;
    /// `Ok(None)` means the body fell through (branch arm end).
    fn body(&mut self, b: &Body, env: &mut Env) -> Result<Option<Value>, RuntimeError> {
        self.tick()?;
        match b {
            Body::Ret(None, _) => Ok(Some(Value::Undefined)),
            Body::Ret(Some(e), _) => {
                let v = self.eval(e, env)?;
                Ok(Some(v))
            }
            Body::EndBranch(_) => Ok(None),
            Body::Let { x, rhs, rest, .. } => {
                let v = self.eval(rhs, env)?;
                env.insert(*x, v);
                self.body(rest, env)
            }
            Body::Effect { e, rest, .. } => {
                self.eval(e, env)?;
                self.body(rest, env)
            }
            Body::LetFun { fun, rest, .. } => {
                let idx = self.closures.len();
                self.closures.push(Closure {
                    fun: (**fun).clone(),
                    captured: env.clone(),
                });
                let r = self.heap.alloc(Obj::Closure { fun: idx });
                env.insert(fun.name, Value::Ref(r));
                self.body(rest, env)
            }
            Body::If {
                cond,
                phis,
                then_br,
                else_br,
                rest,
                ..
            } => {
                let c = self.eval(cond, env)?;
                let mut benv = env.clone();
                let taken_then = c.truthy();
                let arm = if taken_then { then_br } else { else_br };
                match self.body(arm, &mut benv)? {
                    Some(v) => Ok(Some(v)),
                    None => {
                        // R-LETIF: substitute the taken branch's φ sources.
                        for phi in phis {
                            let src = if taken_then {
                                phi.then_src.as_ref()
                            } else {
                                phi.else_src.as_ref()
                            };
                            let Some(src) = src else {
                                return Err(RuntimeError::Unbound(format!(
                                    "phi source for {} missing",
                                    phi.new
                                )));
                            };
                            let v = benv
                                .get(src)
                                .cloned()
                                .ok_or_else(|| RuntimeError::Unbound(src.to_string()))?;
                            env.insert(phi.new, v);
                        }
                        self.body(rest, env)
                    }
                }
            }
            Body::Loop {
                phis,
                cond,
                body,
                rest,
                ..
            } => {
                // Initialize loop-head φ variables.
                for phi in phis {
                    let v = env
                        .get(&phi.init_src)
                        .cloned()
                        .ok_or_else(|| RuntimeError::Unbound(phi.init_src.to_string()))?;
                    env.insert(phi.new, v);
                }
                loop {
                    self.tick()?;
                    let c = self.eval(cond, env)?;
                    if !c.truthy() {
                        break;
                    }
                    let mut benv = env.clone();
                    match self.body(body, &mut benv)? {
                        Some(v) => return Ok(Some(v)),
                        None => {
                            for phi in phis {
                                if let Some(src) = &phi.body_src {
                                    let v = benv
                                        .get(src)
                                        .cloned()
                                        .ok_or_else(|| RuntimeError::Unbound(src.to_string()))?;
                                    env.insert(phi.new, v);
                                }
                            }
                        }
                    }
                }
                self.body(rest, env)
            }
        }
    }

    fn eval(&mut self, e: &IrExpr, env: &mut Env) -> Result<Value, RuntimeError> {
        self.tick()?;
        match e {
            IrExpr::Num(n, _) => Ok(Value::Num(*n)),
            IrExpr::Bv(n, _) => Ok(Value::Bv(*n)),
            IrExpr::Str(s, _) => Ok(Value::Str(s.clone())),
            IrExpr::Bool(b, _) => Ok(Value::Bool(*b)),
            IrExpr::Null(_) => Ok(Value::Null),
            IrExpr::Undefined(_) => Ok(Value::Undefined),
            IrExpr::This(_) => env
                .get(&Sym::from("this"))
                .cloned()
                .ok_or_else(|| RuntimeError::Unbound("this".into())),
            IrExpr::Var(x, _) => env
                .get(x)
                .or_else(|| self.globals.get(x))
                .cloned()
                .ok_or_else(|| RuntimeError::Unbound(x.to_string())),
            IrExpr::Field(b, f, _) => {
                if let IrExpr::Var(name, _) = b.as_ref() {
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
            IrExpr::Index(a, i, _) => {
                let av = self.eval(a, env)?;
                let iv = self.eval(i, env)?;
                self.array_read(av, iv)
            }
            IrExpr::Call(callee, args, _) => self.eval_call(callee, args, env),
            IrExpr::New(cname, _targs, args, _) => {
                let argv: Vec<Value> = args
                    .iter()
                    .map(|a| self.eval(a, env))
                    .collect::<Result<_, _>>()?;
                self.construct(cname, argv)
            }
            IrExpr::Cast(_, e, _) => self.eval(e, env),
            IrExpr::Unary(op, e, _) => {
                let v = self.eval(e, env)?;
                ops::unop(*op, v, &self.heap)
            }
            IrExpr::Binary(op, a, b, _) => match op {
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
            IrExpr::ArrayLit(es, _) => {
                let vs: Vec<Value> = es
                    .iter()
                    .map(|x| self.eval(x, env))
                    .collect::<Result<_, _>>()?;
                Ok(Value::Ref(self.heap.alloc(Obj::Arr(vs))))
            }
            IrExpr::FieldAssign(obj, f, v, _) => {
                let o = self.eval(obj, env)?;
                let val = self.eval(v, env)?;
                let Value::Ref(r) = o else {
                    return Err(RuntimeError::BadField(format!("field write on {o}")));
                };
                match self.heap.get_mut(r) {
                    Some(Obj::Instance { fields, .. }) => {
                        fields.insert(*f, val.clone());
                        Ok(val)
                    }
                    _ => Err(RuntimeError::BadField(format!(
                        "field write .{f} on non-instance"
                    ))),
                }
            }
            IrExpr::IndexAssign(a, i, v, _) => {
                let av = self.eval(a, env)?;
                let iv = self.eval(i, env)?;
                let vv = self.eval(v, env)?;
                let Value::Ref(r) = av else {
                    return Err(RuntimeError::TypeError("index write on non-array".into()));
                };
                let Value::Num(ix) = iv else {
                    return Err(RuntimeError::TypeError("non-numeric index".into()));
                };
                match self.heap.get_mut(r) {
                    Some(Obj::Arr(elems)) => {
                        if ix < 0 || ix as usize >= elems.len() {
                            Err(RuntimeError::OutOfBounds(format!(
                                "write index {ix} on length {}",
                                elems.len()
                            )))
                        } else {
                            elems[ix as usize] = vv.clone();
                            Ok(vv)
                        }
                    }
                    _ => Err(RuntimeError::TypeError("index write on non-array".into())),
                }
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
        callee: &IrExpr,
        args: &[IrExpr],
        env: &mut Env,
    ) -> Result<Value, RuntimeError> {
        if let IrExpr::Var(name, _) = callee {
            match name.as_str() {
                "$ite" => {
                    let c = self.eval(&args[0], env)?;
                    return if c.truthy() {
                        self.eval(&args[1], env)
                    } else {
                        self.eval(&args[2], env)
                    };
                }
                "assert" | "assume" => {
                    let v = self.eval(&args[0], env)?;
                    return if v.truthy() {
                        Ok(Value::Undefined)
                    } else {
                        Err(RuntimeError::AssertFailed("assert(false)".into()))
                    };
                }
                _ => {
                    if self.declares.contains_key(name) && !self.globals.contains_key(name) {
                        for a in args {
                            self.eval(a, env)?;
                        }
                        return Ok(Value::Bool(true));
                    }
                }
            }
        }
        if let IrExpr::Field(obj, m, _) = callee {
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
        let (sig_params, body) = {
            let mut found = None;
            let mut cur = Some(class);
            while let Some(cname) = cur {
                let Some(c) = self.classes.get(&cname) else {
                    break;
                };
                if let Some(md) = c.methods.iter().find(|md| &md.name == m) {
                    found = Some((
                        md.sig.params.iter().map(|(p, _)| *p).collect::<Vec<_>>(),
                        md.body.clone(),
                    ));
                    break;
                }
                cur = c.decl.extends;
            }
            found
                .ok_or_else(|| RuntimeError::BadField(format!("class {class} has no method {m}")))?
        };
        let Some(body) = body else {
            return Err(RuntimeError::NotAFunction(format!("abstract method {m}")));
        };
        let mut frame = self.globals.clone();
        for (i, pname) in sig_params.iter().enumerate() {
            frame.insert(*pname, argv.get(i).cloned().unwrap_or(Value::Undefined));
        }
        frame.insert(Sym::from("this"), Value::Ref(r));
        Ok(self.body(&body, &mut frame)?.unwrap_or(Value::Undefined))
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
        let decl = clos.fun.clone();
        let mut frame = self.globals.clone();
        frame.extend(clos.captured.clone());
        for (i, p) in decl.params.iter().enumerate() {
            frame.insert(*p, argv.get(i).cloned().unwrap_or(Value::Undefined));
        }
        let args_arr = self.heap.alloc(Obj::Arr(argv));
        frame.insert(Sym::from("arguments"), Value::Ref(args_arr));
        if let Some(t) = this {
            frame.insert(Sym::from("this"), t);
        }
        Ok(self
            .body(&decl.body, &mut frame)?
            .unwrap_or(Value::Undefined))
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
            self.body(&ctor.body, &mut frame)?;
        }
        Ok(Value::Ref(r))
    }
}

/// Convenience entry point used by tests.
pub fn run_irsc(p: &IrProgram, fuel: u64) -> Result<Value, RuntimeError> {
    IrscInterp::new(fuel).run(p)
}
