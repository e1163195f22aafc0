//! The Flua stack virtual machine.
//!
//! Execution is fuel-limited: every instruction costs one unit, so hostile
//! or buggy scripts pushed from a simulated C&C server cannot stall the
//! simulation. Host capabilities are injected through [`HostEnv`], which is
//! how malware modules read files, record audio, or enumerate bluetooth
//! devices *in the simulated world* — the VM itself is pure.
//!
//! Names are resolved once, not per instruction. Every variable operand is
//! a name slot (an index into the chunk's name table): a run keeps its
//! globals in a vector indexed by slot, loaded from the VM's by-name
//! globals when it starts and written back when it ends, and function
//! locals in a slot-indexed vector of shallow bindings (see `Locals`). The
//! compiler fixes each name's call target (`Chunk::callees`), so a call jumps
//! straight to a script function, a builtin or the host, and its arguments
//! stay on the value stack as a slice. Host calls still go by name through
//! [`HostEnv::call_host`], so a capability gate sees every one. The op
//! stream is what it was when names were hashed at every instruction, so
//! fuel, memory charges and limit faults land on the same instructions; a
//! test-only copy of that by-name interpreter checks this differentially.

use std::collections::HashMap;

use crate::compiler::{Builtin, Callee, Chunk, Op};
use crate::error::RunScriptError;
use crate::value::Value;

#[cfg(test)]
mod reference;

/// Host-function surface a script runs against.
///
/// Resolution order for a call is: script-defined functions, then VM
/// builtins (`len`, `str`, `push`, `contains`, `range`), then the host.
pub trait HostEnv {
    /// Invokes host function `name`. Returns `Ok(None)` when the host does
    /// not define `name` (the VM then reports an undefined function).
    ///
    /// # Errors
    ///
    /// Host failures surface as [`RunScriptError::Host`].
    fn call_host(&mut self, name: &str, args: &[Value]) -> Result<Option<Value>, RunScriptError>;
}

impl<H: HostEnv + ?Sized> HostEnv for &mut H {
    fn call_host(&mut self, name: &str, args: &[Value]) -> Result<Option<Value>, RunScriptError> {
        (**self).call_host(name, args)
    }
}

/// A [`HostEnv`] with no functions.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHost;

impl HostEnv for NoHost {
    fn call_host(&mut self, _name: &str, _args: &[Value]) -> Result<Option<Value>, RunScriptError> {
        Ok(None)
    }
}

/// A host-callable function: the boxed closure a [`FnHost`] dispatches to.
pub type HostFn<'a> = Box<dyn FnMut(&[Value]) -> Result<Value, RunScriptError> + 'a>;

/// A [`HostEnv`] backed by a map of closures — convenient for tests and for
/// composing module capabilities.
#[derive(Default)]
pub struct FnHost<'a> {
    fns: HashMap<String, HostFn<'a>>,
}

impl<'a> FnHost<'a> {
    /// Creates an empty host.
    pub fn new() -> Self {
        FnHost { fns: HashMap::new() }
    }

    /// Registers a host function. Replaces any previous function of the same
    /// name.
    pub fn register<F>(&mut self, name: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&[Value]) -> Result<Value, RunScriptError> + 'a,
    {
        self.fns.insert(name.into(), Box::new(f));
        self
    }
}

impl std::fmt::Debug for FnHost<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.fns.keys().map(String::as_str).collect();
        names.sort_unstable();
        f.debug_struct("FnHost").field("functions", &names).finish()
    }
}

impl HostEnv for FnHost<'_> {
    fn call_host(&mut self, name: &str, args: &[Value]) -> Result<Option<Value>, RunScriptError> {
        match self.fns.get_mut(name) {
            Some(f) => f(args).map(Some),
            None => Ok(None),
        }
    }
}

/// Execution limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmLimits {
    /// Maximum instructions executed.
    pub fuel: u64,
    /// Maximum value-stack depth.
    pub max_stack: usize,
    /// Maximum call depth.
    pub max_frames: usize,
    /// Maximum bytes of strings/lists a run may allocate (charged on `..`
    /// concat, list literals, and allocating builtins/host results). Guards
    /// against memory bombs that fuel alone cannot stop — a doubling concat
    /// loop reaches gigabytes in ~30 cheap instructions.
    pub max_memory: usize,
    /// Extra fuel charged for every host-function dispatch, on top of the
    /// call instruction itself. Host calls do real work in the simulated
    /// world (file scans, beacons); pricing them above plain ops keeps a
    /// host-call spin loop from monopolising a sweep point.
    pub host_call_fuel: u64,
}

impl Default for VmLimits {
    fn default() -> Self {
        VmLimits {
            fuel: 1_000_000,
            max_stack: 4_096,
            max_frames: 64,
            max_memory: 16 * 1024 * 1024,
            host_call_fuel: 8,
        }
    }
}

/// Outcome of a successful run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The top-level return value (`nil` if the script fell off the end).
    pub value: Value,
    /// Instructions executed.
    pub fuel_used: u64,
    /// Bytes of strings/lists allocated (the quantity limited by
    /// [`VmLimits::max_memory`]).
    pub mem_allocated: usize,
}

/// The virtual machine. Holds globals that persist across runs, so a
/// long-lived module can keep state between activations.
///
/// Globals are shared by name, so chunks with different name tables see the
/// same variables. A run copies the globals its chunk names into a vector
/// indexed by name slot, executes against that vector, and writes every
/// bound slot back when it ends — whether it returned or faulted, so a write
/// made before a fault persists.
#[derive(Debug, Default)]
pub struct Vm {
    globals: HashMap<String, Value>,
    last_fuel_used: u64,
    last_mem_allocated: usize,
}

struct Frame<'c> {
    code: &'c [Op],
    ip: usize,
    stack_base: usize,
    /// Length of [`Locals::saved`] when the frame was entered.
    saved_base: usize,
}

/// Function-frame locals, indexed by name slot and shallow-bound: `cells[i]`
/// holds the innermost binding of name `i`, stamped with the depth of the
/// frame that bound it. Only a stamp equal to the running frame's depth is
/// visible, so a callee starts with no locals and never sees its caller's.
/// A frame's first binding of a slot saves the cell it replaces; returning
/// restores them. Top-level code (depth 1) binds nothing: its `let`s are
/// globals.
#[derive(Default)]
struct Locals {
    cells: Vec<Local>,
    saved: Vec<(u16, Local)>,
}

#[derive(Default)]
struct Local {
    /// Depth of the binding frame; 0 = unbound.
    depth: u32,
    value: Value,
}

impl Locals {
    fn get(&self, i: u16, depth: u32) -> Option<&Value> {
        self.cells.get(i as usize).filter(|c| c.depth == depth).map(|c| &c.value)
    }

    /// Overwrites the running frame's binding of `i`; hands `v` back when
    /// there is none.
    fn set(&mut self, i: u16, depth: u32, v: Value) -> Result<(), Value> {
        match self.cells.get_mut(i as usize) {
            Some(c) if c.depth == depth => {
                c.value = v;
                Ok(())
            }
            _ => Err(v),
        }
    }

    fn bind(&mut self, i: u16, depth: u32, v: Value) {
        let cell = &mut self.cells[i as usize];
        if cell.depth == depth {
            cell.value = v;
        } else {
            let shadowed = std::mem::replace(cell, Local { depth, value: v });
            self.saved.push((i, shadowed));
        }
    }

    /// Undoes the bindings made since `saved.len()` was `base`.
    fn unwind(&mut self, base: usize) {
        for (i, cell) in self.saved.drain(base..).rev() {
            self.cells[i as usize] = cell;
        }
    }
}

impl Vm {
    /// Creates a VM with empty globals.
    pub fn new() -> Self {
        Vm::default()
    }

    /// Reads a global by name.
    pub fn global(&self, name: &str) -> Option<&Value> {
        self.globals.get(name)
    }

    /// Sets a global (visible to subsequent runs).
    pub fn set_global(&mut self, name: impl Into<String>, value: Value) {
        self.globals.insert(name.into(), value);
    }

    /// Fuel consumed by the most recent [`Vm::run`], whether it succeeded
    /// or faulted — errors carry no fuel figure, so fault reporting (e.g.
    /// a sweep's `ScriptFault` tag) reads it from here.
    pub fn last_fuel_used(&self) -> u64 {
        self.last_fuel_used
    }

    /// Bytes allocated by the most recent [`Vm::run`] (success or fault).
    pub fn last_mem_allocated(&self) -> usize {
        self.last_mem_allocated
    }

    /// Runs a chunk to completion under `limits`.
    ///
    /// # Errors
    ///
    /// Any [`RunScriptError`], including [`RunScriptError::OutOfFuel`] when
    /// the instruction budget is exhausted and
    /// [`RunScriptError::OutOfMemory`] when allocations exceed
    /// [`VmLimits::max_memory`].
    pub fn run(
        &mut self,
        chunk: &Chunk,
        host: &mut dyn HostEnv,
        limits: VmLimits,
    ) -> Result<RunOutcome, RunScriptError> {
        let mut fuel = limits.fuel;
        let mut mem: usize = 0;
        let mut globals: Vec<Option<Value>> =
            chunk.names.iter().map(|n| self.globals.get(n).cloned()).collect();
        let result = exec(chunk, &mut globals, host, limits, &mut fuel, &mut mem);
        for (name, value) in chunk.names.iter().zip(globals) {
            if let Some(value) = value {
                match self.globals.get_mut(name) {
                    Some(slot) => *slot = value,
                    None => {
                        self.globals.insert(name.clone(), value);
                    }
                }
            }
        }
        self.last_fuel_used = limits.fuel - fuel;
        self.last_mem_allocated = mem;
        result.map(|value| RunOutcome { value, fuel_used: limits.fuel - fuel, mem_allocated: mem })
    }
}

/// Executes `chunk` against `globals`, its name-slot view of the VM's
/// globals.
fn exec(
    chunk: &Chunk,
    globals: &mut [Option<Value>],
    host: &mut dyn HostEnv,
    limits: VmLimits,
    fuel: &mut u64,
    mem: &mut usize,
) -> Result<Value, RunScriptError> {
    let mut stack: Vec<Value> = Vec::with_capacity(64);
    let mut frames: Vec<Frame> = vec![Frame { code: &chunk.code, ip: 0, stack_base: 0, saved_base: 0 }];
    let mut locals = Locals::default();
    if !chunk.functions.is_empty() {
        locals.cells.resize_with(chunk.names.len(), Local::default);
    }
    loop {
        let depth = frames.len() as u32;
        let frame = frames.last_mut().expect("at least one frame");
        let Some(&op) = frame.code.get(frame.ip) else {
            // Fell off the end: implicit nil return.
            if ret(&mut frames, &mut stack, &mut locals, Value::Nil) {
                return Ok(Value::Nil);
            }
            continue;
        };
        frame.ip += 1;
        if *fuel == 0 {
            return Err(RunScriptError::OutOfFuel);
        }
        *fuel -= 1;
        if stack.len() > limits.max_stack {
            return Err(RunScriptError::StackOverflow);
        }
        match op {
            Op::Const(i) => stack.push(chunk.consts[i as usize].clone()),
            Op::Nil => stack.push(Value::Nil),
            Op::True => stack.push(Value::Bool(true)),
            Op::False => stack.push(Value::Bool(false)),
            Op::Load(i) => {
                let v = match locals.get(i, depth) {
                    Some(v) => v.clone(),
                    None => globals[i as usize]
                        .clone()
                        .ok_or_else(|| RunScriptError::UndefinedVariable(chunk.name(i).to_owned()))?,
                };
                stack.push(v);
            }
            Op::Declare(i) => {
                let v = pop(&mut stack)?;
                if depth == 1 {
                    globals[i as usize] = Some(v);
                } else {
                    locals.bind(i, depth, v);
                }
            }
            Op::Store(i) => {
                let v = pop(&mut stack)?;
                if let Err(v) = locals.set(i, depth, v) {
                    // Existing global or new global (top-level semantics).
                    globals[i as usize] = Some(v);
                }
            }
            Op::MakeList(n) => {
                let n = n as usize;
                if stack.len() < n {
                    return Err(RunScriptError::StackOverflow);
                }
                let items = stack.split_off(stack.len() - n);
                let v = Value::list(items);
                charge(mem, limits.max_memory, &v)?;
                stack.push(v);
            }
            Op::Add => binary_num(&mut stack, "+", |a, b| a.checked_add(b), |a, b| a + b)?,
            Op::Sub => binary_num(&mut stack, "-", |a, b| a.checked_sub(b), |a, b| a - b)?,
            Op::Mul => binary_num(&mut stack, "*", |a, b| a.checked_mul(b), |a, b| a * b)?,
            Op::Div => div(&mut stack)?,
            Op::Mod => modulo(&mut stack)?,
            Op::Concat => concat(&mut stack, mem, limits.max_memory)?,
            Op::Eq => {
                let b = pop(&mut stack)?;
                let a = pop(&mut stack)?;
                stack.push(Value::Bool(values_eq(&a, &b)));
            }
            Op::Ne => {
                let b = pop(&mut stack)?;
                let a = pop(&mut stack)?;
                stack.push(Value::Bool(!values_eq(&a, &b)));
            }
            Op::Lt => compare(&mut stack, "<", |o| o == std::cmp::Ordering::Less)?,
            Op::Le => compare(&mut stack, "<=", |o| o != std::cmp::Ordering::Greater)?,
            Op::Gt => compare(&mut stack, ">", |o| o == std::cmp::Ordering::Greater)?,
            Op::Ge => compare(&mut stack, ">=", |o| o != std::cmp::Ordering::Less)?,
            Op::Neg => neg(&mut stack)?,
            Op::Not => {
                let a = pop(&mut stack)?;
                stack.push(Value::Bool(!a.truthy()));
            }
            Op::Index => index(&mut stack)?,
            Op::Jump(t) => frame.ip = t as usize,
            Op::JumpIfFalse(t) => {
                let v = pop(&mut stack)?;
                if !v.truthy() {
                    frame.ip = t as usize;
                }
            }
            Op::JumpIfFalseKeep(t) => {
                let v = stack.last().ok_or(RunScriptError::StackOverflow)?;
                if !v.truthy() {
                    frame.ip = t as usize;
                } else {
                    stack.pop();
                }
            }
            Op::JumpIfTrueKeep(t) => {
                let v = stack.last().ok_or(RunScriptError::StackOverflow)?;
                if v.truthy() {
                    frame.ip = t as usize;
                } else {
                    stack.pop();
                }
            }
            Op::Call { name, argc } => {
                let argc = argc as usize;
                if stack.len() < argc {
                    return Err(RunScriptError::StackOverflow);
                }
                let base = stack.len() - argc;
                match &chunk.callees[name as usize] {
                    Callee::Script(proto) => {
                        if proto.params.len() != argc {
                            return Err(RunScriptError::ArityMismatch {
                                name: chunk.name(name).to_owned(),
                                expected: proto.params.len(),
                                got: argc,
                            });
                        }
                        if frames.len() >= limits.max_frames {
                            return Err(RunScriptError::StackOverflow);
                        }
                        let saved_base = locals.saved.len();
                        for (slot, v) in proto.param_slots.iter().zip(stack.drain(base..)) {
                            if let Some(i) = *slot {
                                locals.bind(i, depth + 1, v);
                            }
                        }
                        frames.push(Frame { code: &proto.code, ip: 0, stack_base: base, saved_base });
                    }
                    Callee::Builtin(b) => {
                        let v = builtin(*b, &stack[base..])?;
                        charge(mem, limits.max_memory, &v)?;
                        stack.truncate(base);
                        stack.push(v);
                    }
                    Callee::Host => {
                        // Surcharge a host dispatch before the host runs.
                        if *fuel < limits.host_call_fuel {
                            return Err(RunScriptError::OutOfFuel);
                        }
                        *fuel -= limits.host_call_fuel;
                        let fname = chunk.name(name);
                        match host.call_host(fname, &stack[base..])? {
                            Some(v) => {
                                charge(mem, limits.max_memory, &v)?;
                                stack.truncate(base);
                                stack.push(v);
                            }
                            None => return Err(RunScriptError::UndefinedFunction(fname.to_owned())),
                        }
                    }
                }
            }
            Op::Return => {
                let v = pop(&mut stack)?;
                if ret(&mut frames, &mut stack, &mut locals, v.clone()) {
                    return Ok(v);
                }
            }
            Op::ReturnNil => {
                if ret(&mut frames, &mut stack, &mut locals, Value::Nil) {
                    return Ok(Value::Nil);
                }
            }
            Op::Pop => {
                pop(&mut stack)?;
            }
        }
    }
}

/// Pops a frame, truncating the stack, dropping the frame's locals and
/// pushing the return value into the caller. Returns `true` when the popped
/// frame was the last one.
fn ret(frames: &mut Vec<Frame>, stack: &mut Vec<Value>, locals: &mut Locals, value: Value) -> bool {
    let frame = frames.pop().expect("frame");
    stack.truncate(frame.stack_base);
    locals.unwind(frame.saved_base);
    if frames.is_empty() {
        true
    } else {
        stack.push(value);
        false
    }
}

fn pop(stack: &mut Vec<Value>) -> Result<Value, RunScriptError> {
    stack.pop().ok_or(RunScriptError::StackOverflow)
}

/// Charges a freshly allocated value against the memory budget.
fn charge(mem: &mut usize, limit: usize, v: &Value) -> Result<(), RunScriptError> {
    let add = v.heap_bytes();
    if add != 0 {
        *mem = mem.saturating_add(add);
        if *mem > limit {
            return Err(RunScriptError::OutOfMemory { used: *mem, limit });
        }
    }
    Ok(())
}

fn div(stack: &mut Vec<Value>) -> Result<(), RunScriptError> {
    let b = pop(stack)?;
    let a = pop(stack)?;
    let v = match (&a, &b) {
        (Value::Int(_), Value::Int(0)) => return Err(RunScriptError::DivisionByZero),
        (Value::Int(x), Value::Int(y)) => Value::Int(x / y),
        _ => {
            let (x, y) = both_nums(&a, &b, "/")?;
            if y == 0.0 {
                return Err(RunScriptError::DivisionByZero);
            }
            Value::Num(x / y)
        }
    };
    stack.push(v);
    Ok(())
}

fn modulo(stack: &mut Vec<Value>) -> Result<(), RunScriptError> {
    let b = pop(stack)?;
    let a = pop(stack)?;
    let v = match (&a, &b) {
        (Value::Int(_), Value::Int(0)) => return Err(RunScriptError::DivisionByZero),
        (Value::Int(x), Value::Int(y)) => Value::Int(x.rem_euclid(*y)),
        _ => {
            let (x, y) = both_nums(&a, &b, "%")?;
            if y == 0.0 {
                return Err(RunScriptError::DivisionByZero);
            }
            Value::Num(x.rem_euclid(y))
        }
    };
    stack.push(v);
    Ok(())
}

fn concat(stack: &mut Vec<Value>, mem: &mut usize, limit: usize) -> Result<(), RunScriptError> {
    let b = pop(stack)?;
    let a = pop(stack)?;
    let v = Value::str(format!("{a}{b}"));
    charge(mem, limit, &v)?;
    stack.push(v);
    Ok(())
}

fn neg(stack: &mut Vec<Value>) -> Result<(), RunScriptError> {
    let v = match pop(stack)? {
        Value::Int(x) => Value::Int(-x),
        Value::Num(x) => Value::Num(-x),
        other => {
            return Err(RunScriptError::TypeMismatch { op: "-".into(), found: other.type_name().into() })
        }
    };
    stack.push(v);
    Ok(())
}

fn index(stack: &mut Vec<Value>) -> Result<(), RunScriptError> {
    let idx = pop(stack)?;
    let target = pop(stack)?;
    let list = target
        .as_list()
        .ok_or_else(|| RunScriptError::TypeMismatch { op: "[]".into(), found: target.type_name().into() })?;
    let i = idx.as_int().ok_or_else(|| RunScriptError::BadIndex(format!("index is {}", idx.type_name())))?;
    if i < 0 || i as usize >= list.len() {
        return Err(RunScriptError::BadIndex(format!("index {i} out of range 0..{}", list.len())));
    }
    stack.push(list[i as usize].clone());
    Ok(())
}

fn both_nums(a: &Value, b: &Value, op: &str) -> Result<(f64, f64), RunScriptError> {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => Ok((x, y)),
        _ => Err(RunScriptError::TypeMismatch {
            op: op.to_owned(),
            found: format!("{} and {}", a.type_name(), b.type_name()),
        }),
    }
}

fn binary_num(
    stack: &mut Vec<Value>,
    op: &str,
    int_op: impl Fn(i64, i64) -> Option<i64>,
    num_op: impl Fn(f64, f64) -> f64,
) -> Result<(), RunScriptError> {
    let b = pop(stack)?;
    let a = pop(stack)?;
    let v = match (&a, &b) {
        (Value::Int(x), Value::Int(y)) => match int_op(*x, *y) {
            Some(r) => Value::Int(r),
            None => Value::Num(num_op(*x as f64, *y as f64)), // overflow widens
        },
        _ => {
            let (x, y) = both_nums(&a, &b, op)?;
            Value::Num(num_op(x, y))
        }
    };
    stack.push(v);
    Ok(())
}

fn values_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Num(y)) | (Value::Num(y), Value::Int(x)) => *x as f64 == *y,
        _ => a == b,
    }
}

fn compare(
    stack: &mut Vec<Value>,
    op: &str,
    accept: impl Fn(std::cmp::Ordering) -> bool,
) -> Result<(), RunScriptError> {
    let b = pop(stack)?;
    let a = pop(stack)?;
    let ord = match (&a, &b) {
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        _ => {
            let (x, y) = both_nums(&a, &b, op)?;
            x.partial_cmp(&y).ok_or_else(|| RunScriptError::TypeMismatch {
                op: op.to_owned(),
                found: "NaN comparison".into(),
            })?
        }
    };
    stack.push(Value::Bool(accept(ord)));
    Ok(())
}

/// Runs a VM builtin.
fn builtin(b: Builtin, args: &[Value]) -> Result<Value, RunScriptError> {
    let arity = |expected: usize| -> Result<(), RunScriptError> {
        if args.len() != expected {
            Err(RunScriptError::ArityMismatch { name: b.name().to_owned(), expected, got: args.len() })
        } else {
            Ok(())
        }
    };
    match b {
        Builtin::Len => {
            arity(1)?;
            let v = match &args[0] {
                Value::Str(s) => s.len() as i64,
                Value::List(l) => l.len() as i64,
                other => {
                    return Err(RunScriptError::TypeMismatch {
                        op: "len".into(),
                        found: other.type_name().into(),
                    })
                }
            };
            Ok(Value::Int(v))
        }
        Builtin::Str => {
            arity(1)?;
            Ok(Value::str(args[0].to_string()))
        }
        Builtin::Push => {
            arity(2)?;
            let list = args[0].as_list().ok_or_else(|| RunScriptError::TypeMismatch {
                op: "push".into(),
                found: args[0].type_name().into(),
            })?;
            let mut v = list.to_vec();
            v.push(args[1].clone());
            Ok(Value::list(v))
        }
        Builtin::Contains => {
            arity(2)?;
            let v = match (&args[0], &args[1]) {
                (Value::Str(hay), Value::Str(needle)) => hay.contains(&**needle),
                (Value::List(items), needle) => items.iter().any(|i| values_eq(i, needle)),
                (other, _) => {
                    return Err(RunScriptError::TypeMismatch {
                        op: "contains".into(),
                        found: other.type_name().into(),
                    })
                }
            };
            Ok(Value::Bool(v))
        }
        Builtin::Range => {
            arity(1)?;
            let n = args[0].as_int().ok_or_else(|| RunScriptError::TypeMismatch {
                op: "range".into(),
                found: args[0].type_name().into(),
            })?;
            if !(0..=1_000_000).contains(&n) {
                return Err(RunScriptError::BadIndex(format!("range({n}) out of bounds")));
            }
            Ok(Value::list((0..n).map(Value::Int).collect()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;

    fn eval(src: &str) -> Result<Value, RunScriptError> {
        let chunk = compile(src).expect("compiles");
        let mut vm = Vm::new();
        vm.run(&chunk, &mut NoHost, VmLimits::default()).map(|o| o.value)
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval("return 1 + 2 * 3").unwrap(), Value::Int(7));
        assert_eq!(eval("return (1 + 2) * 3").unwrap(), Value::Int(9));
        assert_eq!(eval("return 7 / 2").unwrap(), Value::Int(3));
        assert_eq!(eval("return 7.0 / 2").unwrap(), Value::Num(3.5));
        assert_eq!(eval("return 7 % 3").unwrap(), Value::Int(1));
        assert_eq!(eval("return -5 + 1").unwrap(), Value::Int(-4));
    }

    #[test]
    fn overflow_widens_to_float() {
        let v = eval("return 9223372036854775807 + 1").unwrap();
        assert!(matches!(v, Value::Num(_)));
    }

    #[test]
    fn division_by_zero() {
        assert_eq!(eval("return 1 / 0"), Err(RunScriptError::DivisionByZero));
        assert_eq!(eval("return 1 % 0"), Err(RunScriptError::DivisionByZero));
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(eval("return 1 < 2 and 2 <= 2").unwrap(), Value::Bool(true));
        assert_eq!(eval("return 3 > 4 or 4 >= 5").unwrap(), Value::Bool(false));
        assert_eq!(eval("return not nil").unwrap(), Value::Bool(true));
        assert_eq!(eval("return \"a\" < \"b\"").unwrap(), Value::Bool(true));
        assert_eq!(eval("return 1 == 1.0").unwrap(), Value::Bool(true));
        assert_eq!(eval("return 1 != 2").unwrap(), Value::Bool(true));
    }

    #[test]
    fn short_circuit_preserves_value_semantics() {
        assert_eq!(eval("return nil or 5").unwrap(), Value::Int(5));
        assert_eq!(eval("return false and crash()").unwrap(), Value::Bool(false));
        assert_eq!(eval("return 3 and 4").unwrap(), Value::Int(4));
        assert_eq!(eval("return 3 or crash()").unwrap(), Value::Int(3));
    }

    #[test]
    fn strings_and_concat() {
        assert_eq!(eval("return \"a\" .. \"b\" .. 3").unwrap(), Value::str("ab3"));
        assert_eq!(eval("return len(\"hello\")").unwrap(), Value::Int(5));
        assert_eq!(eval("return contains(\"hello.docx\", \".docx\")").unwrap(), Value::Bool(true));
    }

    #[test]
    fn variables_and_scope() {
        assert_eq!(eval("let x = 1\nx = x + 1\nreturn x").unwrap(), Value::Int(2));
        assert_eq!(
            eval("let x = 10\nfn f() return x end\nreturn f()").unwrap(),
            Value::Int(10),
            "globals visible inside functions"
        );
        assert_eq!(
            eval("let x = 1\nfn f(x) x = 99 return x end\nf(5)\nreturn x").unwrap(),
            Value::Int(1),
            "parameters shadow and do not leak"
        );
        assert_eq!(
            eval("let g = 1\nfn f() g = g + 10 end\nf()\nreturn g").unwrap(),
            Value::Int(11),
            "a store with no local writes the global"
        );
        assert_eq!(
            eval("let g = 1\nfn f() let g = 5 g = g + 1 return g end\nreturn f() * 100 + g").unwrap(),
            Value::Int(601),
            "a let shadows the global without leaking"
        );
    }

    #[test]
    fn undefined_variable_and_function() {
        assert_eq!(eval("return nope"), Err(RunScriptError::UndefinedVariable("nope".into())));
        assert_eq!(eval("return nope()"), Err(RunScriptError::UndefinedFunction("nope".into())));
    }

    #[test]
    fn if_elseif_else() {
        let src = "fn grade(n) if n >= 90 then return \"A\" elseif n >= 80 then return \"B\" else return \"C\" end end\nreturn grade(85)";
        assert_eq!(eval(src).unwrap(), Value::str("B"));
    }

    #[test]
    fn while_loop_and_break() {
        let src = "let i = 0\nlet total = 0\nwhile true do\n  i = i + 1\n  if i > 10 then break end\n  total = total + i\nend\nreturn total";
        assert_eq!(eval(src).unwrap(), Value::Int(55));
    }

    #[test]
    fn for_in_over_list() {
        let src = "let total = 0\nfor x in [1, 2, 3, 4] do total = total + x end\nreturn total";
        assert_eq!(eval(src).unwrap(), Value::Int(10));
    }

    #[test]
    fn for_in_with_break() {
        let src = "let found = nil\nfor f in [\"a.txt\", \"b.docx\", \"c.ppt\"] do\n  if contains(f, \".docx\") then found = f break end\nend\nreturn found";
        assert_eq!(eval(src).unwrap(), Value::str("b.docx"));
    }

    #[test]
    fn nested_loops_break_inner_only() {
        let src = "let count = 0\nfor i in range(3) do\n  for j in range(10) do\n    if j == 2 then break end\n    count = count + 1\n  end\nend\nreturn count";
        assert_eq!(eval(src).unwrap(), Value::Int(6));
    }

    #[test]
    fn functions_recursion() {
        let src = "fn fib(n) if n < 2 then return n end return fib(n - 1) + fib(n - 2) end\nreturn fib(12)";
        assert_eq!(eval(src).unwrap(), Value::Int(144));
    }

    #[test]
    fn arity_mismatch() {
        assert!(matches!(
            eval("fn f(a, b) return a end\nreturn f(1)"),
            Err(RunScriptError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn lists_push_index() {
        assert_eq!(eval("return [10, 20, 30][1]").unwrap(), Value::Int(20));
        assert_eq!(eval("return len(push([1], 2))").unwrap(), Value::Int(2));
        assert!(matches!(eval("return [1][5]"), Err(RunScriptError::BadIndex(_))));
        assert!(matches!(eval("return [1][-1]"), Err(RunScriptError::BadIndex(_))));
        assert!(matches!(eval("return 3[0]"), Err(RunScriptError::TypeMismatch { .. })));
    }

    #[test]
    fn fuel_limit_stops_infinite_loop() {
        let chunk = compile("while true do end").unwrap();
        let mut vm = Vm::new();
        let err = vm.run(&chunk, &mut NoHost, VmLimits { fuel: 10_000, ..VmLimits::default() }).unwrap_err();
        assert_eq!(err, RunScriptError::OutOfFuel);
    }

    #[test]
    fn recursion_depth_limited() {
        let chunk = compile("fn f(n) return f(n + 1) end\nreturn f(0)").unwrap();
        let mut vm = Vm::new();
        let err = vm.run(&chunk, &mut NoHost, VmLimits::default()).unwrap_err();
        assert_eq!(err, RunScriptError::StackOverflow);
    }

    #[test]
    fn host_functions_are_callable() {
        let chunk = compile("return exfiltrate(\"secret.docx\", 1024)").unwrap();
        let mut vm = Vm::new();
        let mut uploaded: Vec<(String, i64)> = Vec::new();
        {
            let mut host = FnHost::new();
            host.register("exfiltrate", |args| Ok(Value::str(format!("queued:{}:{}", args[0], args[1]))));
            let out = vm.run(&chunk, &mut host, VmLimits::default()).unwrap();
            assert_eq!(out.value, Value::str("queued:secret.docx:1024"));
        }
        // Borrow-capturing host
        let chunk2 = compile("upload(\"a\", 1)\nupload(\"b\", 2)").unwrap();
        {
            let mut host = FnHost::new();
            host.register("upload", |args| {
                uploaded.push((args[0].to_string(), args[1].as_int().unwrap()));
                Ok(Value::Nil)
            });
            vm.run(&chunk2, &mut host, VmLimits::default()).unwrap();
        }
        assert_eq!(uploaded, vec![("a".into(), 1), ("b".into(), 2)]);
    }

    #[test]
    fn host_error_propagates() {
        let chunk = compile("return fail()").unwrap();
        let mut vm = Vm::new();
        let mut host = FnHost::new();
        host.register("fail", |_| Err(RunScriptError::Host("boom".into())));
        assert_eq!(
            vm.run(&chunk, &mut host, VmLimits::default()).unwrap_err(),
            RunScriptError::Host("boom".into())
        );
    }

    #[test]
    fn globals_persist_across_runs() {
        let mut vm = Vm::new();
        let c1 = compile("let counter = 41").unwrap();
        vm.run(&c1, &mut NoHost, VmLimits::default()).unwrap();
        let c2 = compile("counter = counter + 1\nreturn counter").unwrap();
        let out = vm.run(&c2, &mut NoHost, VmLimits::default()).unwrap();
        assert_eq!(out.value, Value::Int(42));
        assert_eq!(vm.global("counter"), Some(&Value::Int(42)));

        // Chunks with different name tables share globals by name.
        let mut vm = Vm::new();
        let a = compile("let a = 1\nlet b = 2").unwrap();
        let b = compile("b = b + 40\nreturn a + b").unwrap();
        assert_ne!(a.names, b.names);
        vm.run(&a, &mut NoHost, VmLimits::default()).unwrap();
        assert_eq!(vm.run(&b, &mut NoHost, VmLimits::default()).unwrap().value, Value::Int(43));

        // A write made before a fault persists.
        let mut vm = Vm::new();
        let mut host = FnHost::new();
        host.register("fail", |_| Err(RunScriptError::Host("boom".into())));
        let chunk = compile("let x = 1\nfail()").unwrap();
        assert!(vm.run(&chunk, &mut host, VmLimits::default()).is_err());
        assert_eq!(vm.global("x"), Some(&Value::Int(1)));
    }

    #[test]
    fn set_global_injects_configuration() {
        let mut vm = Vm::new();
        vm.set_global("threshold", Value::Int(100));
        let chunk = compile("return threshold * 2").unwrap();
        assert_eq!(vm.run(&chunk, &mut NoHost, VmLimits::default()).unwrap().value, Value::Int(200));
    }

    #[test]
    fn fuel_accounting_reported() {
        let chunk = compile("return 1 + 1").unwrap();
        let mut vm = Vm::new();
        let out = vm.run(&chunk, &mut NoHost, VmLimits::default()).unwrap();
        assert!(out.fuel_used > 0 && out.fuel_used < 20);
    }

    #[test]
    fn builtin_range_bounds() {
        assert!(matches!(eval("return range(-1)"), Err(RunScriptError::BadIndex(_))));
        assert_eq!(eval("return len(range(5))").unwrap(), Value::Int(5));
    }

    #[test]
    fn memory_limit_stops_concat_bomb() {
        // The classic 3-line doubling bomb: without `max_memory` this
        // reaches gigabytes long before the fuel budget notices.
        let chunk = compile("let s = \"x\"\nwhile true do s = s .. s end").unwrap();
        let mut vm = Vm::new();
        let limits = VmLimits { max_memory: 64 * 1024, ..VmLimits::default() };
        let err = vm.run(&chunk, &mut NoHost, limits).unwrap_err();
        assert!(matches!(err, RunScriptError::OutOfMemory { limit: 65_536, .. }));
        assert!(vm.last_mem_allocated() > 64 * 1024, "counter crossed the limit");
        assert!(vm.last_fuel_used() > 0 && vm.last_fuel_used() < 1_000, "caught early");
    }

    #[test]
    fn memory_limit_stops_push_bomb() {
        let chunk = compile("let l = []\nwhile true do l = push(l, 1) end").unwrap();
        let mut vm = Vm::new();
        let limits = VmLimits { max_memory: 4 * 1024, ..VmLimits::default() };
        let err = vm.run(&chunk, &mut NoHost, limits).unwrap_err();
        assert!(matches!(err, RunScriptError::OutOfMemory { .. }));
    }

    #[test]
    fn memory_limit_stops_range_bomb() {
        let chunk = compile("return range(1000000)").unwrap();
        let mut vm = Vm::new();
        let limits = VmLimits { max_memory: 1024 * 1024, ..VmLimits::default() };
        let err = vm.run(&chunk, &mut NoHost, limits).unwrap_err();
        assert!(matches!(err, RunScriptError::OutOfMemory { .. }));
    }

    #[test]
    fn memory_accounting_reported_and_deterministic() {
        let chunk = compile("return \"aaaa\" .. \"bbbb\"").unwrap();
        let mut vm = Vm::new();
        let a = vm.run(&chunk, &mut NoHost, VmLimits::default()).unwrap();
        let b = vm.run(&chunk, &mut NoHost, VmLimits::default()).unwrap();
        assert!(a.mem_allocated > 0);
        assert_eq!(a.mem_allocated, b.mem_allocated);
        assert_eq!(a.mem_allocated, vm.last_mem_allocated());
    }

    #[test]
    fn host_calls_pay_the_fuel_surcharge() {
        let chunk = compile("ping()\nping()").unwrap();
        let run_with = |surcharge: u64| {
            let mut vm = Vm::new();
            let mut host = FnHost::new();
            host.register("ping", |_| Ok(Value::Nil));
            let limits = VmLimits { host_call_fuel: surcharge, ..VmLimits::default() };
            vm.run(&chunk, &mut host, limits).unwrap().fuel_used
        };
        assert_eq!(run_with(100) - run_with(0), 200, "two host calls, 100 extra fuel each");
    }

    #[test]
    fn host_call_surcharge_is_enforced() {
        // Enough fuel for the call instruction but not the surcharge.
        let chunk = compile("ping()").unwrap();
        let mut vm = Vm::new();
        let mut host = FnHost::new();
        host.register("ping", |_| Ok(Value::Nil));
        let limits = VmLimits { fuel: 3, host_call_fuel: 1_000, ..VmLimits::default() };
        assert_eq!(vm.run(&chunk, &mut host, limits).unwrap_err(), RunScriptError::OutOfFuel);
    }

    #[test]
    fn type_mismatch_messages() {
        let err = eval("return 1 + \"a\"").unwrap_err();
        assert!(matches!(err, RunScriptError::TypeMismatch { .. }));
        let err = eval("return -\"a\"").unwrap_err();
        assert!(matches!(err, RunScriptError::TypeMismatch { .. }));
    }
}
