//! Bytecode compiler: AST → [`Chunk`]s.

use std::collections::HashMap;
use std::rc::Rc;

use crate::ast::{BinOp, Expr, Program, Stmt, UnOp};
use crate::error::{CompileScriptError, SourcePos};
use crate::value::Value;

/// One bytecode instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push constant `consts[i]`.
    Const(u16),
    /// Push `nil`.
    Nil,
    /// Push `true`.
    True,
    /// Push `false`.
    False,
    /// Push the value of variable `names[i]`.
    Load(u16),
    /// Pop into existing variable `names[i]` (or create a global).
    Store(u16),
    /// Pop and declare `names[i]` in the current frame.
    Declare(u16),
    /// Pop `n` values, push a list of them (in pushed order).
    MakeList(u16),
    /// Arithmetic/logic: pop two, push one.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Modulo.
    Mod,
    /// String concatenation (stringifies operands).
    Concat,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
    /// Pop index and list, push element.
    Index,
    /// Unconditional jump to absolute instruction index.
    Jump(u32),
    /// Pop; jump if falsy.
    JumpIfFalse(u32),
    /// Peek; jump if falsy, else pop (for `and`).
    JumpIfFalseKeep(u32),
    /// Peek; jump if truthy, else pop (for `or`).
    JumpIfTrueKeep(u32),
    /// Call function `names[i]` with `argc` stack arguments.
    Call {
        /// Name-table index of the callee.
        name: u16,
        /// Argument count.
        argc: u8,
    },
    /// Return the top of stack from the current function.
    Return,
    /// Return `nil` from the current function.
    ReturnNil,
    /// Discard the top of stack.
    Pop,
}

/// A compiled function body.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncProto {
    /// Parameter names (bound as frame locals on call).
    pub params: Vec<String>,
    /// The name slot each parameter binds, or `None` when the name appears
    /// nowhere in the chunk (so the body cannot read it and it stays
    /// unbound).
    pub(crate) param_slots: Vec<Option<u16>>,
    /// Body code.
    pub code: Vec<Op>,
}

/// A VM builtin function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Builtin {
    /// `len(str|list)`.
    Len,
    /// `str(v)`.
    Str,
    /// `push(list, v)`: a new list with `v` appended.
    Push,
    /// `contains(str, str)` or `contains(list, v)`.
    Contains,
    /// `range(n)`: `[0, …, n-1]`.
    Range,
}

impl Builtin {
    const ALL: [Builtin; 5] = [Builtin::Len, Builtin::Str, Builtin::Push, Builtin::Contains, Builtin::Range];

    /// The name scripts call it by.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Builtin::Len => "len",
            Builtin::Str => "str",
            Builtin::Push => "push",
            Builtin::Contains => "contains",
            Builtin::Range => "range",
        }
    }

    /// The builtin called `name`, if any.
    pub(crate) fn from_name(name: &str) -> Option<Builtin> {
        Builtin::ALL.into_iter().find(|b| b.name() == name)
    }
}

/// What a `Call` of a name dispatches to, fixed at compile time in the
/// VM's resolution order: script function, then builtin, then host.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Callee {
    /// A function the script defines.
    Script(Rc<FuncProto>),
    /// A VM builtin.
    Builtin(Builtin),
    /// Anything else goes to the host by name.
    Host,
}

/// A compiled script: top-level code plus named functions, with shared
/// constant and name tables.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    /// Top-level code.
    pub code: Vec<Op>,
    /// Constant pool.
    pub consts: Vec<Value>,
    /// Name table (variables and callees). An operand that names a
    /// variable or callee is an index into it: the name's *slot*.
    pub names: Vec<String>,
    /// Script-defined functions by name.
    pub functions: HashMap<String, Rc<FuncProto>>,
    /// The call target of each name slot (parallel to `names`).
    pub(crate) callees: Vec<Callee>,
}

impl Chunk {
    /// Looks up a name-table entry.
    pub fn name(&self, i: u16) -> &str {
        &self.names[i as usize]
    }
}

/// Compiles source text to a [`Chunk`].
///
/// # Errors
///
/// Returns the first syntax or codegen error (e.g. `break` outside a loop,
/// nested function definitions, or too many constants).
///
/// # Examples
///
/// ```
/// use malsim_script::compiler::compile;
///
/// let chunk = compile("let x = 1 + 2")?;
/// assert!(!chunk.code.is_empty());
/// # Ok::<(), malsim_script::error::CompileScriptError>(())
/// ```
pub fn compile(source: &str) -> Result<Chunk, CompileScriptError> {
    let program = crate::parser::parse(source)?;
    compile_program(&program)
}

/// Compiles an already-parsed [`Program`].
///
/// # Errors
///
/// As for [`compile`], minus syntax errors.
pub fn compile_program(program: &Program) -> Result<Chunk, CompileScriptError> {
    let mut c = Compiler::default();
    // First pass: hoist function definitions so calls can precede them.
    let mut bodies: HashMap<&str, (&[String], Vec<Op>)> = HashMap::new();
    for stmt in &program.stmts {
        if let Stmt::FnDef { name, params, body } = stmt {
            let mut code = Vec::new();
            c.in_function = true;
            c.block(body, &mut code)?;
            c.in_function = false;
            code.push(Op::ReturnNil);
            if bodies.insert(name, (params, code)).is_some() {
                return Err(CompileScriptError {
                    pos: SourcePos { line: 1, col: 1 },
                    message: format!("function '{name}' defined twice"),
                });
            }
        }
    }
    let mut code = Vec::new();
    for stmt in &program.stmts {
        if !matches!(stmt, Stmt::FnDef { .. }) {
            c.statement(stmt, &mut code)?;
        }
    }
    code.push(Op::ReturnNil);
    // The name table is complete: resolve parameters and call targets.
    let functions: HashMap<String, Rc<FuncProto>> = bodies
        .into_iter()
        .map(|(name, (params, code))| {
            let param_slots = params.iter().map(|p| c.name_index.get(p).copied()).collect();
            (name.to_owned(), Rc::new(FuncProto { params: params.to_vec(), param_slots, code }))
        })
        .collect();
    let callees = c
        .names
        .iter()
        .map(|n| match (functions.get(n), Builtin::from_name(n)) {
            (Some(proto), _) => Callee::Script(Rc::clone(proto)),
            (None, Some(b)) => Callee::Builtin(b),
            (None, None) => Callee::Host,
        })
        .collect();
    Ok(Chunk { code, consts: c.consts, names: c.names, functions, callees })
}

#[derive(Default)]
struct Compiler {
    consts: Vec<Value>,
    names: Vec<String>,
    name_index: HashMap<String, u16>,
    in_function: bool,
    /// Jump-patch sites for `break` in the innermost loop.
    break_sites: Vec<Vec<usize>>,
}

impl Compiler {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, CompileScriptError> {
        Err(CompileScriptError { pos: SourcePos { line: 0, col: 0 }, message: message.into() })
    }

    fn const_idx(&mut self, v: Value) -> Result<u16, CompileScriptError> {
        if let Some(i) = self.consts.iter().position(|c| c == &v) {
            return Ok(i as u16);
        }
        if self.consts.len() >= u16::MAX as usize {
            return self.err("too many constants");
        }
        self.consts.push(v);
        Ok((self.consts.len() - 1) as u16)
    }

    fn name_idx(&mut self, name: &str) -> Result<u16, CompileScriptError> {
        if let Some(&i) = self.name_index.get(name) {
            return Ok(i);
        }
        if self.names.len() >= u16::MAX as usize {
            return self.err("too many names");
        }
        self.names.push(name.to_owned());
        let i = (self.names.len() - 1) as u16;
        self.name_index.insert(name.to_owned(), i);
        Ok(i)
    }

    fn block(&mut self, stmts: &[Stmt], code: &mut Vec<Op>) -> Result<(), CompileScriptError> {
        for s in stmts {
            self.statement(s, code)?;
        }
        Ok(())
    }

    fn statement(&mut self, stmt: &Stmt, code: &mut Vec<Op>) -> Result<(), CompileScriptError> {
        match stmt {
            Stmt::Let { name, value } => {
                self.expression(value, code)?;
                let i = self.name_idx(name)?;
                code.push(Op::Declare(i));
            }
            Stmt::Assign { name, value } => {
                self.expression(value, code)?;
                let i = self.name_idx(name)?;
                code.push(Op::Store(i));
            }
            Stmt::Expr(e) => {
                self.expression(e, code)?;
                code.push(Op::Pop);
            }
            Stmt::Return(value) => match value {
                Some(e) => {
                    self.expression(e, code)?;
                    code.push(Op::Return);
                }
                None => code.push(Op::ReturnNil),
            },
            Stmt::Break => {
                let Some(sites) = self.break_sites.last_mut() else {
                    return self.err("'break' outside a loop");
                };
                sites.push(code.len());
                code.push(Op::Jump(u32::MAX)); // patched at loop end
            }
            Stmt::If { arms, otherwise } => {
                // Chain: each arm tests, jumps past its body to the next test.
                let mut end_jumps = Vec::new();
                for (cond, body) in arms {
                    self.expression(cond, code)?;
                    let skip = code.len();
                    code.push(Op::JumpIfFalse(u32::MAX));
                    self.block(body, code)?;
                    end_jumps.push(code.len());
                    code.push(Op::Jump(u32::MAX));
                    let here = code.len() as u32;
                    patch(code, skip, here);
                }
                if let Some(body) = otherwise {
                    self.block(body, code)?;
                }
                let end = code.len() as u32;
                for j in end_jumps {
                    patch(code, j, end);
                }
            }
            Stmt::While { cond, body } => {
                let top = code.len() as u32;
                self.expression(cond, code)?;
                let exit = code.len();
                code.push(Op::JumpIfFalse(u32::MAX));
                self.break_sites.push(Vec::new());
                self.block(body, code)?;
                code.push(Op::Jump(top));
                let end = code.len() as u32;
                patch(code, exit, end);
                for site in self.break_sites.pop().expect("pushed above") {
                    patch(code, site, end);
                }
            }
            Stmt::ForIn { name, iterable, body } => {
                // Desugar to: let $list = iterable; let $i = 0;
                // while $i < len($list) do let name = $list[$i]; body; $i = $i + 1 end
                let depth = self.break_sites.len();
                let list_var = self.name_idx(&format!("$list{depth}"))?;
                let idx_var = self.name_idx(&format!("$idx{depth}"))?;
                let len_fn = self.name_idx("len")?;
                let name_var = self.name_idx(name)?;
                let zero = self.const_idx(Value::Int(0))?;
                let one = self.const_idx(Value::Int(1))?;
                self.expression(iterable, code)?;
                code.push(Op::Declare(list_var));
                code.push(Op::Const(zero));
                code.push(Op::Declare(idx_var));
                let top = code.len() as u32;
                code.push(Op::Load(idx_var));
                code.push(Op::Load(list_var));
                code.push(Op::Call { name: len_fn, argc: 1 });
                code.push(Op::Lt);
                let exit = code.len();
                code.push(Op::JumpIfFalse(u32::MAX));
                code.push(Op::Load(list_var));
                code.push(Op::Load(idx_var));
                code.push(Op::Index);
                code.push(Op::Declare(name_var));
                self.break_sites.push(Vec::new());
                self.block(body, code)?;
                code.push(Op::Load(idx_var));
                code.push(Op::Const(one));
                code.push(Op::Add);
                code.push(Op::Store(idx_var));
                code.push(Op::Jump(top));
                let end = code.len() as u32;
                patch(code, exit, end);
                for site in self.break_sites.pop().expect("pushed above") {
                    patch(code, site, end);
                }
            }
            Stmt::FnDef { name, .. } => {
                if self.in_function {
                    return self.err(format!("nested function '{name}' not supported"));
                }
                // Hoisted in compile_program; nothing to emit here.
            }
        }
        Ok(())
    }

    fn expression(&mut self, expr: &Expr, code: &mut Vec<Op>) -> Result<(), CompileScriptError> {
        match expr {
            Expr::Nil => code.push(Op::Nil),
            Expr::Bool(true) => code.push(Op::True),
            Expr::Bool(false) => code.push(Op::False),
            Expr::Int(v) => {
                let i = self.const_idx(Value::Int(*v))?;
                code.push(Op::Const(i));
            }
            Expr::Num(v) => {
                let i = self.const_idx(Value::Num(*v))?;
                code.push(Op::Const(i));
            }
            Expr::Str(s) => {
                let i = self.const_idx(Value::str(s))?;
                code.push(Op::Const(i));
            }
            Expr::Var(name) => {
                let i = self.name_idx(name)?;
                code.push(Op::Load(i));
            }
            Expr::List(items) => {
                if items.len() > u16::MAX as usize {
                    return self.err("list literal too long");
                }
                for item in items {
                    self.expression(item, code)?;
                }
                code.push(Op::MakeList(items.len() as u16));
            }
            Expr::Unary { op, expr } => {
                self.expression(expr, code)?;
                code.push(match op {
                    UnOp::Neg => Op::Neg,
                    UnOp::Not => Op::Not,
                });
            }
            Expr::Binary { op: BinOp::And, lhs, rhs } => {
                self.expression(lhs, code)?;
                let j = code.len();
                code.push(Op::JumpIfFalseKeep(u32::MAX));
                self.expression(rhs, code)?;
                let here = code.len() as u32;
                patch(code, j, here);
            }
            Expr::Binary { op: BinOp::Or, lhs, rhs } => {
                self.expression(lhs, code)?;
                let j = code.len();
                code.push(Op::JumpIfTrueKeep(u32::MAX));
                self.expression(rhs, code)?;
                let here = code.len() as u32;
                patch(code, j, here);
            }
            Expr::Binary { op, lhs, rhs } => {
                self.expression(lhs, code)?;
                self.expression(rhs, code)?;
                code.push(match op {
                    BinOp::Add => Op::Add,
                    BinOp::Sub => Op::Sub,
                    BinOp::Mul => Op::Mul,
                    BinOp::Div => Op::Div,
                    BinOp::Mod => Op::Mod,
                    BinOp::Concat => Op::Concat,
                    BinOp::Eq => Op::Eq,
                    BinOp::Ne => Op::Ne,
                    BinOp::Lt => Op::Lt,
                    BinOp::Le => Op::Le,
                    BinOp::Gt => Op::Gt,
                    BinOp::Ge => Op::Ge,
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                });
            }
            Expr::Call { name, args, .. } => {
                if args.len() > u8::MAX as usize {
                    return self.err("too many call arguments");
                }
                for a in args {
                    self.expression(a, code)?;
                }
                let i = self.name_idx(name)?;
                code.push(Op::Call { name: i, argc: args.len() as u8 });
            }
            Expr::Index { target, index } => {
                self.expression(target, code)?;
                self.expression(index, code)?;
                code.push(Op::Index);
            }
        }
        Ok(())
    }
}

fn patch(code: &mut [Op], site: usize, target: u32) {
    match &mut code[site] {
        Op::Jump(t) | Op::JumpIfFalse(t) | Op::JumpIfFalseKeep(t) | Op::JumpIfTrueKeep(t) => {
            *t = target;
        }
        other => panic!("patch target {site} is not a jump: {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_simple_program() {
        let chunk = compile("let x = 1 + 2").unwrap();
        assert!(chunk.code.contains(&Op::Add));
        assert!(chunk.code.iter().any(|op| matches!(op, Op::Declare(_))));
    }

    #[test]
    fn constants_are_deduplicated() {
        let chunk = compile("let a = 5\nlet b = 5\nlet c = 5").unwrap();
        assert_eq!(chunk.consts.iter().filter(|v| **v == Value::Int(5)).count(), 1);
    }

    #[test]
    fn functions_are_hoisted() {
        let chunk = compile("let y = f(1)\nfn f(x) return x end").unwrap();
        assert!(chunk.functions.contains_key("f"));
    }

    #[test]
    fn call_targets_and_parameter_slots_are_resolved() {
        let chunk = compile(
            "fn len(x) return 1 end\nfn f(a, unused) return a end\nreturn f(len(1), str(2)) + probe()",
        )
        .unwrap();
        let callee = |n: &str| &chunk.callees[chunk.names.iter().position(|x| x == n).unwrap()];
        assert!(matches!(callee("len"), Callee::Script(_)), "script functions shadow builtins");
        assert_eq!(callee("str"), &Callee::Builtin(Builtin::Str));
        assert_eq!(callee("probe"), &Callee::Host);
        assert_eq!(chunk.callees.len(), chunk.names.len());
        let f = &chunk.functions["f"];
        assert_eq!(f.param_slots[0].map(|i| chunk.name(i)), Some("a"));
        assert_eq!(f.param_slots[1], None, "never referenced, so never bound");
    }

    #[test]
    fn duplicate_function_rejected() {
        let err = compile("fn f() end\nfn f() end").unwrap_err();
        assert!(err.message.contains("defined twice"));
    }

    #[test]
    fn nested_function_rejected() {
        // Nested fn defs parse as statements inside the body; codegen rejects.
        let err = compile("fn outer() fn inner() end end").unwrap_err();
        assert!(err.message.contains("nested"));
    }

    #[test]
    fn break_outside_loop_rejected() {
        let err = compile("break").unwrap_err();
        assert!(err.message.contains("break"));
    }

    #[test]
    fn jumps_are_patched() {
        let chunk = compile("while true do break end").unwrap();
        for op in &chunk.code {
            if let Op::Jump(t) | Op::JumpIfFalse(t) = op {
                assert_ne!(*t, u32::MAX, "unpatched jump in {:?}", chunk.code);
                assert!((*t as usize) <= chunk.code.len());
            }
        }
    }

    #[test]
    fn short_circuit_ops_emitted() {
        let chunk = compile("let x = a and b").unwrap();
        assert!(chunk.code.iter().any(|op| matches!(op, Op::JumpIfFalseKeep(_))));
        let chunk = compile("let x = a or b").unwrap();
        assert!(chunk.code.iter().any(|op| matches!(op, Op::JumpIfTrueKeep(_))));
    }
}
