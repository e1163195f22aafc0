//! The name-keyed interpreter that [`Vm::run`] replaced, kept as a test
//! oracle, and the differential test that holds the two to the same
//! behaviour.
//!
//! The reference resolves every name at every instruction: globals live in
//! the VM's by-name map, each function frame keeps its locals in a
//! `HashMap`, and a call looks its target up by name — script function,
//! then builtin, then host. It shares the arithmetic helpers and the
//! builtins with the VM, so what the differential test checks is name
//! resolution, scoping, calls, limits and the globals' write-back.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use super::*;
use crate::cap::{Capability, CapabilitySet, GatedHost, Requirements};
use crate::compiler::{compile, FuncProto};
use crate::fuzz::hostile_script;

struct RefFrame {
    proto: Option<Rc<FuncProto>>, // None = top level
    ip: usize,
    stack_base: usize,
    locals: HashMap<u16, Value>,
}

impl Vm {
    /// [`Vm::run`], with every name resolved at every instruction.
    fn run_by_name(
        &mut self,
        chunk: &Chunk,
        host: &mut dyn HostEnv,
        limits: VmLimits,
    ) -> Result<RunOutcome, RunScriptError> {
        let mut fuel = limits.fuel;
        let mut mem: usize = 0;
        let result = self.exec_by_name(chunk, host, limits, &mut fuel, &mut mem);
        self.last_fuel_used = limits.fuel - fuel;
        self.last_mem_allocated = mem;
        result.map(|value| RunOutcome { value, fuel_used: limits.fuel - fuel, mem_allocated: mem })
    }

    fn exec_by_name(
        &mut self,
        chunk: &Chunk,
        host: &mut dyn HostEnv,
        limits: VmLimits,
        fuel: &mut u64,
        mem: &mut usize,
    ) -> Result<Value, RunScriptError> {
        let mut stack: Vec<Value> = Vec::with_capacity(64);
        let mut frames: Vec<RefFrame> =
            vec![RefFrame { proto: None, ip: 0, stack_base: 0, locals: HashMap::new() }];
        loop {
            let frame = frames.last_mut().expect("at least one frame");
            let code: &[Op] = match &frame.proto {
                Some(p) => &p.code,
                None => &chunk.code,
            };
            if frame.ip >= code.len() {
                if ret_by_name(&mut frames, &mut stack, Value::Nil) {
                    return Ok(Value::Nil);
                }
                continue;
            }
            let op = code[frame.ip];
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
                    let v = frame
                        .locals
                        .get(&i)
                        .cloned()
                        .or_else(|| self.globals.get(chunk.name(i)).cloned())
                        .ok_or_else(|| RunScriptError::UndefinedVariable(chunk.name(i).to_owned()))?;
                    stack.push(v);
                }
                Op::Declare(i) => {
                    let v = pop(&mut stack)?;
                    if frames.len() == 1 {
                        self.globals.insert(chunk.name(i).to_owned(), v);
                    } else {
                        frames.last_mut().expect("frame").locals.insert(i, v);
                    }
                }
                Op::Store(i) => {
                    let v = pop(&mut stack)?;
                    let frame = frames.last_mut().expect("frame");
                    if let std::collections::hash_map::Entry::Occupied(mut e) = frame.locals.entry(i) {
                        e.insert(v);
                    } else {
                        self.globals.insert(chunk.name(i).to_owned(), v);
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
                Op::Jump(t) => frames.last_mut().expect("frame").ip = t as usize,
                Op::JumpIfFalse(t) => {
                    let v = pop(&mut stack)?;
                    if !v.truthy() {
                        frames.last_mut().expect("frame").ip = t as usize;
                    }
                }
                Op::JumpIfFalseKeep(t) => {
                    let v = stack.last().ok_or(RunScriptError::StackOverflow)?;
                    if !v.truthy() {
                        frames.last_mut().expect("frame").ip = t as usize;
                    } else {
                        stack.pop();
                    }
                }
                Op::JumpIfTrueKeep(t) => {
                    let v = stack.last().ok_or(RunScriptError::StackOverflow)?;
                    if v.truthy() {
                        frames.last_mut().expect("frame").ip = t as usize;
                    } else {
                        stack.pop();
                    }
                }
                Op::Call { name, argc } => {
                    let argc = argc as usize;
                    if stack.len() < argc {
                        return Err(RunScriptError::StackOverflow);
                    }
                    let args = stack.split_off(stack.len() - argc);
                    let fname = chunk.name(name);
                    if let Some(proto) = chunk.functions.get(fname).cloned() {
                        if proto.params.len() != argc {
                            return Err(RunScriptError::ArityMismatch {
                                name: fname.to_owned(),
                                expected: proto.params.len(),
                                got: argc,
                            });
                        }
                        if frames.len() >= limits.max_frames {
                            return Err(RunScriptError::StackOverflow);
                        }
                        let mut locals = HashMap::new();
                        for (p, v) in proto.params.iter().zip(args) {
                            // A parameter whose name is nowhere in the table
                            // cannot be read, so it stays unbound.
                            if let Some(i) = chunk.names.iter().position(|n| n == p) {
                                locals.insert(i as u16, v);
                            }
                        }
                        frames.push(RefFrame { proto: Some(proto), ip: 0, stack_base: stack.len(), locals });
                    } else if let Some(b) = Builtin::from_name(fname) {
                        let v = builtin(b, &args)?;
                        charge(mem, limits.max_memory, &v)?;
                        stack.push(v);
                    } else {
                        if *fuel < limits.host_call_fuel {
                            return Err(RunScriptError::OutOfFuel);
                        }
                        *fuel -= limits.host_call_fuel;
                        match host.call_host(fname, &args)? {
                            Some(v) => {
                                charge(mem, limits.max_memory, &v)?;
                                stack.push(v);
                            }
                            None => return Err(RunScriptError::UndefinedFunction(fname.to_owned())),
                        }
                    }
                }
                Op::Return => {
                    let v = pop(&mut stack)?;
                    if ret_by_name(&mut frames, &mut stack, v.clone()) {
                        return Ok(v);
                    }
                }
                Op::ReturnNil => {
                    if ret_by_name(&mut frames, &mut stack, Value::Nil) {
                        return Ok(Value::Nil);
                    }
                }
                Op::Pop => {
                    pop(&mut stack)?;
                }
            }
        }
    }
}

fn ret_by_name(frames: &mut Vec<RefFrame>, stack: &mut Vec<Value>, value: Value) -> bool {
    let frame = frames.pop().expect("frame");
    stack.truncate(frame.stack_base);
    if frames.is_empty() {
        true
    } else {
        stack.push(value);
        false
    }
}

/// Everything a run lets a caller observe, rendered with `{:?}` so a `NaN`
/// compares equal to itself.
#[derive(Debug, PartialEq)]
struct Observed {
    result: String,
    last_fuel_used: u64,
    last_mem_allocated: usize,
    globals: BTreeMap<String, String>,
    host_calls: Vec<String>,
}

fn observe(vm: &Vm, result: &Result<RunOutcome, RunScriptError>, host_calls: Vec<String>) -> Observed {
    Observed {
        result: format!("{result:?}"),
        last_fuel_used: vm.last_fuel_used(),
        last_mem_allocated: vm.last_mem_allocated(),
        globals: vm.globals.iter().map(|(k, v)| (k.clone(), format!("{v:?}"))).collect(),
        host_calls,
    }
}

/// Runs `chunk` twice on one VM under each interpreter, each run against a
/// fresh host from `make_host`, and asserts every observation matches.
/// `make_host` returns the host and its log of calls.
fn assert_same<H: HostEnv>(
    label: &str,
    chunk: &Chunk,
    limits: VmLimits,
    mut make_host: impl FnMut() -> (H, Rc<RefCell<Vec<String>>>),
) {
    let mut fast = Vm::new();
    let mut reference = Vm::new();
    for round in 0..2 {
        let (mut host, calls) = make_host();
        let got = fast.run(chunk, &mut host, limits);
        drop(host);
        let got = observe(&fast, &got, calls.take());
        let (mut host, calls) = make_host();
        let want = reference.run_by_name(chunk, &mut host, limits);
        drop(host);
        let want = observe(&reference, &want, calls.take());
        assert_eq!(got, want, "{label}, run {round}");
    }
}

/// The gate the fuzz host sits behind: `fs_scan` and `exfil` are granted,
/// the rest of the table is denied.
const FUZZ_GATE: Requirements = &[
    ("scan_files", Capability::FsScan),
    ("net_dial", Capability::NetDial),
    ("usb_write", Capability::UsbWrite),
    ("exfil", Capability::Exfil),
    ("detonate", Capability::Detonate),
];

/// The host functions `fuzz::hostile_script` calls, logging each call;
/// `fail_always` errors.
fn fuzz_host() -> (GatedHost<FnHost<'static>>, Rc<RefCell<Vec<String>>>) {
    let calls = Rc::new(RefCell::new(Vec::new()));
    let mut host = FnHost::new();
    let results: [(&str, Value); 8] = [
        ("hosts", Value::list(vec![Value::str("office-0"), Value::str("office-1")])),
        ("host_count", Value::Int(2)),
        ("log", Value::Nil),
        ("scan_files", Value::list(vec![Value::str("office-0:plans.dwg")])),
        ("net_dial", Value::Bool(true)),
        ("usb_write", Value::Nil),
        ("exfil", Value::Nil),
        ("detonate", Value::Nil),
    ];
    for (name, result) in results {
        let calls = Rc::clone(&calls);
        host.register(name, move |args| {
            calls.borrow_mut().push(format!("{name}{args:?}"));
            Ok(result.clone())
        });
    }
    let log = Rc::clone(&calls);
    host.register("fail_always", move |args| {
        log.borrow_mut().push(format!("fail_always{args:?}"));
        Err(RunScriptError::Host("always fails".into()))
    });
    let granted = CapabilitySet::none().grant(Capability::FsScan).grant(Capability::Exfil);
    (GatedHost::new(host, granted, FUZZ_GATE), calls)
}

#[test]
fn hostile_scripts_match_the_reference() {
    // As in the world-facing fuzz sweep: 2000 seeds in release, 400 in debug.
    let seeds: u64 = if cfg!(debug_assertions) { 400 } else { 2000 };
    let limits = VmLimits { fuel: 20_000, max_memory: 131_072, ..VmLimits::default() };
    let mut compared = 0;
    for seed in 0..seeds {
        if let Ok(chunk) = compile(&hostile_script(seed)) {
            assert_same(&format!("seed {seed}"), &chunk, limits, fuzz_host);
            compared += 1;
        }
    }
    assert!(compared > seeds / 2, "most generated scripts compile: {compared}/{seeds}");
}

#[test]
fn function_heavy_scripts_match_the_reference() {
    let scripts = [
        "fn fib(n) if n < 2 then return n end return fib(n - 1) + fib(n - 2) end\nreturn fib(15)",
        "fn even(n) if n == 0 then return true end return odd(n - 1) end\n\
         fn odd(n) if n == 0 then return false end return even(n - 1) end\nreturn even(21)",
        "fn f(a, b, c) return a end\nreturn f(1, 2, 3)",
        "fn f(x, y) return x end\nlet y = 5\nreturn f(1, 2) + y",
        "fn f(a, a) return a end\nreturn f(1, 2)",
        "fn f(a) return a end\nreturn f(1, 2)",
        "let before = 1\nfn f(n) let deep = n return f(n + 1) end\nreturn f(0)",
        "let x = 1\nfn f() let x = 2 x = x + 1 return x end\nreturn f() * 10 + x",
        "let g = 0\nfn bump() g = g + 1 end\nbump()\nbump()\nreturn g",
        "fn inner() return secret end\nfn outer() let secret = 1 return inner() end\nlet secret = 99\nreturn outer()",
        "let n = 10\nfn f(n) n = n + 1 return n end\nreturn f(1) + n",
        "fn f(c) if c then let v = 1 end return v end\nlet v = 7\nreturn f(true) + f(false)",
        "fn f(n) let x = n if n > 0 then f(n - 1) end return x end\nreturn f(5)",
        "fn sum(l) let t = 0 for v in l do t = t + v end return t end\nreturn sum([1, 2, 3]) + sum(range(10))",
        "fn inner() let c = 0 for i in range(3) do c = c + i end return c end\n\
         fn outer() let s = 0 for j in range(4) do s = s + inner() end return s end\nreturn outer()",
        "let g = 0\nfn f() g = 5 let l = 1 fail_always() end\nf()",
        "let g = 0\nfn f() g = g + 1 detonate(\"office-0\") end\nf()",
        "fn spin(n) while true do n = n + 1 end end\nlet started = true\nspin(0)",
        "fn f() return nope end\nreturn f()",
        "fn len(x) return 42 end\nreturn len([1]) + str(1)",
        "fn f() return host_count() + len(hosts()) end\nlet k = f()\nreturn k",
        "fn f() end\nreturn f()",
    ];
    let variants = [
        VmLimits::default(),
        VmLimits { fuel: 200, ..VmLimits::default() },
        VmLimits { max_frames: 4, ..VmLimits::default() },
        VmLimits { max_stack: 3, ..VmLimits::default() },
        VmLimits { max_memory: 64, host_call_fuel: 0, ..VmLimits::default() },
    ];
    for src in scripts {
        let chunk = compile(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        for (v, limits) in variants.iter().enumerate() {
            assert_same(&format!("{src:?} under limits {v}"), &chunk, *limits, fuzz_host);
        }
    }
}

/// A host serving the Flame module functions from a `ModuleInputs`
/// fixture, gated by the module's manifest; effects only log.
fn flame_host(
    inputs: &malsim_malware::flame::modules::ModuleInputs,
    granted: CapabilitySet,
    gate: Requirements,
) -> (GatedHost<FnHost<'static>>, Rc<RefCell<Vec<String>>>) {
    let calls = Rc::new(RefCell::new(Vec::new()));
    let files: Vec<Value> = inputs.files.iter().map(|(p, _)| Value::str(p)).collect();
    let bt: Vec<Value> = inputs.bt_devices.iter().map(Value::str).collect();
    let av = inputs.av_event.as_ref().map_or(Value::Nil, Value::str);
    let reads: [(&str, Value); 5] = [
        ("sysinfo", Value::str(format!("sysinfo:{}", inputs.host_name))),
        ("list_files", Value::list(files)),
        ("has_microphone", Value::Bool(inputs.has_microphone)),
        ("bt_scan", Value::list(bt)),
        ("av_event", av),
    ];
    let mut host = FnHost::new();
    for (name, result) in reads {
        host.register(name, move |_| Ok(result.clone()));
    }
    let sets = [
        ("is_approved", inputs.approved.clone()),
        ("summarized", inputs.summarized.clone()),
        ("uploaded", inputs.uploaded.clone()),
    ];
    for (name, paths) in sets {
        host.register(name, move |args| {
            let path = args.first().and_then(Value::as_str).ok_or(RunScriptError::Host(name.into()))?;
            Ok(Value::Bool(paths.iter().any(|p| p == path)))
        });
    }
    let effects = [
        "exfil_sysinfo",
        "exfil_summary",
        "exfil_content",
        "record_audio",
        "beacon",
        "bt_harvest",
        "screenshot",
        "go_quiet",
        "wipe_self",
    ];
    for name in effects {
        let calls = Rc::clone(&calls);
        host.register(name, move |args| {
            calls.borrow_mut().push(format!("{name}{args:?}"));
            Ok(Value::Nil)
        });
    }
    (GatedHost::new(host, granted, gate), calls)
}

#[test]
fn flame_modules_match_the_reference() {
    use malsim_malware::flame::modules::{self, ModuleInputs, MODULE_NAMES};
    // `malsim-malware` links the library build of this crate, so its gate
    // table is rebuilt here from the capability labels.
    let gate: Requirements = Vec::leak(
        modules::HOST_GATE
            .iter()
            .map(|(f, cap)| (*f, Capability::from_label(cap.label()).expect("same labels")))
            .collect(),
    );
    let inputs = ModuleInputs {
        host_name: "victim-1".into(),
        files: vec![
            ("c:\\docs\\plan.docx".into(), 10_000),
            ("c:\\tmp\\junk.log".into(), 5),
            ("c:\\cad\\site.dwg".into(), 80_000),
            ("c:\\fin\\q3.xls".into(), 4_000),
            ("c:\\notes\\secret.txt".into(), 123),
        ],
        approved: vec!["c:\\cad\\site.dwg".into()],
        summarized: vec!["c:\\docs\\plan.docx".into()],
        uploaded: vec![],
        has_microphone: true,
        bt_devices: vec!["ceo-phone".into(), "assistant-phone".into()],
        av_event: Some("scanner flagged mssecmgr.ocx".into()),
    };
    let jimmy_v2 = modules::JIMMY_V1.replace(r#"".xls""#, r#"".xls", ".txt""#);
    let mut sources: Vec<(&str, &str)> =
        MODULE_NAMES.iter().map(|n| (*n, modules::initial_source(n).expect("built-in"))).collect();
    sources.push(("JIMMY v2", &jimmy_v2));
    for (label, src) in sources {
        let chunk = compile(src).expect("module compiles");
        // Under every manifest, so the denials fault mid-run too.
        for manifest in MODULE_NAMES {
            let granted =
                CapabilitySet::parse(&modules::module_capabilities(manifest).to_string()).expect("labels");
            assert_same(&format!("{label} as {manifest}"), &chunk, VmLimits::default(), || {
                flame_host(&inputs, granted, gate)
            });
        }
    }
}
