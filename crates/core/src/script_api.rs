//! Capability-gated Flua access to the simulated world.
//!
//! A *scenario script* is a Flua program that drives campaign steps the way
//! Flame's modules drive a client — except it runs against the **world**
//! (hosts, DNS, USB, exfil, detonation) instead of one victim. Because such
//! a script wields far more power than a per-host module, every
//! world-touching host function is gated behind a [`Capability`] that the
//! script must declare up front in its manifest header:
//!
//! ```text
//! #! name: courier-sweep
//! #! grant: fs_scan exfil
//! #! fuel: 50000
//! #! memory: 65536
//! let docs = scan_files(".docx")
//! for d in docs do exfil(d) end
//! ```
//!
//! Calling a gated function without its grant is a typed
//! [`RunScriptError::CapabilityDenied`] — never a panic, never a silent
//! no-op. Every fault (compile error, out-of-fuel, out-of-memory, capability
//! denial, host error) surfaces as a [`ScriptFaultInfo`] carrying the
//! script's manifest name and the fuel it had burned, which plugs straight
//! into [`crate::sweep::supervised_point`] and
//! [`crate::checkpoint::run_checkpointed`]:
//! a hostile script degrades its grid point to `ScriptFault` and the rest of
//! the sweep completes.
//!
//! Scripts observe a **snapshot** of the world and request changes through
//! an effect queue, applied only after the VM returns successfully — a
//! faulting script therefore leaves the world byte-identical to not having
//! run at all.

use std::cell::RefCell;
use std::rc::Rc;

use malsim_kernel::trace::TraceCategory;
use malsim_malware::world::{World, WorldSim};
use malsim_script::cap::{Capability, CapabilitySet, GatedHost};
use malsim_script::compiler::{compile, Chunk};
use malsim_script::error::{CompileScriptError, RunScriptError, SourcePos};
use malsim_script::value::Value;
use malsim_script::vm::{FnHost, Vm, VmLimits};

use crate::error::Error;
use crate::report::Json;
use crate::sweep::ScriptFaultInfo;

/// Declared identity and resource envelope of a scenario script, parsed from
/// the `#!` directive lines at the top of its source.
///
/// Recognised directives (each on its own line, before any code):
///
/// | directive | meaning | default |
/// |---|---|---|
/// | `#! name: <id>` | stable script id in faults/records | `"unnamed.flua"` |
/// | `#! grant: <caps>` | space-separated capability labels | none |
/// | `#! fuel: <n>` | VM fuel budget | [`VmLimits`] default |
/// | `#! memory: <bytes>` | VM heap budget | [`VmLimits`] default |
///
/// `grant:` lines accumulate. An unknown directive or capability label is a
/// [`CompileScriptError`] at the offending line — manifest damage is a
/// compile fault like any other.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptManifest {
    /// Stable script identity carried into faults and checkpoint records.
    pub name: String,
    /// Capabilities the script is allowed to exercise.
    pub granted: CapabilitySet,
    /// VM limits (fuel/memory overridden by directives).
    pub limits: VmLimits,
}

impl Default for ScriptManifest {
    fn default() -> Self {
        ScriptManifest {
            name: "unnamed.flua".to_owned(),
            granted: CapabilitySet::none(),
            limits: VmLimits::default(),
        }
    }
}

impl ScriptManifest {
    /// Parses the `#!` header of `source`. Directive lines may be preceded
    /// by blank lines or plain `#` comments; the first code line ends the
    /// header.
    pub fn parse(source: &str) -> Result<ScriptManifest, CompileScriptError> {
        let mut manifest = ScriptManifest::default();
        for (idx, line) in source.lines().enumerate() {
            let at = |message: String| CompileScriptError {
                pos: SourcePos { line: (idx + 1) as u32, col: 1 },
                message,
            };
            let trimmed = line.trim();
            let Some(directive) = trimmed.strip_prefix("#!") else {
                if trimmed.is_empty() || trimmed.starts_with('#') {
                    continue; // blank lines and ordinary comments don't end the header
                }
                break; // first code line: header over
            };
            let Some((key, value)) = directive.split_once(':') else {
                return Err(at(format!("manifest directive needs 'key: value', got '{directive}'")));
            };
            let (key, value) = (key.trim(), value.trim());
            match key {
                "name" => {
                    if value.is_empty() {
                        return Err(at("manifest name must not be empty".to_owned()));
                    }
                    manifest.name = value.to_owned();
                }
                "grant" => {
                    let caps = CapabilitySet::parse(value)
                        .map_err(|word| at(format!("unknown capability '{word}' in grant directive")))?;
                    for cap in caps.iter() {
                        manifest.granted = manifest.granted.grant(cap);
                    }
                }
                "fuel" => {
                    manifest.limits.fuel =
                        value.parse().map_err(|_| at(format!("fuel must be an integer, got '{value}'")))?;
                }
                "memory" => {
                    manifest.limits.max_memory =
                        value.parse().map_err(|_| at(format!("memory must be an integer, got '{value}'")))?;
                }
                other => return Err(at(format!("unknown manifest directive '{other}'"))),
            }
        }
        Ok(manifest)
    }
}

/// A change a scenario script asked for. Queued during the run and applied
/// to the world only if the VM returns cleanly.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptEffect {
    /// Stage a payload file onto the courier USB plane.
    UsbWrite {
        /// Payload path staged.
        path: String,
    },
    /// Queue data for exfiltration.
    Exfil {
        /// The exfiltrated path (`host:path`).
        path: String,
    },
    /// Destroy a host (the Shamoon-style wiper step).
    Detonate {
        /// Victim host name.
        host: String,
    },
    /// A free-form log line into the scenario trace.
    Log {
        /// Message text.
        message: String,
    },
}

/// What a successful scenario-script run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptRunReport {
    /// The script's manifest name.
    pub script_id: String,
    /// The script's return value.
    pub value: Value,
    /// Fuel consumed.
    pub fuel_used: u64,
    /// Heap bytes charged against the memory budget.
    pub mem_allocated: usize,
    /// Effects applied to the world, in request order.
    pub effects: Vec<ScriptEffect>,
}

impl ScriptRunReport {
    /// A compact report row for sweeps (deterministic field order).
    pub fn row(&self) -> Json {
        let detonated = self.effects.iter().filter(|e| matches!(e, ScriptEffect::Detonate { .. })).count();
        let exfiltrated = self.effects.iter().filter(|e| matches!(e, ScriptEffect::Exfil { .. })).count();
        Json::obj([
            ("script_id", self.script_id.as_str().into()),
            ("fuel_used", Json::U64(self.fuel_used)),
            ("mem_allocated", Json::U64(self.mem_allocated as u64)),
            ("effects", Json::U64(self.effects.len() as u64)),
            ("detonated", Json::U64(detonated as u64)),
            ("exfiltrated", Json::U64(exfiltrated as u64)),
        ])
    }
}

/// A compiled scenario script: manifest + bytecode, ready to run against a
/// world any number of times.
#[derive(Debug, Clone)]
pub struct ScriptScenario {
    /// The parsed manifest header.
    pub manifest: ScriptManifest,
    chunk: Chunk,
}

impl ScriptScenario {
    /// Parses the manifest and compiles the body. Both failure modes are
    /// [`Error::Compile`].
    pub fn compile(source: &str) -> Result<ScriptScenario, Error> {
        let manifest = ScriptManifest::parse(source)?;
        let chunk = compile(source)?;
        Ok(ScriptScenario { manifest, chunk })
    }

    /// Runs the script against a snapshot of `world`. On success the queued
    /// effects are applied to `world`/`sim` and reported; on any fault the
    /// world is untouched and the typed fault is returned, ready for
    /// [`crate::sweep::supervised_point`].
    pub fn run(&self, world: &mut World, sim: &mut WorldSim) -> Result<ScriptRunReport, ScriptFaultInfo> {
        let (mut host, effects) = world_host(world, &self.manifest.granted);
        let mut vm = Vm::new();
        let outcome = vm.run(&self.chunk, &mut host, self.manifest.limits);
        drop(host); // releases the closures' clones of the effect sink
        match outcome {
            Ok(out) => {
                let effects = Rc::try_unwrap(effects).expect("host dropped").into_inner();
                apply_effects(&self.manifest.name, &effects, world, sim);
                Ok(ScriptRunReport {
                    script_id: self.manifest.name.clone(),
                    value: out.value,
                    fuel_used: out.fuel_used,
                    mem_allocated: out.mem_allocated,
                    effects,
                })
            }
            Err(e) => Err(ScriptFaultInfo {
                script_id: self.manifest.name.clone(),
                error: Error::from(e).to_string(),
                fuel_used: vm.last_fuel_used(),
            }),
        }
    }
}

/// Compile-and-run in one call, folding compile errors into the same
/// [`ScriptFaultInfo`] channel (with `fuel_used: 0`) — the natural point
/// function for hostile-script sweeps.
pub fn run_source(
    source: &str,
    world: &mut World,
    sim: &mut WorldSim,
) -> Result<ScriptRunReport, ScriptFaultInfo> {
    let script_id = ScriptManifest::parse(source).map(|m| m.name).unwrap_or_else(|_| "unnamed.flua".into());
    let scenario = ScriptScenario::compile(source).map_err(|e| ScriptFaultInfo {
        script_id: script_id.clone(),
        error: e.to_string(),
        fuel_used: 0,
    })?;
    scenario.run(world, sim)
}

/// Builds the gated world host: read-only snapshot closures plus the effect
/// queue, wrapped so that every world-touching function demands its
/// capability.
///
/// | function | capability | behaviour |
/// |---|---|---|
/// | `hosts()` | — | list of running host names |
/// | `host_count()` | — | total host count |
/// | `log(msg)` | — | queue a scenario-trace line |
/// | `scan_files(ext)` | `fs_scan` | `host:path` list matching the extension |
/// | `net_dial(domain)` | `net_dial` | whether the domain currently resolves |
/// | `usb_write(path)` | `usb_write` | queue a payload staging effect |
/// | `exfil(path)` | `exfil` | queue an exfiltration effect |
/// | `detonate(host)` | `detonate` | queue a host-destruction effect |
fn world_host(
    world: &World,
    granted: &CapabilitySet,
) -> (GatedHost<FnHost<'static>>, Rc<RefCell<Vec<ScriptEffect>>>) {
    let effects: Rc<RefCell<Vec<ScriptEffect>>> = Rc::new(RefCell::new(Vec::new()));
    let mut host = FnHost::new();

    // Snapshot the world up front: scripts never hold borrows into it.
    let host_names: Rc<Vec<String>> = Rc::new(world.hosts.iter().map(|(_, h)| h.name().to_owned()).collect());
    let running: Rc<Vec<String>> = Rc::new(
        world.hosts.iter().filter(|(_, h)| h.is_running()).map(|(_, h)| h.name().to_owned()).collect(),
    );
    let files: Rc<Vec<String>> = Rc::new(
        world
            .hosts
            .iter()
            .flat_map(|(_, h)| {
                let name = h.name().to_owned();
                h.fs.iter().map(move |(p, _)| format!("{name}:{}", p.as_str())).collect::<Vec<_>>()
            })
            .collect(),
    );
    let live_domains: Rc<Vec<String>> = Rc::new(
        world.dns.domains().filter(|d| world.dns.resolve(d).is_some()).map(|d| d.to_string()).collect(),
    );

    {
        let running = Rc::clone(&running);
        host.register("hosts", move |_args| Ok(Value::list(running.iter().map(Value::str).collect())));
    }
    {
        let host_names = Rc::clone(&host_names);
        host.register("host_count", move |_args| Ok(Value::Int(host_names.len() as i64)));
    }
    {
        let effects = Rc::clone(&effects);
        host.register("log", move |args| {
            let message = expect_str(args, "log")?;
            effects.borrow_mut().push(ScriptEffect::Log { message });
            Ok(Value::Nil)
        });
    }
    {
        let files = Rc::clone(&files);
        host.register("scan_files", move |args| {
            let ext = expect_str(args, "scan_files")?;
            Ok(Value::list(files.iter().filter(|p| p.ends_with(&ext)).map(Value::str).collect()))
        });
    }
    {
        let live_domains = Rc::clone(&live_domains);
        host.register("net_dial", move |args| {
            let domain = expect_str(args, "net_dial")?;
            Ok(Value::Bool(live_domains.iter().any(|d| d == &domain)))
        });
    }
    {
        let effects = Rc::clone(&effects);
        host.register("usb_write", move |args| {
            let path = expect_str(args, "usb_write")?;
            effects.borrow_mut().push(ScriptEffect::UsbWrite { path });
            Ok(Value::Nil)
        });
    }
    {
        let effects = Rc::clone(&effects);
        host.register("exfil", move |args| {
            let path = expect_str(args, "exfil")?;
            effects.borrow_mut().push(ScriptEffect::Exfil { path });
            Ok(Value::Nil)
        });
    }
    {
        let effects = Rc::clone(&effects);
        host.register("detonate", move |args| {
            let target = expect_str(args, "detonate")?;
            effects.borrow_mut().push(ScriptEffect::Detonate { host: target });
            Ok(Value::Nil)
        });
    }

    let gated = GatedHost::new(host, *granted)
        .require("scan_files", Capability::FsScan)
        .require("net_dial", Capability::NetDial)
        .require("usb_write", Capability::UsbWrite)
        .require("exfil", Capability::Exfil)
        .require("detonate", Capability::Detonate);
    (gated, effects)
}

fn apply_effects(script_id: &str, effects: &[ScriptEffect], world: &mut World, sim: &mut WorldSim) {
    let actor = format!("script:{script_id}");
    for effect in effects {
        match effect {
            ScriptEffect::UsbWrite { path } => {
                sim.record(TraceCategory::Os, actor.clone(), format!("usb payload staged: {path}"));
            }
            ScriptEffect::Exfil { path } => {
                sim.record(TraceCategory::Exfiltration, actor.clone(), format!("exfiltrated {path}"));
            }
            ScriptEffect::Detonate { host } => {
                let victim = world.hosts.iter().find(|(_, h)| h.name() == host).map(|(id, _)| id);
                match victim {
                    Some(id) => {
                        world.hosts[id].brick();
                        sim.record(TraceCategory::Destruction, actor.clone(), format!("detonated {host}"));
                    }
                    None => {
                        sim.record(
                            TraceCategory::Scenario,
                            actor.clone(),
                            format!("detonate target '{host}' not found"),
                        );
                    }
                }
            }
            ScriptEffect::Log { message } => {
                sim.record(TraceCategory::Scenario, actor.clone(), message.clone());
            }
        }
    }
}

fn expect_str(args: &[Value], fname: &str) -> Result<String, RunScriptError> {
    args.first()
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| RunScriptError::Host(format!("{fname}(string)")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;

    fn small_world() -> (World, WorldSim) {
        ScenarioBuilder::new(7).office_lan(4)
    }

    #[test]
    fn manifest_parses_directives_and_defaults() {
        let m = ScriptManifest::parse("#! name: probe\n#! grant: fs_scan exfil\n#! fuel: 1234\nreturn 1")
            .unwrap();
        assert_eq!(m.name, "probe");
        assert!(m.granted.allows(Capability::FsScan));
        assert!(m.granted.allows(Capability::Exfil));
        assert!(!m.granted.allows(Capability::Detonate));
        assert_eq!(m.limits.fuel, 1234);
        assert_eq!(m.limits.max_memory, VmLimits::default().max_memory);

        let m = ScriptManifest::parse("return 1").unwrap();
        assert_eq!(m, ScriptManifest::default());
    }

    #[test]
    fn manifest_header_ends_at_first_code_line() {
        // A `#!` after code is an ordinary comment, not a directive.
        let m = ScriptManifest::parse("# prose\n\nlet x = 1\n#! grant: detonate\nreturn x").unwrap();
        assert!(m.granted.is_empty());
    }

    #[test]
    fn manifest_errors_are_typed_and_positioned() {
        let err = ScriptManifest::parse("#! grant: teleport\nreturn 1").unwrap_err();
        assert_eq!(err.pos.line, 1);
        assert!(err.message.contains("teleport"), "{err}");

        let err = ScriptManifest::parse("#! name: a\n#! budget: 9\nreturn 1").unwrap_err();
        assert_eq!(err.pos.line, 2);
        assert!(err.message.contains("unknown manifest directive"), "{err}");

        let err = ScriptManifest::parse("#! fuel: lots\nreturn 1").unwrap_err();
        assert!(err.message.contains("integer"), "{err}");
    }

    #[test]
    fn granted_scan_and_exfil_produce_effects_and_traces() {
        let (mut world, mut sim) = small_world();
        let script = "#! name: leak\n#! grant: fs_scan exfil\n\
                      let hits = scan_files(\".ini\")\nfor h in hits do exfil(h) end\nreturn len(hits)";
        let report = run_source(script, &mut world, &mut sim).unwrap();
        assert_eq!(report.script_id, "leak");
        assert!(!report.effects.is_empty(), "fresh profiles carry desktop.ini files");
        assert!(report.effects.iter().all(|e| matches!(e, ScriptEffect::Exfil { .. })));
        assert_eq!(report.value, Value::Int(report.effects.len() as i64));
        assert!(report.fuel_used > 0);
        let row = report.row();
        assert_eq!(row.get("exfiltrated").and_then(Json::as_u64), Some(report.effects.len() as u64));
    }

    #[test]
    fn ungated_calls_fail_typed_and_leave_the_world_untouched() {
        let (mut world, mut sim) = small_world();
        let script = "#! name: rogue\nlog(\"recon\")\ndetonate(hosts()[0])";
        let before: Vec<bool> = world.hosts.iter().map(|(_, h)| h.is_running()).collect();
        let fault = run_source(script, &mut world, &mut sim).unwrap_err();
        assert_eq!(fault.script_id, "rogue");
        assert!(fault.error.contains("capability denied"), "{}", fault.error);
        assert!(fault.error.contains("detonate"), "{}", fault.error);
        assert!(fault.fuel_used > 0, "the script ran until the denial");
        let after: Vec<bool> = world.hosts.iter().map(|(_, h)| h.is_running()).collect();
        assert_eq!(before, after, "faulting scripts leave no effects");
    }

    #[test]
    fn granted_detonate_bricks_the_host() {
        let (mut world, mut sim) = small_world();
        let script = "#! name: wiper\n#! grant: detonate\ndetonate(hosts()[0])\nreturn host_count()";
        let report = run_source(script, &mut world, &mut sim).unwrap();
        assert_eq!(report.value, Value::Int(4));
        assert_eq!(world.bricked_count(), 1);
    }

    #[test]
    fn compile_faults_fold_into_the_fault_channel() {
        let (mut world, mut sim) = small_world();
        let fault = run_source("#! name: broken\nlet = = =", &mut world, &mut sim).unwrap_err();
        assert_eq!(fault.script_id, "broken");
        assert_eq!(fault.fuel_used, 0);
        assert!(fault.error.starts_with("script: compile error"), "{}", fault.error);
    }

    #[test]
    fn fuel_and_memory_budgets_fault_with_the_manifest_name() {
        let (mut world, mut sim) = small_world();
        let fault =
            run_source("#! name: spin\n#! fuel: 500\nwhile true do end", &mut world, &mut sim).unwrap_err();
        assert_eq!(fault.script_id, "spin");
        assert!(fault.error.contains("fuel"), "{}", fault.error);
        assert!(fault.fuel_used >= 500, "budget was fully burned");

        let bomb = "#! name: bomb\n#! memory: 4096\nlet s = \"x\"\nwhile true do s = s .. s end";
        let fault = run_source(bomb, &mut world, &mut sim).unwrap_err();
        assert_eq!(fault.script_id, "bomb");
        assert!(fault.error.contains("memory budget"), "{}", fault.error);
    }

    #[test]
    fn reruns_of_one_compiled_scenario_are_deterministic() {
        let script = "#! name: census\n#! grant: fs_scan\nreturn len(scan_files(\".dll\"))";
        let scenario = ScriptScenario::compile(script).unwrap();
        let (mut w1, mut s1) = small_world();
        let (mut w2, mut s2) = small_world();
        let a = scenario.run(&mut w1, &mut s1).unwrap();
        let b = scenario.run(&mut w2, &mut s2).unwrap();
        assert_eq!(a, b);
    }
}
