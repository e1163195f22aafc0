//! The programmable logic controller: code blocks, the communication
//! processor, and attached drives.

use std::collections::BTreeMap;

use malsim_kernel::define_id;
use serde::{Deserialize, Serialize};

use crate::drive::FrequencyDrive;

define_id!(
    /// Identifies a PLC in a scenario.
    pub struct PlcId("plc")
);
malsim_kernel::impl_arena_id!(PlcId);

/// The fieldbus the PLC talks to its I/O over. Stuxnet's payload required
/// Profibus specifically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommProcessor {
    /// Profibus-DP (the targeted configuration).
    Profibus,
    /// Industrial Ethernet.
    Ethernet,
    /// Anything else.
    Other,
}

/// A PLC code block (OB/FC/DB in Step 7 terms).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CodeBlock {
    /// Block name, e.g. `OB1` or `FC1869`.
    pub name: String,
    /// Block body (symbolic program bytes).
    pub body: Vec<u8>,
    /// Whether this block was written by the attacker (ground truth used by
    /// experiments; invisible to in-model software, which must rely on
    /// reads through the comm library).
    pub attacker_written: bool,
}

/// A programmable logic controller with attached frequency drives.
///
/// # Examples
///
/// ```
/// use malsim_scada::drive::{DriveVendor, FrequencyDrive};
/// use malsim_scada::plc::{CommProcessor, Plc};
///
/// let mut plc = Plc::new(CommProcessor::Profibus);
/// plc.attach_drive(FrequencyDrive::new(DriveVendor::Vacon, 1064.0));
/// assert!(plc.is_stuxnet_target_configuration());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plc {
    comm: CommProcessor,
    blocks: BTreeMap<String, CodeBlock>,
    drives: Vec<FrequencyDrive>,
}

impl Plc {
    /// Creates a PLC with a standard main block (`OB1`) and no drives.
    pub fn new(comm: CommProcessor) -> Self {
        let mut blocks = BTreeMap::new();
        blocks.insert(
            "OB1".to_owned(),
            CodeBlock { name: "OB1".into(), body: b"main control loop".to_vec(), attacker_written: false },
        );
        Plc { comm, blocks, drives: Vec::new() }
    }

    /// Attaches a drive, returning its index.
    pub fn attach_drive(&mut self, drive: FrequencyDrive) -> usize {
        self.drives.push(drive);
        self.drives.len() - 1
    }

    /// The attached drives.
    pub fn drives(&self) -> &[FrequencyDrive] {
        &self.drives
    }

    /// Mutable access to the attached drives.
    pub fn drives_mut(&mut self) -> &mut [FrequencyDrive] {
        &mut self.drives
    }

    /// Writes (or replaces) a code block. This is the PLC-side primitive the
    /// comm library's `write_block` lands on.
    pub fn write_block(&mut self, block: CodeBlock) {
        self.blocks.insert(block.name.clone(), block);
    }

    /// Reads a code block directly from PLC memory (ground truth — in-model
    /// software goes through the comm library instead).
    pub fn read_block_raw(&self, name: &str) -> Option<&CodeBlock> {
        self.blocks.get(name)
    }

    /// Names of all blocks, sorted.
    pub fn block_names(&self) -> Vec<&str> {
        self.blocks.keys().map(String::as_str).collect()
    }

    /// Whether any block was attacker-written (ground truth for experiments).
    pub fn is_infected(&self) -> bool {
        self.blocks.values().any(|b| b.attacker_written)
    }

    /// Commands every drive's setpoint (what the running PLC program does).
    pub fn command_all_drives(&mut self, setpoint_hz: f64) {
        for d in &mut self.drives {
            d.set_setpoint(setpoint_hz);
        }
    }

    /// Steps all drives by `dt_s`.
    pub fn step_drives(&mut self, dt_s: f64) {
        for d in &mut self.drives {
            d.step(dt_s);
        }
    }

    /// The paper's targeting predicate: a Profibus comm processor and at
    /// least one drive from each of the two targeted vendors... the public
    /// analyses describe "one of two" vendors, so we require every drive to
    /// be from a targeted vendor and at least one drive present.
    pub fn is_stuxnet_target_configuration(&self) -> bool {
        self.comm == CommProcessor::Profibus
            && !self.drives.is_empty()
            && self.drives.iter().all(|d| d.vendor().is_targeted())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::DriveVendor;

    #[test]
    fn new_plc_has_main_block() {
        let plc = Plc::new(CommProcessor::Profibus);
        assert!(plc.read_block_raw("OB1").is_some());
        assert!(!plc.is_infected());
    }

    #[test]
    fn targeting_requires_profibus_and_vendors() {
        let mut plc = Plc::new(CommProcessor::Profibus);
        assert!(!plc.is_stuxnet_target_configuration(), "no drives yet");
        plc.attach_drive(FrequencyDrive::new(DriveVendor::Vacon, 1000.0));
        plc.attach_drive(FrequencyDrive::new(DriveVendor::FararoPaya, 1000.0));
        assert!(plc.is_stuxnet_target_configuration());

        let mut eth = Plc::new(CommProcessor::Ethernet);
        eth.attach_drive(FrequencyDrive::new(DriveVendor::Vacon, 1000.0));
        assert!(!eth.is_stuxnet_target_configuration(), "wrong bus");

        let mut wrong_vendor = Plc::new(CommProcessor::Profibus);
        wrong_vendor.attach_drive(FrequencyDrive::new(DriveVendor::Other("ABB".into()), 1000.0));
        assert!(!wrong_vendor.is_stuxnet_target_configuration(), "wrong vendor");
    }

    #[test]
    fn block_write_marks_infection() {
        let mut plc = Plc::new(CommProcessor::Profibus);
        plc.write_block(CodeBlock {
            name: "FC1869".into(),
            body: b"attack sequence".to_vec(),
            attacker_written: true,
        });
        assert!(plc.is_infected());
        assert_eq!(plc.block_names(), vec!["FC1869", "OB1"]);
    }

    #[test]
    fn drive_commanding() {
        let mut plc = Plc::new(CommProcessor::Profibus);
        plc.attach_drive(FrequencyDrive::new(DriveVendor::Vacon, 0.0));
        plc.attach_drive(FrequencyDrive::new(DriveVendor::Vacon, 0.0));
        plc.command_all_drives(1_064.0);
        for _ in 0..100 {
            plc.step_drives(1.0);
        }
        assert!(plc.drives().iter().all(|d| d.is_settled() && d.frequency_hz() == 1_064.0));
    }
}
