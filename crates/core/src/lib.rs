//! # malsim
//!
//! The facade crate of the **malsim** workspace: a deterministic
//! discrete-event simulation framework for studying the targeted-malware
//! campaigns dissected in *"The Middle East under Malware Attack: Dissecting
//! Cyber Weapons"* (Zhioua, ICDCS 2013 Workshops) — Stuxnet, Flame, and
//! Shamoon — as abstract, measurable system models.
//!
//! Everything is synthetic: hosts, exploits, certificates, PLCs, and
//! payloads are simulation objects, and the only "crypto" is a deliberately
//! toy scheme. The framework exists to reproduce the paper's *campaign
//! dynamics* — spread curves, targeting discipline, C&C data flow,
//! destruction counts, anti-forensics effects — as experiments.
//!
//! ## Layers
//!
//! | crate | role |
//! |---|---|
//! | `malsim-kernel` | event scheduler, seeded rng, trace, metrics |
//! | `malsim-pe` | toy executable container (MZSM) |
//! | `malsim-certs` | toy PKI with the weak-hash forgery path |
//! | `malsim-script` | the "Flua" VM running Flame's modules |
//! | `malsim-os` | simulated Windows hosts |
//! | `malsim-net` | zones, DNS, WPAD MITM, HTTP, bluetooth |
//! | `malsim-scada` | Step 7 / PLC / centrifuge plant |
//! | `malsim-defense` | AV, IDS, forensics |
//! | `malsim-malware` | the three campaign models |
//! | `malsim-analysis` | trend matrix, timelines, tables |
//! | `malsim` (this) | scenarios, arming, activity, experiments |
//!
//! ## Quickstart
//!
//! ```
//! use malsim::prelude::*;
//!
//! // Reproduce the paper's Figure 1 chain in a few lines:
//! let result = experiments::e1_stuxnet_end_to_end_run(42, 30, false).result;
//! assert!(result.plc_implanted);
//! assert!(result.destroyed > 0);
//! assert!(!result.safety_tripped, "the rootkit blinds the safety system");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod armory;
pub mod chaosfs;
pub mod checkpoint;
pub mod error;
pub mod experiments;
pub mod export;
pub mod golden;
pub mod invariants;
pub mod jobs;
pub mod report;
pub mod scenario;
pub mod script_api;
pub mod sweep;
pub mod telemetry;

pub use error::Error;

/// Commonly used items across the workspace.
pub mod prelude {
    pub use crate::activity;
    pub use crate::armory::Pki;
    pub use crate::chaosfs::{self, ChaosFs, FaultSchedule, RealFs, StorageBackend};
    pub use crate::checkpoint::{self, CheckpointConfig, SweepOutcomes};
    pub use crate::error::Error;
    pub use crate::experiments;
    pub use crate::export;
    pub use crate::golden;
    pub use crate::invariants;
    pub use crate::jobs::{
        self, CancelToken, JobBudget, JobOutcome, JobQueue, JobSpec, JobStatus, Priority, QueueConfig,
        SeedPolicy,
    };
    pub use crate::report::{self, Json};
    pub use crate::scenario::ScenarioBuilder;
    pub use crate::script_api::{self, ScriptManifest, ScriptRunReport, ScriptScenario};
    pub use crate::sweep::{
        self, PointOutcome, PointRun, PoolConfig, ScriptFaultInfo, SweepSupervisor, Truncation,
    };
    pub use crate::telemetry;
    pub use malsim_analysis::prelude::*;
    pub use malsim_kernel::prelude::*;
    pub use malsim_malware::prelude::*;
    pub use malsim_os::host::HostId;
}
