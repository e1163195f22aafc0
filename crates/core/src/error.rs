//! The workspace-level error type.
//!
//! Each layer keeps its own small, typed error (`TimeError`,
//! `FaultConfigError`, `DnsError`, `HttpError`, `RetryExhausted`,
//! `InvariantViolation`, `CheckpointError`, `CompileScriptError`,
//! `RunScriptError`) — all implementing [`std::error::Error`] and
//! `Display` — and [`Error`] folds them into one enum so harnesses and
//! examples can bubble any of them through a single
//! `Result<_, malsim::Error>` with `?`.

use malsim_kernel::fault::FaultConfigError;
use malsim_kernel::invariant::InvariantViolation;
use malsim_kernel::time::TimeError;
use malsim_net::dns::DnsError;
use malsim_net::http::HttpError;
use malsim_net::retry::RetryExhausted;
use malsim_script::error::{CompileScriptError, RunScriptError};

use crate::checkpoint::CheckpointError;
use crate::jobs::{JobError, Rejected};

/// Any error the malsim workspace can surface, by originating layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A calendar/clock conversion failed ([`TimeError`]).
    Time(TimeError),
    /// A fault-injection window is malformed ([`FaultConfigError`]).
    Fault(FaultConfigError),
    /// A DNS operation failed ([`DnsError`]).
    Dns(DnsError),
    /// An HTTP transport operation failed ([`HttpError`]).
    Http(HttpError),
    /// A retry policy's budget was exhausted ([`RetryExhausted`]).
    Retry(RetryExhausted),
    /// A runtime invariant was violated ([`InvariantViolation`]).
    Invariant(InvariantViolation),
    /// Checkpoint persistence or resume failed ([`CheckpointError`]).
    Checkpoint(CheckpointError),
    /// A job-queue submission failed admission ([`JobError`]).
    Job(JobError),
    /// A Flua scenario/module script failed to compile
    /// ([`CompileScriptError`]).
    Compile(CompileScriptError),
    /// A Flua scenario/module script faulted at runtime
    /// ([`RunScriptError`]).
    Script(RunScriptError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Time(e) => write!(f, "time: {e}"),
            Error::Fault(e) => write!(f, "fault plane: {e}"),
            Error::Dns(e) => write!(f, "dns: {e}"),
            Error::Http(e) => write!(f, "http: {e}"),
            Error::Retry(e) => write!(f, "retry: {e}"),
            Error::Invariant(e) => write!(f, "invariant: {e}"),
            Error::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            Error::Job(e) => write!(f, "jobs: {e}"),
            Error::Compile(e) => write!(f, "script: {e}"),
            Error::Script(e) => write!(f, "script: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Time(e) => Some(e),
            Error::Fault(e) => Some(e),
            Error::Dns(e) => Some(e),
            Error::Http(e) => Some(e),
            Error::Retry(e) => Some(e),
            Error::Invariant(e) => Some(e),
            Error::Checkpoint(e) => Some(e),
            Error::Job(e) => Some(e),
            Error::Compile(e) => Some(e),
            Error::Script(e) => Some(e),
        }
    }
}

impl From<TimeError> for Error {
    fn from(e: TimeError) -> Error {
        Error::Time(e)
    }
}

impl From<FaultConfigError> for Error {
    fn from(e: FaultConfigError) -> Error {
        Error::Fault(e)
    }
}

impl From<DnsError> for Error {
    fn from(e: DnsError) -> Error {
        Error::Dns(e)
    }
}

impl From<HttpError> for Error {
    fn from(e: HttpError) -> Error {
        Error::Http(e)
    }
}

impl From<RetryExhausted> for Error {
    fn from(e: RetryExhausted) -> Error {
        Error::Retry(e)
    }
}

impl From<InvariantViolation> for Error {
    fn from(e: InvariantViolation) -> Error {
        Error::Invariant(e)
    }
}

impl From<CheckpointError> for Error {
    fn from(e: CheckpointError) -> Error {
        Error::Checkpoint(e)
    }
}

impl From<JobError> for Error {
    fn from(e: JobError) -> Error {
        Error::Job(e)
    }
}

impl From<Rejected> for Error {
    fn from(e: Rejected) -> Error {
        Error::Job(JobError::Rejected(e))
    }
}

impl From<CompileScriptError> for Error {
    fn from(e: CompileScriptError) -> Error {
        Error::Compile(e)
    }
}

impl From<RunScriptError> for Error {
    fn from(e: RunScriptError) -> Error {
        Error::Script(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn conversions_preserve_the_source() {
        let retry = RetryExhausted { attempts: 3, last_error: "dns: all dead".into() };
        let err: Error = retry.clone().into();
        assert_eq!(err, Error::Retry(retry));
        assert_eq!(err.to_string(), "retry: retries exhausted after 3 attempts: dns: all dead");
        assert!(err.source().is_some(), "source chain is wired");

        let ckpt = CheckpointError::Io {
            path: "/tmp/x".into(),
            kind: std::io::ErrorKind::PermissionDenied,
            detail: "denied".into(),
        };
        let err: Error = ckpt.into();
        assert!(err.to_string().starts_with("checkpoint: "), "{err}");
        assert!(err.source().unwrap().to_string().contains("/tmp/x"));
    }

    #[test]
    fn script_errors_round_trip_display_and_source() {
        use malsim_script::error::SourcePos;

        let run = RunScriptError::OutOfFuel;
        let err: Error = run.clone().into();
        assert_eq!(err, Error::Script(run.clone()));
        assert_eq!(err.to_string(), format!("script: {run}"));
        assert_eq!(err.source().unwrap().to_string(), run.to_string());

        let cap = RunScriptError::CapabilityDenied {
            name: "detonate".into(),
            capability: malsim_script::cap::Capability::Detonate,
        };
        let err: Error = cap.clone().into();
        assert_eq!(err.to_string(), "script: capability denied: 'detonate' requires detonate");
        assert_eq!(err.source().unwrap().to_string(), cap.to_string());

        let compile =
            CompileScriptError { pos: SourcePos { line: 2, col: 5 }, message: "unexpected token".into() };
        let err: Error = compile.clone().into();
        assert_eq!(err, Error::Compile(compile.clone()));
        assert_eq!(err.to_string(), "script: compile error at 2:5: unexpected token");
        assert_eq!(err.source().unwrap().to_string(), compile.to_string());
    }

    #[test]
    fn every_variant_displays_with_a_layer_prefix() {
        use malsim_kernel::time::SimTime;
        let cases: Vec<Error> = vec![
            InvariantViolation {
                law: "monotonic-time",
                at: SimTime::EPOCH,
                detail: "clock went backwards".into(),
            }
            .into(),
            RetryExhausted { attempts: 1, last_error: "x".into() }.into(),
            CheckpointError::Io {
                path: "/tmp/x".into(),
                kind: std::io::ErrorKind::Other,
                detail: "y".into(),
            }
            .into(),
            Rejected { job_id: "j".into(), reason: crate::jobs::RejectReason::EmptyGrid }.into(),
        ];
        for err in cases {
            let text = err.to_string();
            assert!(text.contains(": "), "layer prefix present: {text}");
        }
    }
}
