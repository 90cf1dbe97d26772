//! Domain failures, classified once.
//!
//! Every tool body returns `Result<_, DomainError>`, so `?` on a session,
//! diff, power-flow, ACOPF or batch error lands in exactly one `From`
//! impl below — the only place that decides which [`ErrorCode`] an error
//! type carries. The planners' recovery matches that code; nobody reads
//! the message to decide anything.

use crate::session::SessionError;
use gm_acopf::AcopfError;
use gm_agents::{ErrorCode, ToolError};
use gm_network::diff::DiffError;
use gm_powerflow::{BatchError, PfError};

/// A domain failure at the tool boundary: its class, and the message the
/// failure sentence quotes.
#[derive(Clone, Debug, PartialEq)]
pub struct DomainError {
    /// What class of failure it is.
    pub code: ErrorCode,
    /// Rendered message.
    pub message: String,
}

impl DomainError {
    /// A failure of class `code`, carrying `e`'s rendering.
    pub fn new(code: ErrorCode, e: impl std::fmt::Display) -> DomainError {
        DomainError {
            code,
            message: e.to_string(),
        }
    }

    /// Prefixes the message with what the tool was doing; the class
    /// stays what the underlying error made it.
    pub fn during(mut self, what: &str) -> DomainError {
        self.message = format!("{what}: {}", self.message);
        self
    }
}

impl From<DomainError> for ToolError {
    fn from(e: DomainError) -> ToolError {
        ToolError::Execution {
            code: e.code,
            message: e.message,
        }
    }
}

fn diff_code(e: &DiffError) -> ErrorCode {
    match e {
        DiffError::UnknownBus { .. } => ErrorCode::UnknownBus,
        DiffError::NoLoadAtBus { .. } | DiffError::IndexOutOfRange { .. } => {
            ErrorCode::UnknownElement
        }
        DiffError::BadArgument { .. } => ErrorCode::BadArgument,
    }
}

fn pf_code(e: &PfError) -> ErrorCode {
    match e {
        PfError::InvalidNetwork { .. } => ErrorCode::InvalidNetwork,
        PfError::Diverged { .. } | PfError::SingularJacobian { .. } => ErrorCode::NotConverged,
    }
}

impl From<DiffError> for DomainError {
    fn from(e: DiffError) -> DomainError {
        DomainError::new(diff_code(&e), e)
    }
}

impl From<SessionError> for DomainError {
    fn from(e: SessionError) -> DomainError {
        let code = match &e {
            SessionError::NoActiveCase => ErrorCode::NoActiveCase,
            SessionError::UnknownCase(_) => ErrorCode::UnknownCase,
            SessionError::BadModification(diff) => diff_code(diff),
        };
        DomainError::new(code, e)
    }
}

impl From<PfError> for DomainError {
    fn from(e: PfError) -> DomainError {
        DomainError::new(pf_code(&e), e)
    }
}

impl From<AcopfError> for DomainError {
    fn from(e: AcopfError) -> DomainError {
        let code = match e {
            AcopfError::InvalidNetwork { .. } => ErrorCode::InvalidNetwork,
            AcopfError::NotConverged { .. } => ErrorCode::NotConverged,
        };
        DomainError::new(code, e)
    }
}

impl From<BatchError> for DomainError {
    fn from(e: BatchError) -> DomainError {
        let code = match &e {
            BatchError::Empty | BatchError::BadScenario { .. } => ErrorCode::BadArgument,
            BatchError::InvalidBase { .. } => ErrorCode::InvalidNetwork,
            BatchError::DcSeed { error } => pf_code(error),
        };
        DomainError::new(code, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_diff_error_keeps_its_class_through_the_session() {
        let e = SessionError::BadModification(DiffError::UnknownBus { bus_id: 999 });
        let d = DomainError::from(e);
        assert_eq!(d.code, ErrorCode::UnknownBus);
        assert_eq!(d.message, "modification failed: bus 999 does not exist");
    }

    #[test]
    fn context_changes_the_message_not_the_class() {
        let e = PfError::Diverged {
            iterations: 12,
            mismatch_pu: 0.5,
        };
        let text = e.to_string();
        let d = DomainError::from(e).during("base case power flow failed");
        assert_eq!(d.code, ErrorCode::NotConverged);
        assert_eq!(d.message, format!("base case power flow failed: {text}"));
        assert!(matches!(
            ToolError::from(d),
            ToolError::Execution {
                code: ErrorCode::NotConverged,
                ..
            }
        ));
    }

    #[test]
    fn a_batch_seed_failure_takes_the_class_of_its_cause() {
        let e = BatchError::DcSeed {
            error: PfError::SingularJacobian { iteration: 0 },
        };
        assert_eq!(DomainError::from(e).code, ErrorCode::NotConverged);
    }
}
