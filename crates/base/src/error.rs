//! Error types shared across the workspace.

/// Errors reported by the matching engines and their substrates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchError {
    /// The fixed-size receive descriptor table is full (§III-B): "if the
    /// number of posted receives exceeds this capacity, the application must
    /// fall back to software tag matching".
    ReceiveTableFull,
    /// The unexpected-message store is full; the implementation must fall
    /// back to software tag matching (§IV-E).
    UnexpectedStoreFull,
    /// DPA memory could not be allocated for a communicator's index tables
    /// (§IV-E): the MPI implementation is expected to fall back to software
    /// tag matching for that communicator.
    OutOfDeviceMemory {
        /// Bytes that were requested.
        requested: u64,
        /// Bytes that were available.
        available: u64,
    },
    /// A configuration parameter was outside its legal range.
    InvalidConfig(String),
    /// A receive violated a communicator hint (§VII): e.g. an
    /// `MPI_ANY_SOURCE` receive posted on a communicator asserted with
    /// `mpi_assert_no_any_source`. Per MPI, violating an assertion is an
    /// application error.
    HintViolation(String),
    /// A communicator's bounded command queue (its submission ring) is
    /// full: the submitter is producing faster than the drain coordinator
    /// consumes. Retryable backpressure — draining the command queue frees
    /// room, so the submission can succeed later without any state change.
    SubmissionRingFull {
        /// The communicator whose queue refused the submission.
        comm: u16,
    },
    /// An engine operation was attempted after the engine was shut down.
    EngineStopped,
}

impl MatchError {
    /// Whether the error is retryable resource exhaustion: the operation
    /// can succeed later once the caller frees capacity (consumes queued
    /// receives or unexpected messages, or releases device memory). The
    /// engine's command-queue drain requeues the failing command on these
    /// errors so a retry resumes exactly where it stopped.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            MatchError::ReceiveTableFull
                | MatchError::UnexpectedStoreFull
                | MatchError::OutOfDeviceMemory { .. }
                | MatchError::SubmissionRingFull { .. }
        )
    }

    /// Whether the error is terminal for a command-queue drain: retrying
    /// the same command can never succeed, either because the engine is
    /// dead ([`MatchError::EngineStopped`]) or because the command itself
    /// is invalid ([`MatchError::HintViolation`] and friends). Terminal
    /// errors surface the unapplied commands to the caller instead of
    /// requeueing them — requeueing would spin a retry loop forever.
    pub fn is_terminal(&self) -> bool {
        !self.is_retryable()
    }
}

impl std::fmt::Display for MatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatchError::ReceiveTableFull => {
                write!(
                    f,
                    "receive descriptor table full: fall back to software tag matching"
                )
            }
            MatchError::UnexpectedStoreFull => {
                write!(
                    f,
                    "unexpected message store full: fall back to software tag matching"
                )
            }
            MatchError::OutOfDeviceMemory {
                requested,
                available,
            } => write!(
                f,
                "out of DPA memory: requested {requested} B, {available} B available"
            ),
            MatchError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            MatchError::HintViolation(msg) => write!(f, "communicator hint violated: {msg}"),
            MatchError::SubmissionRingFull { comm } => write!(
                f,
                "submission ring for comm{comm} is full: drain the command queue and retry"
            ),
            MatchError::EngineStopped => write!(f, "matching engine already stopped"),
        }
    }
}

impl std::error::Error for MatchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_software_fallback_for_resource_exhaustion() {
        assert!(MatchError::ReceiveTableFull
            .to_string()
            .contains("software tag matching"));
        assert!(MatchError::UnexpectedStoreFull
            .to_string()
            .contains("software tag matching"));
    }

    #[test]
    fn display_reports_memory_numbers() {
        let e = MatchError::OutOfDeviceMemory {
            requested: 1024,
            available: 512,
        };
        let s = e.to_string();
        assert!(s.contains("1024"));
        assert!(s.contains("512"));
    }

    #[test]
    fn resource_exhaustion_is_retryable_everything_else_terminal() {
        assert!(MatchError::ReceiveTableFull.is_retryable());
        assert!(MatchError::UnexpectedStoreFull.is_retryable());
        assert!(MatchError::OutOfDeviceMemory {
            requested: 1,
            available: 0
        }
        .is_retryable());
        assert!(MatchError::SubmissionRingFull { comm: 1 }.is_retryable());
        assert!(MatchError::EngineStopped.is_terminal());
        assert!(MatchError::InvalidConfig("x".into()).is_terminal());
        assert!(MatchError::HintViolation("x".into()).is_terminal());
    }

    #[test]
    fn errors_are_std_errors() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&MatchError::EngineStopped);
    }
}
