//! Eager / rendezvous protocol state machines (§IV-B).
//!
//! The protocol handling stage is deliberately decoupled from matching: once
//! a receive is selected, the transfer can be driven on the SmartNIC or on
//! the host. Small messages use the **eager** protocol — the full payload
//! travels with the message, is staged in a bounce buffer, and is copied to
//! the user buffer after the match. Large messages use **rendezvous** — the
//! sender ships a Ready-To-Send (RTS) descriptor (optionally with some
//! piggybacked head data), and after the match the receiver issues an RDMA
//! read from the sender's registered buffer into the user buffer.
//!
//! The state machines here are pure control flow: they emit [`Action`]s that
//! a transport (the `dpa-sim` crate in this workspace) executes, and they
//! reject out-of-order events, which gives the simulator's protocol driving
//! a checked skeleton.

/// Default eager/rendezvous switchover, in bytes. Typical MPI
/// implementations sit between 4 KiB and 64 KiB; the exact value is a
/// transport tuning knob.
pub const DEFAULT_EAGER_THRESHOLD: usize = 8 * 1024;

/// A transport-level action requested by a protocol state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Copy `len` bytes from the staging (bounce or unexpected) buffer to
    /// the user buffer.
    CopyToUser {
        /// Bytes to copy.
        len: usize,
    },
    /// Issue an RDMA read of `len` bytes from the sender's buffer.
    IssueRdmaRead {
        /// Remote memory key from the RTS.
        rkey: u64,
        /// Remote virtual address from the RTS.
        remote_addr: u64,
        /// Bytes to read.
        len: usize,
    },
    /// The transfer is complete; the receive can be marked done.
    Complete,
}

/// Error returned when a protocol event arrives in the wrong state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolStateError {
    /// Human-readable description of the violation.
    pub(crate) message: String,
}

impl std::fmt::Display for ProtocolStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol state error: {}", self.message)
    }
}

impl std::error::Error for ProtocolStateError {}

fn state_error<T>(message: impl Into<String>) -> Result<T, ProtocolStateError> {
    Err(ProtocolStateError {
        message: message.into(),
    })
}

/// An eager transfer: staged payload awaiting a match, then one copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EagerTransfer {
    len: usize,
    state: EagerState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EagerState {
    Staged,
    Copying,
    Complete,
}

impl EagerTransfer {
    /// A new transfer whose `len`-byte payload has been staged (in a bounce
    /// buffer if expected-path, in the unexpected store otherwise).
    pub fn staged(len: usize) -> Self {
        EagerTransfer {
            len,
            state: EagerState::Staged,
        }
    }

    /// The match completed: request the staging-to-user copy.
    pub fn on_match(&mut self) -> Result<Action, ProtocolStateError> {
        match self.state {
            EagerState::Staged => {
                self.state = EagerState::Copying;
                Ok(Action::CopyToUser { len: self.len })
            }
            _ => state_error("eager transfer matched twice"),
        }
    }

    /// The copy finished: the transfer is complete.
    pub fn on_copy_done(&mut self) -> Result<Action, ProtocolStateError> {
        match self.state {
            EagerState::Copying => {
                self.state = EagerState::Complete;
                Ok(Action::Complete)
            }
            EagerState::Staged => state_error("eager copy completed before match"),
            EagerState::Complete => state_error("eager copy completed twice"),
        }
    }
}

/// The Ready-To-Send descriptor announcing a rendezvous transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rts {
    /// Remote memory key granting read access to the send buffer.
    pub rkey: u64,
    /// Remote virtual address of the send buffer.
    pub remote_addr: u64,
    /// Total payload length in bytes.
    pub len: usize,
    /// Bytes of head data piggybacked on the RTS itself (0 if none).
    pub piggyback: usize,
}

/// A rendezvous transfer: RTS received, match, RDMA read, done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RendezvousTransfer {
    rts: Rts,
    state: RndvState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RndvState {
    RtsReceived,
    ReadInFlight,
    Complete,
}

impl RendezvousTransfer {
    /// A new transfer whose RTS has been received (and possibly stored as
    /// unexpected: "for rendezvous, the stored data contains the information
    /// needed by the RDMA read", §IV-C).
    pub fn rts_received(rts: Rts) -> Self {
        RendezvousTransfer {
            rts,
            state: RndvState::RtsReceived,
        }
    }

    /// The match completed: request the RDMA read of the remaining payload
    /// (anything piggybacked on the RTS is already local).
    pub fn on_match(&mut self) -> Result<Action, ProtocolStateError> {
        match self.state {
            RndvState::RtsReceived => {
                self.state = RndvState::ReadInFlight;
                // A malformed RTS could claim more piggybacked bytes than
                // the payload holds; clamp so the read length can never
                // underflow into a ~2^64-byte request.
                let piggyback = self.rts.piggyback.min(self.rts.len);
                Ok(Action::IssueRdmaRead {
                    rkey: self.rts.rkey,
                    remote_addr: self.rts.remote_addr + piggyback as u64,
                    len: self.rts.len - piggyback,
                })
            }
            _ => state_error("rendezvous transfer matched twice"),
        }
    }

    /// The RDMA read completed: the transfer is complete.
    pub fn on_read_complete(&mut self) -> Result<Action, ProtocolStateError> {
        match self.state {
            RndvState::ReadInFlight => {
                self.state = RndvState::Complete;
                Ok(Action::Complete)
            }
            RndvState::RtsReceived => state_error("RDMA read completed before match"),
            RndvState::Complete => state_error("RDMA read completed twice"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EagerTransfer {
        /// Whether the payload is empty (zero-byte messages are legal in MPI).
        fn is_empty(&self) -> bool {
            self.len == 0
        }

        /// Whether the transfer has completed.
        fn is_complete(&self) -> bool {
            self.state == EagerState::Complete
        }
    }

    impl RendezvousTransfer {
        /// Whether the transfer has completed.
        fn is_complete(&self) -> bool {
            self.state == RndvState::Complete
        }
    }

    /// Which protocol a message of a given size uses.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum ProtocolKind {
        /// Payload travels with the message.
        Eager,
        /// Sender announces with an RTS; receiver pulls via RDMA read.
        Rendezvous,
    }

    /// Selects the protocol for a message of `len` bytes under the given
    /// threshold: messages *strictly larger* than the threshold rendezvous.
    #[inline]
    fn protocol_for(len: usize, eager_threshold: usize) -> ProtocolKind {
        if len <= eager_threshold {
            ProtocolKind::Eager
        } else {
            ProtocolKind::Rendezvous
        }
    }

    #[test]
    fn threshold_selects_protocol() {
        assert_eq!(
            protocol_for(0, DEFAULT_EAGER_THRESHOLD),
            ProtocolKind::Eager
        );
        assert_eq!(
            protocol_for(DEFAULT_EAGER_THRESHOLD, DEFAULT_EAGER_THRESHOLD),
            ProtocolKind::Eager
        );
        assert_eq!(
            protocol_for(DEFAULT_EAGER_THRESHOLD + 1, DEFAULT_EAGER_THRESHOLD),
            ProtocolKind::Rendezvous
        );
    }

    #[test]
    fn eager_happy_path() {
        let mut t = EagerTransfer::staged(128);
        assert_eq!(t.on_match().unwrap(), Action::CopyToUser { len: 128 });
        assert_eq!(t.on_copy_done().unwrap(), Action::Complete);
        assert!(t.is_complete());
    }

    #[test]
    fn eager_zero_byte_message_is_legal() {
        let mut t = EagerTransfer::staged(0);
        assert!(t.is_empty());
        assert_eq!(t.on_match().unwrap(), Action::CopyToUser { len: 0 });
        t.on_copy_done().unwrap();
        assert!(t.is_complete());
    }

    #[test]
    fn eager_rejects_out_of_order_events() {
        let mut t = EagerTransfer::staged(8);
        assert!(t.on_copy_done().is_err());
        t.on_match().unwrap();
        assert!(t.on_match().is_err());
        t.on_copy_done().unwrap();
        assert!(t.on_copy_done().is_err());
    }

    #[test]
    fn rendezvous_happy_path() {
        let rts = Rts {
            rkey: 0xabc,
            remote_addr: 0x1000,
            len: 1 << 20,
            piggyback: 0,
        };
        let mut t = RendezvousTransfer::rts_received(rts);
        assert_eq!(
            t.on_match().unwrap(),
            Action::IssueRdmaRead {
                rkey: 0xabc,
                remote_addr: 0x1000,
                len: 1 << 20
            }
        );
        assert_eq!(t.on_read_complete().unwrap(), Action::Complete);
        assert!(t.is_complete());
    }

    #[test]
    fn rendezvous_piggyback_shrinks_the_read() {
        let rts = Rts {
            rkey: 1,
            remote_addr: 0x2000,
            len: 4096,
            piggyback: 256,
        };
        let mut t = RendezvousTransfer::rts_received(rts);
        assert_eq!(
            t.on_match().unwrap(),
            Action::IssueRdmaRead {
                rkey: 1,
                remote_addr: 0x2000 + 256,
                len: 4096 - 256
            }
        );
    }

    #[test]
    fn malformed_piggyback_is_clamped_not_underflowed() {
        let rts = Rts {
            rkey: 2,
            remote_addr: 0x100,
            len: 64,
            piggyback: 1000, // claims more than the payload holds
        };
        let mut t = RendezvousTransfer::rts_received(rts);
        assert_eq!(
            t.on_match().unwrap(),
            Action::IssueRdmaRead {
                rkey: 2,
                remote_addr: 0x100 + 64,
                len: 0
            }
        );
    }

    #[test]
    fn rendezvous_rejects_out_of_order_events() {
        let rts = Rts {
            rkey: 1,
            remote_addr: 0,
            len: 100_000,
            piggyback: 0,
        };
        let mut t = RendezvousTransfer::rts_received(rts);
        assert!(t.on_read_complete().is_err());
        t.on_match().unwrap();
        assert!(t.on_match().is_err());
        t.on_read_complete().unwrap();
        assert!(t.on_read_complete().is_err());
    }

    #[test]
    fn state_error_displays_its_message() {
        let mut t = EagerTransfer::staged(8);
        let err = t.on_copy_done().unwrap_err();
        assert!(err.to_string().contains("before match"));
    }
}
