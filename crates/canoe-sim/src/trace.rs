//! The observable simulation trace.

use serde::{Deserialize, Serialize};

/// One observable event in a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A handler passed a frame to its CAN controller (`output()` ran).
    /// This precedes [`TraceEvent::Transmit`], which is the later bus grant.
    Queued {
        /// Sending node.
        node: String,
        /// Message name (from the database) or `id_0x…` if unknown.
        message: String,
        /// CAN identifier.
        id: u32,
        /// Payload.
        payload: [u8; 8],
    },
    /// A node's frame won arbitration and went on the bus.
    Transmit {
        /// Sending node.
        node: String,
        /// Message name (from the database) or `id_0x…` if unknown.
        message: String,
        /// CAN identifier.
        id: u32,
        /// Payload.
        payload: [u8; 8],
    },
    /// A node's `on message` handler accepted a frame.
    Receive {
        /// Receiving node.
        node: String,
        /// Message name (from the database) or `id_0x…` if unknown.
        message: String,
        /// CAN identifier.
        id: u32,
        /// Payload.
        payload: [u8; 8],
    },
    /// `write(…)` output from a CAPL program.
    Log {
        /// The node that logged.
        node: String,
        /// The formatted text.
        text: String,
    },
    /// A timer fired and its handler ran.
    TimerFired {
        /// The node owning the timer.
        node: String,
        /// The timer variable name.
        timer: String,
    },
    /// A frame was dropped or forged by an [`crate::Interceptor`].
    Intercepted {
        /// Description of the interception.
        action: String,
        /// The affected CAN identifier.
        id: u32,
    },
    /// A frame entered the bus queue from outside the modelled network
    /// ([`crate::Simulation::inject_frame`]), as opposed to a node's
    /// `output()`. The later bus grant still appears as a
    /// [`TraceEvent::Transmit`] from `<external>`.
    Injected {
        /// Message name (from the database) or `id_0x…` if unknown.
        message: String,
        /// CAN identifier.
        id: u32,
        /// Payload.
        payload: [u8; 8],
    },
    /// A named fault acted on the bus — the tagged record a fault-injection
    /// interceptor emits through [`crate::Interceptor::drain_fault_log`],
    /// and the marker for scheduled node outages.
    Fault {
        /// The fault's name (from its plan entry).
        fault: String,
        /// What the fault did (dropped, corrupted, delayed …).
        action: String,
        /// The affected CAN identifier (0 when not frame-related).
        id: u32,
    },
}

impl TraceEvent {
    /// The message name if this is a transmit event.
    pub fn transmit_name(&self) -> Option<&str> {
        match self {
            TraceEvent::Transmit { message, .. } => Some(message),
            _ => None,
        }
    }

    /// The message name if this is a receive event.
    pub fn receive_name(&self) -> Option<&str> {
        match self {
            TraceEvent::Receive { message, .. } => Some(message),
            _ => None,
        }
    }

    /// The fault name if this is a tagged fault record.
    pub fn fault_name(&self) -> Option<&str> {
        match self {
            TraceEvent::Fault { fault, .. } => Some(fault),
            _ => None,
        }
    }
}

/// A timestamped trace entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Simulation time in microseconds.
    pub time_us: u64,
    /// What happened.
    pub event: TraceEvent,
}
