//! Gate-level and transistor-level circuit representations.
//!
//! This crate is the netlist substrate of the defect-level toolkit:
//!
//! * [`Netlist`] — a combinational gate-level netlist with typed node IDs,
//!   levelization, fanout queries and 64-way parallel word evaluation,
//! * [`bench`] — reader/writer for the ISCAS-85 `.bench` format,
//! * [`generators`] — benchmark circuits built from scratch: the embedded
//!   `c17`, a c432-class 27-channel interrupt controller (see `DESIGN.md`
//!   for the substitution rationale), ripple-carry adders, decoders, parity
//!   trees, multiplexers, a small ALU, and seeded random logic,
//! * [`cells`] — static-CMOS cell templates (stages with series/parallel
//!   pull-down networks) shared by the layout generator and the switch-level
//!   expander,
//! * [`switch`] — expansion of a gate-level netlist into a transistor-level
//!   [`switch::SwitchNetlist`] for switch-level (realistic-fault) simulation.
//!
//! # Example
//!
//! ```
//! use dlp_circuit::{GateKind, Netlist};
//!
//! # fn main() -> Result<(), dlp_circuit::NetlistError> {
//! let mut n = Netlist::new("half_adder");
//! let a = n.add_input("a")?;
//! let b = n.add_input("b")?;
//! let sum = n.add_gate("sum", GateKind::Xor, vec![a, b])?;
//! let carry = n.add_gate("carry", GateKind::And, vec![a, b])?;
//! n.mark_output(sum);
//! n.mark_output(carry);
//! assert_eq!(n.gate_count(), 2);
//! // Evaluate 64 patterns at once: bit i of each word is pattern i.
//! let out = n.eval_words(&[0b0101, 0b0011]);
//! assert_eq!(out[0] & 0xF, 0b0110); // sum = a xor b
//! assert_eq!(out[1] & 0xF, 0b0001); // carry = a and b
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod cells;
mod error;
pub mod generators;
mod kind;
mod must;
mod netlist;
pub mod switch;

pub use error::NetlistError;
pub use kind::GateKind;
pub use netlist::{ConeScratch, Netlist, NodeId};
