//! `bsched-regalloc` — graph-coloring register allocation with spill code.
//!
//! Runs after instruction scheduling (the Multiflow phase order): virtual
//! registers are mapped onto the Alpha's 31 integer / 31 floating-point
//! architectural registers, and registers that do not fit are *spilled* to
//! a dedicated stack region with allocator-inserted restore loads and
//! spill stores. Spill code is marked ([`bsched_ir::Inst::spill`]) so the
//! simulator counts it separately, reproducing the paper's observation
//! that aggressive unrolling raises register pressure until "the
//! independent instructions ... were less able to hide the latency of the
//! additional spill loads" (§5.1).
//!
//! Register file layout per class: the low registers are allocatable,
//! three are reserved as spill-restore temporaries, and one integer
//! register is the spill-area frame pointer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coloring;
pub mod linear_scan;

pub use linear_scan::{allocate, AllocStats};
