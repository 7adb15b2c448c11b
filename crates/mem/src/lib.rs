//! `bsched-mem` — an Alpha 21164-like memory hierarchy.
//!
//! Models the memory system the paper simulates (§4.3, Tables 2–3):
//! a small direct-mapped first-level data cache with a *lockup-free*
//! miss-address file (MSHRs), an on-chip second-level cache, an off-chip
//! third-level (board) cache, main memory, a separate instruction cache,
//! and fully associative instruction/data TLBs.
//!
//! The [`Hierarchy`] type answers timing queries from the simulator:
//! given an address and the current cycle, when is the data ready, which
//! level served it, and how many cycles did it stall for a structural
//! resource — a free MSHR on a read, a free write-buffer entry on a
//! store ([`Access::stall`])?
//!
//! It is the one model both simulation engines run on, written for
//! their hot loops; the constructor takes the program's code segment so
//! repeated instruction fetches can be proven hits (see [`Hierarchy`]).
//!
//! ```
//! use bsched_mem::{Hierarchy, Level, MemConfig};
//!
//! // A program whose code occupies 0x4000..0x6000.
//! let mut h = Hierarchy::new(MemConfig::alpha21164().with_mshrs(1), 0x4000..0x6000);
//! let first = h.data_read(0x1000, 0);
//! assert_ne!(first.level, Level::L1); // cold miss
//! assert_eq!(first.stall, 0); // a free MSHR: no structural stall
//! let again = h.data_read(0x1000, first.ready_at);
//! assert_eq!(again.level, Level::L1); // now cached
//! // A second miss while the only MSHR is busy waits for its fill.
//! let a = h.data_read(0x2000, again.ready_at);
//! let b = h.data_read(0x3000, a.issue_at);
//! assert_eq!(b.issue_at, a.ready_at);
//! assert_eq!(b.stall, a.ready_at - a.issue_at);
//! assert_eq!(h.stats().mshr_stall_cycles, b.stall);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod stats;
pub mod tlb;

pub use cache::Cache;
pub use config::{CacheConfig, MemConfig, MshrPolicy, PrefetchKind};
pub use hierarchy::{Access, Hierarchy, Level};
pub use stats::MemStats;
pub use tlb::Tlb;
