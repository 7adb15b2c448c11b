//! `bsched-util` — std-only utilities shared across the workspace.
//!
//! The build environment has no access to the crates registry, so every
//! piece of infrastructure the reproduction needs beyond `std` lives
//! here, hand-rolled:
//!
//! * [`rng`] — a deterministic SplitMix64 generator used for workload
//!   array initialisation and the randomized property tests,
//! * [`fnv`] — FNV-1a 64-bit hashing for stable content digests,
//! * [`json`] — a minimal JSON reader/writer (objects, arrays, strings,
//!   integers, floats, bools, null) for the wire protocol and the trace
//!   export,
//! * [`frame`] — length-prefixed JSON framing for the `bsched-serve`
//!   wire protocol,
//! * [`spec`] — the shared key=value spec grammar behind `--sample=`
//!   and `--machine=` (one parse/error/exit-2 contract).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fnv;
pub mod frame;
pub mod json;
pub mod rng;
pub mod spec;

pub use fnv::Fnv1a;
pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME_LEN};
pub use json::Json;
pub use rng::Prng;
