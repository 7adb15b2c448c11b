//! A source program shared between sessions, with its reference result.

use crate::compile::PipelineError;
use bsched_ir::{Interp, MemImage, Program};
use bsched_util::Fnv1a;
use std::sync::OnceLock;

/// A source program together with its reference result: the verdict of
/// [`bsched_ir::verify_program`] and the memory checksum of the
/// unoptimized program run through the reference interpreter.
///
/// Every compiled configuration of the program is checked against that
/// checksum. It depends on the program alone, so a `Source` computes it
/// lazily, at most once, however many [`Session`](crate::Session)s share
/// the source through an `Arc`. A second thread asking while the first
/// computes waits for the result. Failures are kept as failures: every
/// session sharing a source that does not verify, or that exhausts the
/// interpreter's fuel, gets the same [`PipelineError`].
///
/// The reference is always computed from the source's own program;
/// there is no way to supply it.
#[derive(Debug)]
pub struct Source {
    program: Program,
    reference: OnceLock<Result<u64, PipelineError>>,
    digest: OnceLock<u64>,
}

impl Source {
    /// Wraps a program. Nothing is checked or run until the reference
    /// is first needed.
    #[must_use]
    pub fn new(program: Program) -> Self {
        Source {
            program,
            reference: OnceLock::new(),
            digest: OnceLock::new(),
        }
    }

    /// The source program.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The reference checksum, computed on first use.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Verify`] when the program fails the IR verifier,
    /// [`PipelineError::Exec`] when the interpreter cannot run it to
    /// completion. The same error is returned on every call.
    pub fn reference_checksum(&self) -> Result<u64, PipelineError> {
        self.reference
            .get_or_init(|| self.compute_reference())
            .clone()
    }

    /// A digest of the program's content, computed on first use: FNV-1a
    /// over the program's `Display` text followed by the checksum of its
    /// initial memory image. Two programs that lower to different
    /// instructions, regions or initial data get different digests, so
    /// a result computed for one is never served for the other.
    #[must_use]
    pub fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| {
            let mut h = Fnv1a::new();
            h.write(self.program.to_string().as_bytes());
            h.write(&MemImage::new(&self.program).checksum().to_le_bytes());
            h.finish()
        })
    }

    fn compute_reference(&self) -> Result<u64, PipelineError> {
        let _span = bsched_trace::span(bsched_trace::points::PIPELINE_REFERENCE)
            .label_with(|| self.program.name().to_string());
        bsched_ir::verify_program(&self.program)?;
        Ok(Interp::new(&self.program).run()?.checksum)
    }
}
