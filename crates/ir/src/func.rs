//! Functions: a block arena, an entry block, a virtual-register allocator,
//! and counted-loop metadata consumed by the loop optimizations.

use crate::block::{Block, BlockId, Terminator};
use crate::reg::{Reg, RegClass};

/// The upper bound of a counted loop: a loop-invariant register or a
/// compile-time constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Bound held in a loop-invariant integer register.
    Reg(Reg),
    /// Compile-time constant bound.
    Imm(i64),
}

/// Metadata describing a loop in the canonical *counted* shape the frontend
/// lowers `for` loops into:
///
/// ```text
/// preheader: ...; counter = init
/// header:    t = cmplt counter, bound        ; (exactly this test)
///            br t == 0 -> exit, fall -> first body block
/// body...:   loop body (may contain internal branches / nested loops)
/// latch:     counter = add counter, #step
///            jmp header
/// exit:
/// ```
///
/// The loop optimizations (unrolling, peeling, locality-driven transforms)
/// consume and re-validate this metadata rather than re-discovering
/// induction variables; [`crate::loops`] provides the generic natural-loop
/// view used for validation.
#[derive(Debug, Clone, PartialEq)]
pub struct CountedLoop {
    /// Block evaluating the exit test.
    pub header: BlockId,
    /// Blocks strictly inside the loop, excluding `header` and `latch`,
    /// in layout order. Nested loops' blocks are included.
    pub body: Vec<BlockId>,
    /// The unique back-edge block; contains only the counter increment.
    pub latch: BlockId,
    /// The loop's single exit block (target of the header's exit branch).
    pub exit: BlockId,
    /// Block ending with a jump to `header`; loop-invariant setup lives
    /// here and the counter is initialised here.
    pub preheader: BlockId,
    /// The loop counter register (integer).
    pub counter: Reg,
    /// The (positive) constant step added in the latch.
    pub step: i64,
    /// Upper bound tested as `counter < bound`.
    pub bound: Bound,
    /// Index of the enclosing `CountedLoop` in [`Function::loops`], if any.
    pub parent: Option<usize>,
}

impl CountedLoop {
    /// All blocks of the loop (header, body, latch).
    #[must_use]
    pub fn all_blocks(&self) -> Vec<BlockId> {
        let mut v = Vec::with_capacity(self.body.len() + 2);
        v.push(self.header);
        v.extend_from_slice(&self.body);
        v.push(self.latch);
        v
    }
}

/// A function: the unit of compilation, scheduling and simulation.
///
/// The frontend inlines every procedure call, so a compiled
/// [`crate::Program`] contains exactly one function (see DESIGN.md for the
/// rationale); the type still supports arbitrary CFGs.
#[derive(Debug, Clone)]
pub struct Function {
    name: String,
    blocks: Vec<Block>,
    entry: BlockId,
    next_vreg: [u32; 2],
    /// Counted-loop metadata, outermost-first within each nest.
    pub loops: Vec<CountedLoop>,
}

impl Function {
    /// Creates a function with a single empty entry block ending in `Ret`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Function {
            name: name.into(),
            blocks: vec![Block::new(Terminator::Ret)],
            entry: BlockId::new(0),
            next_vreg: [0, 0],
            loops: Vec::new(),
        }
    }

    /// The function's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The entry block.
    #[must_use]
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Appends a new block and returns its id.
    pub fn add_block(&mut self, block: Block) -> BlockId {
        let id = BlockId::new(self.blocks.len());
        self.blocks.push(block);
        id
    }

    /// The blocks in layout (code-address) order.
    #[must_use]
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// A block by id.
    #[must_use]
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// A block by id, mutably.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Iterates over `(id, block)` pairs in layout order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId::new(i), b))
    }

    /// Allocates a fresh virtual register of `class`.
    pub fn new_reg(&mut self, class: RegClass) -> Reg {
        let slot = match class {
            RegClass::Int => 0,
            RegClass::Float => 1,
        };
        let n = self.next_vreg[slot];
        self.next_vreg[slot] += 1;
        Reg::virt(class, n)
    }

    /// Number of virtual registers allocated so far in `class`.
    #[must_use]
    pub fn vreg_count(&self, class: RegClass) -> u32 {
        self.next_vreg[match class {
            RegClass::Int => 0,
            RegClass::Float => 1,
        }]
    }

    /// Total instruction count across all blocks (terminators excluded).
    #[must_use]
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(Block::len).sum()
    }

    /// The innermost counted loops: loops no other counted loop names as
    /// parent.
    #[must_use]
    pub fn innermost_loops(&self) -> Vec<usize> {
        let mut has_child = vec![false; self.loops.len()];
        for l in &self.loops {
            if let Some(p) = l.parent {
                has_child[p] = true;
            }
        }
        (0..self.loops.len()).filter(|&i| !has_child[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_registers_are_unique() {
        let mut f = Function::new("t");
        let a = f.new_reg(RegClass::Int);
        let b = f.new_reg(RegClass::Int);
        let c = f.new_reg(RegClass::Float);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(f.vreg_count(RegClass::Int), 2);
        assert_eq!(f.vreg_count(RegClass::Float), 1);
    }

    #[test]
    fn block_arena() {
        let mut f = Function::new("t");
        assert_eq!(f.blocks().len(), 1);
        let b = f.add_block(Block::new(Terminator::Jmp(f.entry())));
        assert_eq!(b.index(), 1);
        assert_eq!(f.block(b).term, Terminator::Jmp(BlockId::new(0)));
    }

    #[test]
    fn innermost_loop_detection() {
        let mut f = Function::new("t");
        let dummy = |parent| CountedLoop {
            header: BlockId::new(0),
            body: vec![],
            latch: BlockId::new(0),
            exit: BlockId::new(0),
            preheader: BlockId::new(0),
            counter: Reg::virt(RegClass::Int, 0),
            step: 1,
            bound: Bound::Imm(4),
            parent,
        };
        f.loops.push(dummy(None)); // outer
        f.loops.push(dummy(Some(0))); // inner
        assert_eq!(f.innermost_loops(), vec![1]);
    }
}
