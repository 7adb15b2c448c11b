//! Programs: a main function plus named, cache-line-aligned memory regions.

use crate::func::Function;
use std::fmt;

/// Cache-line size used for region alignment (Alpha 21164 first-level
/// cache: 32-byte lines; paper §3.3 "we align the arrays on cache-line
/// boundaries").
pub const LINE_ALIGN: u64 = 32;

/// Identifier of a memory region (array) within a [`Program`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(u32);

impl RegionId {
    /// Creates a region id from a raw index.
    #[must_use]
    pub fn new(index: usize) -> Self {
        RegionId(u32::try_from(index).expect("region index overflow"))
    }

    /// The raw index.
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region{}", self.0)
    }
}

/// A named, statically sized block of memory (an array).
///
/// Regions are laid out sequentially, each aligned to [`LINE_ALIGN`];
/// [`crate::Op::LdAddr`] materialises a region's base address.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    name: String,
    size: u64,
    init: Vec<u8>,
    observable: bool,
}

impl Region {
    /// Creates a zero-initialised region of `size` bytes.
    #[must_use]
    pub fn zeroed(name: impl Into<String>, size: u64) -> Self {
        Region {
            name: name.into(),
            size,
            init: Vec::new(),
            observable: true,
        }
    }

    /// Marks the region as *scratch*: excluded from the observable-memory
    /// checksum. Used for the register allocator's spill area, whose
    /// residue is not program output.
    #[must_use]
    pub fn hidden(mut self) -> Self {
        self.observable = false;
        self
    }

    /// `true` when the region participates in the observable-memory
    /// checksum.
    #[must_use]
    pub fn is_observable(&self) -> bool {
        self.observable
    }

    /// Creates a region initialised from 64-bit float values.
    #[must_use]
    pub fn from_f64s(name: impl Into<String>, values: &[f64]) -> Self {
        let mut init = Vec::with_capacity(values.len() * 8);
        for v in values {
            init.extend_from_slice(&v.to_le_bytes());
        }
        let size = init.len() as u64;
        Region {
            name: name.into(),
            size,
            init,
            observable: true,
        }
    }

    /// The region's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The region's size in bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The initial contents (shorter than `size`: the tail is zero).
    #[must_use]
    pub fn init(&self) -> &[u8] {
        &self.init
    }
}

/// A whole program: one (fully inlined) main function and its memory
/// regions.
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    regions: Vec<Region>,
    main: Function,
}

impl Program {
    /// Creates an empty program with a trivial main function.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            regions: Vec::new(),
            main: Function::new("main"),
        }
    }

    /// The program's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a zero-initialised region of `size` bytes.
    pub fn add_region(&mut self, name: impl Into<String>, size: u64) -> RegionId {
        self.push_region(Region::zeroed(name, size))
    }

    /// Adds a fully specified region.
    pub fn push_region(&mut self, region: Region) -> RegionId {
        let id = RegionId::new(self.regions.len());
        self.regions.push(region);
        id
    }

    /// The regions, in declaration order.
    #[must_use]
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// A region by id.
    #[must_use]
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.0 as usize]
    }

    /// Replaces the main function.
    pub fn set_main(&mut self, main: Function) {
        self.main = main;
    }

    /// The main function.
    #[must_use]
    pub fn main(&self) -> &Function {
        &self.main
    }

    /// The main function, mutably.
    pub fn main_mut(&mut self) -> &mut Function {
        &mut self.main
    }

    /// Base address of each region after sequential, line-aligned layout.
    /// Address 0 is reserved (null); the first region starts at
    /// [`LINE_ALIGN`].
    #[must_use]
    pub fn region_bases(&self) -> Vec<u64> {
        let mut bases = Vec::with_capacity(self.regions.len());
        let mut addr = LINE_ALIGN;
        for r in &self.regions {
            bases.push(addr);
            addr += r.size;
            addr = addr.div_ceil(LINE_ALIGN) * LINE_ALIGN;
        }
        bases
    }

    /// Total bytes of the laid-out address space.
    #[must_use]
    pub fn memory_size(&self) -> u64 {
        match (self.region_bases().last(), self.regions.last()) {
            (Some(base), Some(r)) => (base + r.size).div_ceil(LINE_ALIGN) * LINE_ALIGN,
            _ => LINE_ALIGN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_line_aligned_and_disjoint() {
        let mut p = Program::new("t");
        let _a = p.add_region("a", 40); // straddles 2 lines
        let _b = p.add_region("b", 8);
        let bases = p.region_bases();
        assert_eq!(bases[0] % LINE_ALIGN, 0);
        assert_eq!(bases[1] % LINE_ALIGN, 0);
        assert!(bases[1] >= bases[0] + 40);
        assert!(p.memory_size() >= bases[1] + 8);
        assert!(bases[0] >= LINE_ALIGN, "address 0 is reserved");
    }

    #[test]
    fn f64_init_round_trips() {
        let r = Region::from_f64s("x", &[1.5, -2.0]);
        assert_eq!(r.size(), 16);
        let got = f64::from_le_bytes(r.init()[0..8].try_into().unwrap());
        assert_eq!(got, 1.5);
    }
}
