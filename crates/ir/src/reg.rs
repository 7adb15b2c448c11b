//! Virtual and physical registers.

use std::fmt;

/// The register class an operand lives in.
///
/// The Alpha has separate integer and floating-point register files; the
/// scheduler's register-pressure heuristic and the register allocator both
/// treat the classes independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegClass {
    /// 64-bit integer register (addresses, counters, conditions).
    Int,
    /// 64-bit floating-point register.
    Float,
}

impl RegClass {
    /// All register classes, in a fixed order.
    pub const ALL: [RegClass; 2] = [RegClass::Int, RegClass::Float];

    /// A short lowercase name used by the printer (`r` / `f`).
    #[must_use]
    pub fn prefix(self) -> char {
        match self {
            RegClass::Int => 'r',
            RegClass::Float => 'f',
        }
    }
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegClass::Int => f.write_str("int"),
            RegClass::Float => f.write_str("float"),
        }
    }
}

/// A register operand: a class plus an index.
///
/// Indices `0..Reg::NUM_PHYS` denote *physical* registers (the state the
/// register allocator rewrites into); indices at or above
/// [`Reg::FIRST_VIRTUAL`] denote *virtual* registers as produced by the
/// frontend and the optimizer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg {
    class: RegClass,
    index: u32,
}

impl Reg {
    /// Number of architectural registers per class (Alpha: r0–r30 usable;
    /// r31/f31 read as zero and are not modeled).
    pub const NUM_PHYS: u32 = 31;

    /// First index used for virtual registers.
    pub const FIRST_VIRTUAL: u32 = 1 << 16;

    /// Creates a virtual register. Used by [`crate::Function::new_reg`];
    /// prefer that method so indices stay unique.
    #[must_use]
    pub fn virt(class: RegClass, n: u32) -> Self {
        Reg {
            class,
            index: Self::FIRST_VIRTUAL + n,
        }
    }

    /// Creates a physical register.
    ///
    /// # Panics
    ///
    /// Panics if `n >= Reg::NUM_PHYS`.
    #[must_use]
    pub fn phys(class: RegClass, n: u32) -> Self {
        assert!(
            n < Self::NUM_PHYS,
            "physical register index {n} out of range"
        );
        Reg { class, index: n }
    }

    /// The register's class.
    #[must_use]
    pub fn class(self) -> RegClass {
        self.class
    }

    /// The raw index (virtual indices include the [`Reg::FIRST_VIRTUAL`]
    /// offset).
    #[must_use]
    pub fn index(self) -> u32 {
        self.index
    }

    /// `true` if this is a physical register.
    #[must_use]
    pub fn is_phys(self) -> bool {
        self.index < Self::FIRST_VIRTUAL
    }

    /// The virtual-register ordinal, if this register is virtual.
    #[must_use]
    pub fn virt_index(self) -> Option<u32> {
        self.index.checked_sub(Self::FIRST_VIRTUAL)
    }

    /// Dense index of the register within its class: the physical
    /// registers first, then the virtual ones in order.
    #[must_use]
    pub fn slot(self) -> u32 {
        match self.virt_index() {
            Some(v) => Self::NUM_PHYS + v,
            None => self.index,
        }
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(v) = self.virt_index() {
            write!(f, "%{}{}", self.class.prefix(), v)
        } else {
            write!(f, "${}{}", self.class.prefix(), self.index)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_and_physical_are_distinct() {
        let v = Reg::virt(RegClass::Int, 0);
        let p = Reg::phys(RegClass::Int, 0);
        assert!(!v.is_phys());
        assert!(p.is_phys());
        assert_ne!(v, p);
        assert_eq!(v.virt_index(), Some(0));
        assert_eq!(p.virt_index(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Reg::virt(RegClass::Float, 3).to_string(), "%f3");
        assert_eq!(Reg::phys(RegClass::Int, 7).to_string(), "$r7");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn phys_out_of_range_panics() {
        let _ = Reg::phys(RegClass::Int, Reg::NUM_PHYS);
    }

    #[test]
    fn classes_differ() {
        assert_ne!(Reg::virt(RegClass::Int, 1), Reg::virt(RegClass::Float, 1));
    }
}
