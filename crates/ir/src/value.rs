//! Run-time values and the reference semantics of pure operations. The
//! functional interpreter and the timing simulator each execute their
//! own decoded form; their tests hold every opcode to [`eval`].

use crate::opcode::Op;
use crate::reg::RegClass;
use std::fmt;

/// A run-time value: a 64-bit integer or a 64-bit float.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer value.
    Int(i64),
    /// Floating-point value.
    Float(f64),
}

impl Value {
    /// The zero value of a register class.
    #[must_use]
    pub fn zero(class: RegClass) -> Self {
        match class {
            RegClass::Int => Value::Int(0),
            RegClass::Float => Value::Float(0.0),
        }
    }

    /// The integer payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is a float.
    #[must_use]
    pub fn as_int(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Float(v) => panic!("expected integer value, found float {v}"),
        }
    }

    /// The float payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is an integer.
    #[must_use]
    pub fn as_float(self) -> f64 {
        match self {
            Value::Float(v) => v,
            Value::Int(v) => panic!("expected float value, found integer {v}"),
        }
    }

    /// The 64-bit memory image of the value.
    #[must_use]
    pub fn to_bits(self) -> u64 {
        match self {
            Value::Int(v) => v as u64,
            Value::Float(v) => v.to_bits(),
        }
    }

    /// Reinterprets a 64-bit memory image in the given class.
    #[must_use]
    pub fn from_bits(class: RegClass, bits: u64) -> Self {
        match class {
            RegClass::Int => Value::Int(bits as i64),
            RegClass::Float => Value::Float(f64::from_bits(bits)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
        }
    }
}

/// Evaluates a pure (non-memory) operation.
///
/// `srcs` are the source register values; `imm` supplies the immediate
/// second operand of integer ALU ops or the [`Op::Li`] payload; `fimm`
/// supplies the [`Op::FLi`] payload.
///
/// # Panics
///
/// Panics if called on a memory opcode ([`Op::Ld`], [`Op::St`],
/// [`Op::LdAddr`]) or with mismatched operand classes.
#[must_use]
pub fn eval(op: Op, srcs: &[Value], imm: Option<i64>, fimm: f64) -> Value {
    use Op::*;
    let int2 = |f: fn(i64, i64) -> i64| {
        let a = srcs[0].as_int();
        let b = match imm {
            Some(v) => v,
            None => srcs[1].as_int(),
        };
        Value::Int(f(a, b))
    };
    let fp2 = |f: fn(f64, f64) -> f64| Value::Float(f(srcs[0].as_float(), srcs[1].as_float()));
    let fcmp =
        |f: fn(f64, f64) -> bool| Value::Int(i64::from(f(srcs[0].as_float(), srcs[1].as_float())));
    match op {
        Add => int2(i64::wrapping_add),
        Sub => int2(i64::wrapping_sub),
        And => int2(|a, b| a & b),
        Or => int2(|a, b| a | b),
        Xor => int2(|a, b| a ^ b),
        Shl => int2(|a, b| a.wrapping_shl(b as u32 & 63)),
        Shr => int2(|a, b| a.wrapping_shr(b as u32 & 63)),
        CmpEq => int2(|a, b| i64::from(a == b)),
        CmpLt => int2(|a, b| i64::from(a < b)),
        CmpLe => int2(|a, b| i64::from(a <= b)),
        Mul => int2(i64::wrapping_mul),
        Mov => srcs[0],
        Li => Value::Int(imm.expect("li without immediate")),
        Cmov | FCmov => {
            if srcs[0].as_int() != 0 {
                srcs[1]
            } else {
                srcs[2]
            }
        }
        FAdd => fp2(|a, b| a + b),
        FSub => fp2(|a, b| a - b),
        FMul => fp2(|a, b| a * b),
        FDivS | FDivD => fp2(|a, b| a / b),
        FCmpEq => fcmp(|a, b| a == b),
        FCmpLt => fcmp(|a, b| a < b),
        FCmpLe => fcmp(|a, b| a <= b),
        FMov => srcs[0],
        FLi => Value::Float(fimm),
        CvtIF => Value::Float(srcs[0].as_int() as f64),
        CvtFI => Value::Int(srcs[0].as_float() as i64),
        FNeg => Value::Float(-srcs[0].as_float()),
        FSqrt => Value::Float(srcs[0].as_float().abs().sqrt()),
        Ld | St | LdAddr => panic!("eval called on memory opcode {op}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_ops() {
        let a = Value::Int(6);
        let b = Value::Int(7);
        assert_eq!(eval(Op::Add, &[a, b], None, 0.0), Value::Int(13));
        assert_eq!(eval(Op::Mul, &[a, b], None, 0.0), Value::Int(42));
        assert_eq!(eval(Op::Add, &[a], Some(10), 0.0), Value::Int(16));
        assert_eq!(eval(Op::CmpLt, &[a, b], None, 0.0), Value::Int(1));
        assert_eq!(eval(Op::Shl, &[a], Some(3), 0.0), Value::Int(48));
    }

    #[test]
    fn fp_ops() {
        let a = Value::Float(1.5);
        let b = Value::Float(0.5);
        assert_eq!(eval(Op::FAdd, &[a, b], None, 0.0), Value::Float(2.0));
        assert_eq!(eval(Op::FDivD, &[a, b], None, 0.0), Value::Float(3.0));
        assert_eq!(eval(Op::FCmpLt, &[b, a], None, 0.0), Value::Int(1));
        assert_eq!(
            eval(Op::FSqrt, &[Value::Float(4.0)], None, 0.0),
            Value::Float(2.0)
        );
    }

    #[test]
    fn selects() {
        let c1 = Value::Int(1);
        let c0 = Value::Int(0);
        let a = Value::Float(1.0);
        let b = Value::Float(2.0);
        assert_eq!(eval(Op::FCmov, &[c1, a, b], None, 0.0), a);
        assert_eq!(eval(Op::FCmov, &[c0, a, b], None, 0.0), b);
    }

    #[test]
    fn conversions_and_bits() {
        assert_eq!(
            eval(Op::CvtIF, &[Value::Int(3)], None, 0.0),
            Value::Float(3.0)
        );
        assert_eq!(
            eval(Op::CvtFI, &[Value::Float(3.9)], None, 0.0),
            Value::Int(3)
        );
        let v = Value::Float(2.5);
        assert_eq!(Value::from_bits(RegClass::Float, v.to_bits()), v);
        let v = Value::Int(-7);
        assert_eq!(Value::from_bits(RegClass::Int, v.to_bits()), v);
    }

    #[test]
    fn wrapping_behaviour() {
        let max = Value::Int(i64::MAX);
        assert_eq!(eval(Op::Add, &[max], Some(1), 0.0), Value::Int(i64::MIN));
    }
}
