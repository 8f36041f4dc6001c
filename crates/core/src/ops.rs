//! Semantic comparison operators (the paper's Table 1, conditional family).
//!
//! A `cmp` records *which relation held*, not *which value was read*. The
//! recorded entry is the operator itself when the comparison was true, or
//! its [inverse](CmpOp::inverse) when it was false, so that validation can
//! simply re-evaluate "does the recorded relation still hold?" (Algorithm 6
//! line 5, Algorithm 7 line 63).

/// The six TM-friendly conditional operators: `TM_EQ`, `TM_NEQ`, `TM_GT`,
/// `TM_GTE`, `TM_LT`, `TM_LTE`.
///
/// Operands are compared with signed 64-bit semantics.
///
/// An operator *is* the set of orderings it accepts: its discriminant is
/// a three-bit mask, bit 0 for `lhs < rhs`, bit 1 for `lhs == rhs`, bit 2
/// for `lhs > rhs`. Evaluation tests one bit, negation complements the
/// mask and mirroring exchanges its outer bits — straight-line code on
/// the barriers' hot path, where a `match` compiles to a jump table.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
#[repr(u8)]
pub enum CmpOp {
    /// `TM_EQ` — equals.
    Eq = 0b010,
    /// `TM_NEQ` — not equals.
    Neq = 0b101,
    /// `TM_GT` — strictly greater than.
    Gt = 0b100,
    /// `TM_GTE` — greater than or equals.
    Gte = 0b110,
    /// `TM_LT` — strictly less than.
    Lt = 0b001,
    /// `TM_LTE` — less than or equals.
    Lte = 0b011,
}

/// The operator of each mask. The six operators take exactly the masks
/// 1 to 6; 0 (accepts nothing) and 7 (accepts everything) are no
/// operator's, and their slots — there so that a three-bit index needs no
/// bounds check — are never read.
const BY_MASK: [CmpOp; 8] = [
    CmpOp::Eq,
    CmpOp::Lt,
    CmpOp::Eq,
    CmpOp::Lte,
    CmpOp::Gt,
    CmpOp::Neq,
    CmpOp::Gte,
    CmpOp::Eq,
];

/// The mirror of each mask: bits 0 and 2 exchanged.
const MIRRORED: [CmpOp; 8] = [
    CmpOp::Eq,
    CmpOp::Gt,
    CmpOp::Eq,
    CmpOp::Gte,
    CmpOp::Lt,
    CmpOp::Neq,
    CmpOp::Lte,
    CmpOp::Eq,
];

impl CmpOp {
    /// Evaluate `lhs OP rhs`.
    #[inline]
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        // 0 = less, 1 = equal, 2 = greater: the mask bit to test.
        let ordering = (lhs >= rhs) as u8 + (lhs > rhs) as u8;
        (self as u8 >> ordering) & 1 != 0
    }

    /// The logical negation of the operator: `!(a OP b) == a OP.inverse() b`.
    ///
    /// Used when recording a comparison whose outcome was `false`
    /// (Algorithm 6 line 34: `reads.append(addr, operand, result ? OP :
    /// Inverse(OP))`).
    #[inline]
    pub fn inverse(self) -> CmpOp {
        self.recorded(false)
    }

    /// The relation a comparison records: the operator itself when it
    /// came out true, its inverse when false — either way one that held.
    #[inline]
    pub(crate) fn recorded(self, outcome: bool) -> CmpOp {
        // Complement the mask of a false outcome; no branch either way.
        let complement = 0b111 * !outcome as u8;
        BY_MASK[(self as u8 ^ complement) as usize & 0b111]
    }

    /// The mirrored operator: `a OP b == b OP.swap() a`.
    ///
    /// Needed by the address–address form when only the right-hand operand
    /// is pinned by the transaction's own write-set.
    #[inline]
    pub fn swap(self) -> CmpOp {
        MIRRORED[self as usize & 0b111]
    }

    /// All six operators, for tests and exhaustive sweeps.
    pub const ALL: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Neq,
        CmpOp::Gt,
        CmpOp::Gte,
        CmpOp::Lt,
        CmpOp::Lte,
    ];

    /// Short lowercase mnemonic (`eq`, `neq`, `gt`, `gte`, `lt`, `lte`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Neq => "neq",
            CmpOp::Gt => "gt",
            CmpOp::Gte => "gte",
            CmpOp::Lt => "lt",
            CmpOp::Lte => "lte",
        }
    }
}

impl std::fmt::Display for CmpOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "==",
            CmpOp::Neq => "!=",
            CmpOp::Gt => ">",
            CmpOp::Gte => ">=",
            CmpOp::Lt => "<",
            CmpOp::Lte => "<=",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLES: [i64; 7] = [i64::MIN, -7, -1, 0, 1, 42, i64::MAX];

    /// The operators as the paper's Table 1 spells them: what the mask
    /// encoding must agree with.
    fn eval_by_match(op: CmpOp, lhs: i64, rhs: i64) -> bool {
        match op {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Neq => lhs != rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Gte => lhs >= rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Lte => lhs <= rhs,
        }
    }

    fn inverse_by_match(op: CmpOp) -> CmpOp {
        match op {
            CmpOp::Eq => CmpOp::Neq,
            CmpOp::Neq => CmpOp::Eq,
            CmpOp::Gt => CmpOp::Lte,
            CmpOp::Gte => CmpOp::Lt,
            CmpOp::Lt => CmpOp::Gte,
            CmpOp::Lte => CmpOp::Gt,
        }
    }

    fn swap_by_match(op: CmpOp) -> CmpOp {
        match op {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Neq => CmpOp::Neq,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Gte => CmpOp::Lte,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Lte => CmpOp::Gte,
        }
    }

    #[test]
    fn mask_encoding_agrees_with_the_match_reference() {
        for op in CmpOp::ALL {
            assert_eq!(op.inverse(), inverse_by_match(op), "inverse of {op}");
            assert_eq!(op.swap(), swap_by_match(op), "swap of {op}");
            assert_eq!(op.recorded(true), op);
            assert_eq!(op.recorded(false), inverse_by_match(op));
            for &a in &SAMPLES {
                for &b in &SAMPLES {
                    assert_eq!(op.eval(a, b), eval_by_match(op, a, b), "{a} {op} {b}");
                }
            }
        }
    }

    #[test]
    fn inverse_is_logical_negation() {
        for op in CmpOp::ALL {
            for &a in &SAMPLES {
                for &b in &SAMPLES {
                    assert_eq!(
                        op.eval(a, b),
                        !op.inverse().eval(a, b),
                        "{a} {op} {b} vs inverse"
                    );
                }
            }
        }
    }

    #[test]
    fn inverse_is_involutive() {
        for op in CmpOp::ALL {
            assert_eq!(op.inverse().inverse(), op);
        }
    }

    #[test]
    fn swap_mirrors_operands() {
        for op in CmpOp::ALL {
            for &a in &SAMPLES {
                for &b in &SAMPLES {
                    assert_eq!(op.eval(a, b), op.swap().eval(b, a), "{a} {op} {b} vs swap");
                }
            }
        }
    }

    #[test]
    fn signed_semantics() {
        assert!(CmpOp::Gt.eval(0, -1));
        assert!(CmpOp::Lt.eval(i64::MIN, 0));
        assert!(!CmpOp::Gt.eval(-1, 0));
    }
}
