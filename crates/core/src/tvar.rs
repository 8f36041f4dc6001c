//! Typed convenience layer over raw heap words: [`TVar`] (one cell) and
//! [`TArray`] (a contiguous block), parameterised by a [`Word`] codec.
//!
//! These are zero-cost wrappers — a `TVar<T>` is just an [`Addr`] plus a
//! phantom type; the STM algorithms below never see types, exactly as in
//! the paper's word-granular model.

use crate::error::Abort;
use crate::heap::Addr;
use crate::ops::CmpOp;
use crate::stm::{Stm, Tx};
use crate::value::Word;
use std::marker::PhantomData;

/// A typed transactional variable occupying one heap word.
pub struct TVar<T: Word> {
    addr: Addr,
    _t: PhantomData<T>,
}

// Manual impls: `TVar` is Copy regardless of `T` (it is only an address).
impl<T: Word> Clone for TVar<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Word> Copy for TVar<T> {}

impl<T: Word> TVar<T> {
    /// Allocate a new variable on `stm`'s heap with initial value `init`.
    pub fn new(stm: &Stm, init: T) -> TVar<T> {
        TVar {
            addr: stm.alloc_cell(init),
            _t: PhantomData,
        }
    }

    /// Wrap an existing address (the caller asserts the word holds a
    /// `T`-encoded value).
    pub fn from_addr(addr: Addr) -> TVar<T> {
        TVar {
            addr,
            _t: PhantomData,
        }
    }

    /// The underlying address.
    #[inline]
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Transactional read.
    #[inline]
    pub fn read(&self, tx: &mut Tx<'_>) -> Result<T, Abort> {
        Ok(T::from_word(tx.read(self.addr)?))
    }

    /// Transactional write.
    #[inline]
    pub fn write(&self, tx: &mut Tx<'_>, v: T) -> Result<(), Abort> {
        tx.write(self.addr, v.to_word())
    }

    /// Semantic comparison against a constant.
    #[inline]
    pub fn cmp(&self, tx: &mut Tx<'_>, op: CmpOp, v: T) -> Result<bool, Abort> {
        tx.cmp(self.addr, op, v.to_word())
    }

    /// Semantic comparison against another variable of the same type.
    #[inline]
    pub fn cmp_var(&self, tx: &mut Tx<'_>, op: CmpOp, other: TVar<T>) -> Result<bool, Abort> {
        tx.cmp_addr(self.addr, op, other.addr)
    }

    /// Semantic increment by a word-encoded delta.
    ///
    /// Valid only for codecs whose addition is word addition (all the
    /// integral codecs and [`crate::Fx32`]).
    #[inline]
    pub fn inc(&self, tx: &mut Tx<'_>, delta: T) -> Result<(), Abort> {
        tx.inc(self.addr, delta.to_word())
    }

    /// Non-transactional read (setup / assertions).
    #[inline]
    pub fn read_now(&self, stm: &Stm) -> T {
        T::from_word(stm.read_now(self.addr))
    }

    /// Non-transactional write (setup only).
    #[inline]
    pub fn write_now(&self, stm: &Stm, v: T) {
        stm.write_now(self.addr, v.to_word());
    }
}

/// A typed block of transactional words: contiguous by default, or
/// line-striped (one cache line per element) via [`TArray::new_striped`].
pub struct TArray<T: Word> {
    base: Addr,
    len: usize,
    /// Word distance between consecutive elements (1 = contiguous,
    /// [`crate::heap::LINE_WORDS`] = one cache line — and therefore one
    /// commit-clock shard — per element).
    stride: usize,
    _t: PhantomData<T>,
}

impl<T: Word> Clone for TArray<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Word> Copy for TArray<T> {}

impl<T: Word> TArray<T> {
    /// Allocate an array of `len` elements, all `init`.
    pub fn new(stm: &Stm, len: usize, init: T) -> TArray<T> {
        TArray {
            base: stm.alloc_array(len, init),
            len,
            stride: 1,
            _t: PhantomData,
        }
    }

    /// Allocate a line-striped array: each element sits on its own cache
    /// line, so no two elements share a line (no false sharing between
    /// them) and, under a sharded commit clock, no two elements share a
    /// clock-shard word gratuitously. Costs
    /// `len × `[`crate::heap::LINE_WORDS`] heap words instead of `len`.
    pub fn new_striped(stm: &Stm, len: usize, init: T) -> TArray<T> {
        let stride = crate::heap::LINE_WORDS;
        let base = stm.alloc_padded(len.max(1) * stride);
        stm.heap().init_block(base, len, stride, init.to_word());
        TArray {
            base,
            len,
            stride,
            _t: PhantomData,
        }
    }

    /// Word distance between consecutive elements.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Address of element `i` (bounds-checked).
    #[inline]
    pub fn addr(&self, i: usize) -> Addr {
        assert!(
            i < self.len,
            "TArray index {i} out of bounds ({})",
            self.len
        );
        self.base.offset(i * self.stride)
    }

    /// The element as a [`TVar`].
    #[inline]
    pub fn at(&self, i: usize) -> TVar<T> {
        TVar::from_addr(self.addr(i))
    }

    /// Transactional element read.
    #[inline]
    pub fn read(&self, tx: &mut Tx<'_>, i: usize) -> Result<T, Abort> {
        Ok(T::from_word(tx.read(self.addr(i))?))
    }

    /// Transactional element write.
    #[inline]
    pub fn write(&self, tx: &mut Tx<'_>, i: usize, v: T) -> Result<(), Abort> {
        tx.write(self.addr(i), v.to_word())
    }

    /// Semantic element comparison.
    #[inline]
    pub fn cmp(&self, tx: &mut Tx<'_>, i: usize, op: CmpOp, v: T) -> Result<bool, Abort> {
        tx.cmp(self.addr(i), op, v.to_word())
    }

    /// Semantic element increment.
    #[inline]
    pub fn inc(&self, tx: &mut Tx<'_>, i: usize, delta: T) -> Result<(), Abort> {
        tx.inc(self.addr(i), delta.to_word())
    }

    /// Non-transactional element read.
    #[inline]
    pub fn read_now(&self, stm: &Stm, i: usize) -> T {
        T::from_word(stm.read_now(self.addr(i)))
    }

    /// Non-transactional element write.
    #[inline]
    pub fn write_now(&self, stm: &Stm, i: usize, v: T) {
        stm.write_now(self.addr(i), v.to_word());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, StmConfig};
    use crate::value::Fx32;

    fn stm() -> Stm {
        Stm::new(StmConfig::new(Algorithm::SNOrec).heap_words(1 << 10))
    }

    #[test]
    fn typed_roundtrip() {
        let s = stm();
        let v = TVar::new(&s, -9i64);
        assert_eq!(v.read_now(&s), -9);
        s.atomic(|tx| {
            assert_eq!(v.read(tx)?, -9);
            v.write(tx, 33)
        });
        assert_eq!(v.read_now(&s), 33);
    }

    #[test]
    fn bool_var() {
        let s = stm();
        let v = TVar::new(&s, false);
        s.atomic(|tx| v.write(tx, true));
        assert!(v.read_now(&s));
    }

    #[test]
    fn fx32_inc_is_exact() {
        let s = stm();
        let v = TVar::new(&s, Fx32::from_f64(1.5));
        s.atomic(|tx| v.inc(tx, Fx32::from_f64(0.25)));
        assert!((v.read_now(&s).to_f64() - 1.75).abs() < 1e-9);
    }

    #[test]
    fn array_indexing_and_ops() {
        let s = stm();
        let arr = TArray::new(&s, 8, 0i64);
        s.atomic(|tx| {
            for i in 0..arr.len() {
                arr.write(tx, i, i as i64)?;
            }
            Ok(())
        });
        assert_eq!(arr.read_now(&s, 5), 5);
        let found = s.atomic(|tx| {
            let mut hits = 0;
            for i in 0..arr.len() {
                if arr.cmp(tx, i, CmpOp::Gt, 3)? {
                    hits += 1;
                }
            }
            Ok(hits)
        });
        assert_eq!(found, 4);
    }

    #[test]
    fn striped_array_spaces_elements_one_line_apart() {
        let s = stm();
        let arr = TArray::new_striped(&s, 4, 7i64);
        assert_eq!(arr.stride(), crate::heap::LINE_WORDS);
        for i in 0..arr.len() {
            assert_eq!(arr.read_now(&s, i), 7, "init reaches element {i}");
            assert_eq!(
                arr.addr(i).index() % crate::heap::LINE_WORDS,
                0,
                "element {i} must start a line"
            );
        }
        assert_eq!(
            arr.addr(1).index() - arr.addr(0).index(),
            crate::heap::LINE_WORDS
        );
        s.atomic(|tx| arr.inc(tx, 2, 5));
        assert_eq!(arr.read_now(&s, 2), 12);
        assert_eq!(arr.read_now(&s, 1), 7, "neighbours untouched");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn array_bounds_checked() {
        let s = stm();
        let arr = TArray::new(&s, 2, 0i64);
        let _ = arr.addr(2);
    }

    #[test]
    fn cmp_var_pair() {
        let s = stm();
        let a = TVar::new(&s, 3i64);
        let b = TVar::new(&s, 7i64);
        let lt = s.atomic(|tx| a.cmp_var(tx, CmpOp::Lt, b));
        assert!(lt);
    }
}
