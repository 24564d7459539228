//! The row-table binary codec under every byte layout in the workspace:
//! the wire (`amc-rpc`) and the WAL (`amc-wal`), whose rows include the
//! Paxos acceptor's (`amc-paxos`).
//!
//! All integers are little-endian. Enums are a `u8` tag followed by the
//! variant's fields. Vectors and maps are a `u32` count followed by the
//! elements. [`Value`]s reuse the fixed 12-byte layout of
//! [`Value::to_bytes`]. An `Option<T>` is a presence byte, then the `T`
//! if present.
//!
//! Each type's layout is declared exactly once, beside the type:
//! primitives implement [`Wire`] here, every struct is one
//! [`wire_struct!`](crate::wire_struct) table of `field: Type` rows and
//! every enum one [`wire_enum!`](crate::wire_enum) table of
//! `tag => Variant { field: Type }` rows. The writer, the reader, the
//! hostile-count guard and the [`CodecError::BadTag`] label all derive
//! from that one declaration, so a layout that appears in two formats
//! (a [`GlobalTxnId`] inside a wire `Submit` and inside a WAL `Prepare`
//! record) is the same bytes in both.

use crate::error::AmcError;
use crate::ids::{GlobalTxnId, LocalTxnId, ObjectId, SiteId};
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;

/// Why bytes failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes ended before the declared content did.
    Truncated,
    /// An enum tag outside its domain (`what` names the table).
    BadTag(&'static str, u8),
    /// Bytes left over after the value was fully decoded.
    TrailingBytes(usize),
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated"),
            CodecError::BadTag(what, t) => write!(f, "bad {what} tag {t}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
            CodecError::BadUtf8 => write!(f, "string field is not UTF-8"),
        }
    }
}

/// On disk an undecodable record is stable-storage corruption.
impl From<CodecError> for AmcError {
    fn from(e: CodecError) -> Self {
        AmcError::Corruption(format!("undecodable record: {e}"))
    }
}

/// Append-only output buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }
    /// An empty writer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }
    /// Append one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Append a `u32` (counts and length fields).
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
    /// Append raw bytes.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
    /// Everything written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
    /// Overwrite the `u32` at byte offset `at` — a length header known
    /// only once the body is written.
    #[inline]
    pub fn set_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }
    /// Overwrite the `u64` at byte offset `at` — a checksum header known
    /// only once the body is written.
    #[inline]
    pub fn set_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }
    /// The finished bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over encoded bytes; every read is bounds-checked.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }
    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    /// An element count. Every element occupies at least one byte, so a
    /// count beyond what the input still carries is hostile: reject it
    /// before allocating for it.
    #[inline]
    pub fn count(&mut self) -> Result<usize, CodecError> {
        let n = u32::get(self)? as usize;
        if n > self.remaining() {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }
    /// Fail unless every byte was consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }
}

/// The byte layout of one type. Each type's layout is declared exactly
/// once — a primitive impl below or a row table beside the type — and the
/// writer and the reader are both derived from that one declaration.
pub trait Wire: Sized {
    /// `(tag, variant)` per table row, for the table-completeness test.
    const ROWS: &'static [(u8, &'static str)] = &[];
    /// Append `self`.
    fn put(&self, w: &mut Writer);
    /// Read one `Self`.
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// `value` as standalone bytes.
pub fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.put(&mut w);
    w.into_bytes()
}

/// Decode exactly one `T` from `bytes`; leftover bytes are an error.
pub fn decode<T: Wire>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(bytes);
    let value = T::get(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Integers travel little-endian.
macro_rules! wire_int {
    ($($int:ty),*) => {$(
        impl Wire for $int {
            #[inline]
            fn put(&self, w: &mut Writer) {
                w.bytes(&self.to_le_bytes());
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(<$int>::from_le_bytes(r.array()?))
            }
        }
    )*};
}
wire_int!(u8, u32, u64, i64);

impl Wire for bool {
    #[inline]
    fn put(&self, w: &mut Writer) {
        w.u8(u8::from(*self));
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(u8::get(r)? != 0)
    }
}

impl Wire for String {
    fn put(&self, w: &mut Writer) {
        w.u32(self.len() as u32);
        w.bytes(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = u32::get(r)? as usize;
        String::from_utf8(r.take(len)?.to_vec()).map_err(|_| CodecError::BadUtf8)
    }
}

impl Wire for Value {
    #[inline]
    fn put(&self, w: &mut Writer) {
        w.bytes(&self.to_bytes());
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Value::from_bytes(&r.array()?))
    }
}

/// Ids travel as their raw integer.
macro_rules! wire_id {
    ($($id:ident: $raw:ty),*) => {$(
        impl Wire for $id {
            #[inline]
            fn put(&self, w: &mut Writer) {
                self.raw().put(w);
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok($id::new(<$raw as Wire>::get(r)?))
            }
        }
    )*};
}
wire_id!(ObjectId: u64, GlobalTxnId: u64, LocalTxnId: u64, SiteId: u32);

/// A tuple is its fields, in order.
macro_rules! wire_tuple {
    ($($name:ident),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            #[inline]
            #[allow(non_snake_case)]
            fn put(&self, w: &mut Writer) {
                let ($($name,)+) = self;
                $($name.put(w);)+
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(($($name::get(r)?,)+))
            }
        }
    };
}
wire_tuple!(A, B);
wire_tuple!(A, B, C);

/// A `u32` count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn put(&self, w: &mut Writer) {
        w.u32(self.len() as u32);
        for x in self {
            x.put(w);
        }
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.count()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

/// A `u32` count, then the `(key, value)` pairs in key order.
impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, w: &mut Writer) {
        w.u32(self.len() as u32);
        for (k, v) in self {
            k.put(w);
            v.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        (0..r.count()?).map(|_| <(K, V) as Wire>::get(r)).collect()
    }
}

/// A presence byte, then the value if present.
impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn put(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(x) => {
                w.u8(1);
                x.put(w);
            }
        }
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            t => Err(CodecError::BadTag("option", t)),
        }
    }
}

/// A struct's fields, in layout order. `wire_struct!(+= Stats { .. })`
/// also sums a counter table row by row (`AddAssign`): a counter without
/// a row fails to compile, in `get` and in the sum alike.
#[macro_export]
macro_rules! wire_struct {
    (+= $ty:ident { $($field:ident: $fty:ty),* $(,)? }) => {
        $crate::wire_struct!($ty { $($field: $fty),* });
        impl ::std::ops::AddAssign for $ty {
            #[inline]
            fn add_assign(&mut self, other: Self) {
                let $ty { $($field),* } = other;
                $(self.$field += $field;)*
            }
        }
    };
    ($ty:ident { $($field:ident: $fty:ty),* $(,)? }) => {
        impl $crate::codec::Wire for $ty {
            #[inline]
            fn put(&self, w: &mut $crate::codec::Writer) {
                $($crate::codec::Wire::put(&self.$field, w);)*
            }
            #[inline]
            fn get(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok($ty { $($field: <$fty as $crate::codec::Wire>::get(r)?),* })
            }
        }
    };
}

/// An enum's rows: `tag => Variant`, `tag => Variant(name: Type)` or
/// `tag => Variant { field: Type, .. }`. Encoded, a value is its `u8`
/// tag followed by its fields in the order the row lists them (which is
/// the layout order, not necessarily the Rust declaration order). `$what`
/// names the enum in [`CodecError::BadTag`].
///
/// Adding a variant to one of these enums without a row fails to
/// compile (`put`'s match is exhaustive). To extend a layout without
/// reshaping it, append a row with the next unused tag and pin it in the
/// completeness test; never renumber or reorder an existing row.
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident, $what:literal {
        $($tag:literal => $variant:ident
            $(($x:ident: $xty:ty))?
            $({ $($field:ident: $fty:ty),* $(,)? })?
        ),* $(,)?
    }) => {
        impl $crate::codec::Wire for $ty {
            const ROWS: &'static [(u8, &'static str)] = &[$(($tag, stringify!($variant))),*];
            #[inline]
            fn put(&self, w: &mut $crate::codec::Writer) {
                match self {
                    $($ty::$variant $(($x))? $({ $($field),* })? => {
                        w.u8($tag);
                        $($crate::codec::Wire::put($x, w);)?
                        $($($crate::codec::Wire::put($field, w);)*)?
                    })*
                }
            }
            #[inline]
            fn get(
                r: &mut $crate::codec::Reader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok(match <u8 as $crate::codec::Wire>::get(r)? {
                    $($tag => $ty::$variant
                        $((<$xty as $crate::codec::Wire>::get(r)?))?
                        $({ $($field: <$fty as $crate::codec::Wire>::get(r)?),* })?,)*
                    t => return Err($crate::codec::CodecError::BadTag($what, t)),
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostile_count_is_rejected_before_allocating() {
        let mut w = Writer::new();
        w.u32(u32::MAX);
        w.u8(7);
        assert_eq!(decode::<Vec<u64>>(w.as_bytes()), Err(CodecError::Truncated));
    }

    #[test]
    fn option_is_a_presence_byte_then_the_value() {
        assert_eq!(encode(&None::<u64>), [0]);
        assert_eq!(encode(&Some(5u32)), [1, 5, 0, 0, 0]);
        assert_eq!(decode::<Option<u32>>(&[1, 5, 0, 0, 0]), Ok(Some(5)));
        assert_eq!(
            decode::<Option<u32>>(&[2]),
            Err(CodecError::BadTag("option", 2))
        );
    }

    #[test]
    fn decode_rejects_trailing_bytes_and_headers_patch_in_place() {
        assert_eq!(decode::<u8>(&[1, 2]), Err(CodecError::TrailingBytes(1)));
        let mut w = Writer::new();
        w.u32(0);
        w.u8(9);
        w.set_u32(0, 7);
        assert_eq!(w.into_bytes(), [7, 0, 0, 0, 9]);
    }
}
