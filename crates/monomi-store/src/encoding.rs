//! Column encodings for on-disk segments.
//!
//! Every encoding round-trips values **exactly** — variant and bit pattern
//! included (`Float` NaN payloads, `-0.0`, empty strings, max-width
//! ciphertexts) — because the disk backend must return byte-identical results
//! to the in-memory backend. The encoder inspects a column's values and picks
//! the cheapest encoding they admit:
//!
//! * [`Int64`](Encoding::Int64) / [`Date32`](Encoding::Date32) /
//!   [`Float64`](Encoding::Float64) — fixed-width little-endian payloads for
//!   homogeneous numeric columns (floats are stored by bit pattern);
//! * [`DictStr`](Encoding::DictStr) / [`DictBytes`](Encoding::DictBytes) —
//!   dictionary encoding for strings and DET ciphertexts, which repeat
//!   (TPC-H categoricals, deterministic encryptions of them);
//! * [`StrRaw`](Encoding::StrRaw) / [`BytesRaw`](Encoding::BytesRaw) — raw
//!   length-prefixed payloads for high-cardinality strings and Paillier/RND
//!   ciphertexts, which never repeat;
//! * [`Generic`](Encoding::Generic) — a tagged per-value fallback for mixed
//!   columns (`Int` rows in a `Float` column, `List` values in a `Bytes`
//!   column, all-NULL columns).
//!
//! NULLs live in a presence bitmap (bit set ⇒ non-null); only non-null values
//! carry payload bytes. The `Generic` encoding tags NULL inline instead.

use crate::value::Value;
use crate::StoreError;

/// Encoding tag of one stored column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Encoding {
    /// Tagged per-value fallback (handles every [`Value`], NULL included).
    Generic = 0,
    /// All non-null values are `Value::Int`: 8-byte little-endian.
    Int64 = 1,
    /// All non-null values are `Value::Date`: 4-byte little-endian.
    Date32 = 2,
    /// All non-null values are `Value::Float`: 8-byte IEEE-754 bit patterns.
    Float64 = 3,
    /// All non-null values are `Value::Str`: length-prefixed UTF-8.
    StrRaw = 4,
    /// All non-null values are `Value::Bytes`: length-prefixed raw bytes.
    BytesRaw = 5,
    /// `Value::Str` through a dictionary of distinct strings + u32 codes.
    DictStr = 6,
    /// `Value::Bytes` through a dictionary of distinct blobs + u32 codes.
    DictBytes = 7,
}

impl Encoding {
    fn from_tag(tag: u8) -> Result<Encoding, StoreError> {
        Ok(match tag {
            0 => Encoding::Generic,
            1 => Encoding::Int64,
            2 => Encoding::Date32,
            3 => Encoding::Float64,
            4 => Encoding::StrRaw,
            5 => Encoding::BytesRaw,
            6 => Encoding::DictStr,
            7 => Encoding::DictBytes,
            other => return Err(StoreError::new(format!("unknown encoding tag {other}"))),
        })
    }
}

/// Value tags for the `Generic` encoding (and zone-map min/max values in the
/// manifest). Stable on-disk format — do not renumber.
const VT_NULL: u8 = 0;
const VT_INT: u8 = 1;
const VT_FLOAT: u8 = 2;
const VT_STR: u8 = 3;
const VT_DATE: u8 = 4;
const VT_BYTES: u8 = 5;
const VT_LIST: u8 = 6;

/// A byte reader with bounds-checked primitives; every decode error surfaces
/// as a [`StoreError`] instead of a panic so corrupted files fail gracefully
/// (the checksum normally catches corruption first).
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| StoreError::new("truncated payload"))?;
        let out = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| StoreError::new("truncated payload"))?;
        self.pos = end;
        Ok(out)
    }

    /// A fixed-size array off the front of the buffer. `take(N)` returns
    /// exactly `N` bytes, but the type system can't see that — convert
    /// fallibly rather than unwrap.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        self.take(N)?
            .try_into()
            .map_err(|_| StoreError::new("truncated payload"))
    }

    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.array::<1>()?[0])
    }

    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub fn i32(&mut self) -> Result<i32, StoreError> {
        Ok(i32::from_le_bytes(self.array()?))
    }

    pub fn i64(&mut self) -> Result<i64, StoreError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// A `u32`-length-prefixed byte run.
    pub fn blob(&mut self) -> Result<&'a [u8], StoreError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, StoreError> {
        let bytes = self.blob()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| StoreError::new("invalid UTF-8 in payload"))
    }
}

pub fn put_blob(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Serializes one value in the tagged generic format (recursive for lists).
pub fn write_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(VT_NULL),
        Value::Int(i) => {
            out.push(VT_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(VT_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(VT_STR);
            put_blob(out, s.as_bytes());
        }
        Value::Date(d) => {
            out.push(VT_DATE);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Value::Bytes(b) => {
            out.push(VT_BYTES);
            put_blob(out, b);
        }
        Value::List(vs) => {
            out.push(VT_LIST);
            out.extend_from_slice(&(vs.len() as u32).to_le_bytes());
            for item in vs {
                write_value(out, item);
            }
        }
    }
}

/// Inverse of [`write_value`].
pub fn read_value(r: &mut Reader<'_>) -> Result<Value, StoreError> {
    Ok(match r.u8()? {
        VT_NULL => Value::Null,
        VT_INT => Value::Int(r.i64()?),
        VT_FLOAT => Value::Float(f64::from_bits(r.u64()?)),
        VT_STR => Value::Str(r.string()?),
        VT_DATE => Value::Date(r.i32()?),
        VT_BYTES => Value::Bytes(r.blob()?.to_vec()),
        VT_LIST => {
            let n = r.u32()? as usize;
            // Every item takes at least its tag byte, so a count beyond the
            // bytes left is corrupt: never allocate for it up front.
            let mut items = Vec::with_capacity(n.min(r.buf.len().saturating_sub(r.pos)));
            for _ in 0..n {
                items.push(read_value(r)?);
            }
            Value::List(items)
        }
        other => return Err(StoreError::new(format!("unknown value tag {other}"))),
    })
}

/// The presence bitmap of a column: bit set ⇒ non-null.
fn presence_bitmap(values: &[Value]) -> Vec<u8> {
    let mut bits = vec![0u8; values.len().div_ceil(8)];
    for (i, v) in values.iter().enumerate() {
        if !v.is_null() {
            // monomi-lint: allow(panic-freedom): encode path over in-memory values — i < values.len() makes i/8 < bits.len() by construction
            bits[i / 8] |= 1 << (i % 8);
        }
    }
    bits
}

/// Reads bit `i` of a presence bitmap; out-of-range bits (a short bitmap in
/// a corrupt payload) read as unset, i.e. null.
fn bit_set(bits: &[u8], i: usize) -> bool {
    bits.get(i / 8).is_some_and(|b| b & (1 << (i % 8)) != 0)
}

/// What one column's values look like, for encoding selection.
enum Shape {
    AllInt,
    AllFloat,
    AllDate,
    AllStr,
    AllBytes,
    Mixed,
}

fn shape_of(values: &[Value]) -> Shape {
    let mut shape: Option<Shape> = None;
    for v in values {
        let s = match v {
            Value::Null => continue,
            Value::Int(_) => Shape::AllInt,
            Value::Float(_) => Shape::AllFloat,
            Value::Date(_) => Shape::AllDate,
            Value::Str(_) => Shape::AllStr,
            Value::Bytes(_) => Shape::AllBytes,
            Value::List(_) => return Shape::Mixed,
        };
        match &shape {
            None => shape = Some(s),
            Some(prev) if std::mem::discriminant(prev) == std::mem::discriminant(&s) => {}
            Some(_) => return Shape::Mixed,
        }
    }
    // An all-NULL column has no evidence either way; Generic handles it.
    shape.unwrap_or(Shape::Mixed)
}

/// Dictionary codes are u32, so a dictionary is only considered below this
/// many distinct entries (DET ciphertexts of TPC-H categoricals sit far
/// below it).
const DICT_MAX_ENTRIES: usize = 1 << 16;

/// Builds the dictionary layout for a var-length column if it is smaller than
/// the raw layout: `(dict entries in first-appearance order, code per
/// non-null value)`.
fn try_dictionary<'a>(blobs: &[&'a [u8]]) -> Option<(Vec<&'a [u8]>, Vec<u32>)> {
    use std::collections::HashMap;
    let mut index: HashMap<&[u8], u32> = HashMap::new();
    let mut entries: Vec<&[u8]> = Vec::new();
    let mut codes = Vec::with_capacity(blobs.len());
    for &b in blobs {
        let code = *index.entry(b).or_insert_with(|| {
            entries.push(b);
            entries.len() as u32 - 1
        });
        if entries.len() > DICT_MAX_ENTRIES {
            return None;
        }
        codes.push(code);
    }
    let raw_bytes: usize = blobs.iter().map(|b| 4 + b.len()).sum();
    let dict_bytes: usize =
        4 + entries.iter().map(|b| 4 + b.len()).sum::<usize>() + 4 * codes.len();
    if dict_bytes < raw_bytes {
        Some((entries, codes))
    } else {
        None
    }
}

/// Encodes one column. The output is self-describing: `[tag][row_count u32]`
/// followed by the encoding-specific payload.
pub fn encode_column(values: &[Value]) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(0u8); // encoding tag, patched below
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());

    let shape = shape_of(values);
    let encoding = match shape {
        Shape::AllInt => {
            out.extend_from_slice(&presence_bitmap(values));
            for v in values {
                if let Value::Int(i) = v {
                    out.extend_from_slice(&i.to_le_bytes());
                }
            }
            Encoding::Int64
        }
        Shape::AllDate => {
            out.extend_from_slice(&presence_bitmap(values));
            for v in values {
                if let Value::Date(d) = v {
                    out.extend_from_slice(&d.to_le_bytes());
                }
            }
            Encoding::Date32
        }
        Shape::AllFloat => {
            out.extend_from_slice(&presence_bitmap(values));
            for v in values {
                if let Value::Float(f) = v {
                    out.extend_from_slice(&f.to_bits().to_le_bytes());
                }
            }
            Encoding::Float64
        }
        Shape::AllStr | Shape::AllBytes => {
            let is_str = matches!(shape, Shape::AllStr);
            let blobs: Vec<&[u8]> = values
                .iter()
                .filter_map(|v| match v {
                    Value::Str(s) => Some(s.as_bytes()),
                    Value::Bytes(b) => Some(b.as_slice()),
                    _ => None,
                })
                .collect();
            out.extend_from_slice(&presence_bitmap(values));
            match try_dictionary(&blobs) {
                Some((entries, codes)) => {
                    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                    for e in entries {
                        put_blob(&mut out, e);
                    }
                    for code in codes {
                        out.extend_from_slice(&code.to_le_bytes());
                    }
                    if is_str {
                        Encoding::DictStr
                    } else {
                        Encoding::DictBytes
                    }
                }
                None => {
                    for b in blobs {
                        put_blob(&mut out, b);
                    }
                    if is_str {
                        Encoding::StrRaw
                    } else {
                        Encoding::BytesRaw
                    }
                }
            }
        }
        Shape::Mixed => {
            for v in values {
                write_value(&mut out, v);
            }
            Encoding::Generic
        }
    };
    out[0] = encoding as u8;
    out
}

/// Decodes a column previously produced by [`encode_column`], returning the
/// values and the number of payload bytes consumed.
pub fn decode_column(buf: &[u8]) -> Result<(Vec<Value>, usize), StoreError> {
    let mut r = Reader::new(buf);
    let encoding = Encoding::from_tag(r.u8()?)?;
    let rows = r.u32()? as usize;

    if encoding == Encoding::Generic {
        let mut values = Vec::with_capacity(rows);
        for _ in 0..rows {
            values.push(read_value(&mut r)?);
        }
        return Ok((values, r.pos));
    }

    let bitmap = r.take(rows.div_ceil(8))?.to_vec();
    let mut values = Vec::with_capacity(rows);
    match encoding {
        Encoding::Int64 => {
            for i in 0..rows {
                values.push(if bit_set(&bitmap, i) {
                    Value::Int(r.i64()?)
                } else {
                    Value::Null
                });
            }
        }
        Encoding::Date32 => {
            for i in 0..rows {
                values.push(if bit_set(&bitmap, i) {
                    Value::Date(r.i32()?)
                } else {
                    Value::Null
                });
            }
        }
        Encoding::Float64 => {
            for i in 0..rows {
                values.push(if bit_set(&bitmap, i) {
                    Value::Float(f64::from_bits(r.u64()?))
                } else {
                    Value::Null
                });
            }
        }
        Encoding::StrRaw => {
            for i in 0..rows {
                values.push(if bit_set(&bitmap, i) {
                    Value::Str(r.string()?)
                } else {
                    Value::Null
                });
            }
        }
        Encoding::BytesRaw => {
            for i in 0..rows {
                values.push(if bit_set(&bitmap, i) {
                    Value::Bytes(r.blob()?.to_vec())
                } else {
                    Value::Null
                });
            }
        }
        Encoding::DictStr | Encoding::DictBytes => {
            let dict_len = r.u32()? as usize;
            let mut dict: Vec<Value> = Vec::with_capacity(dict_len);
            for _ in 0..dict_len {
                dict.push(if encoding == Encoding::DictStr {
                    Value::Str(r.string()?)
                } else {
                    Value::Bytes(r.blob()?.to_vec())
                });
            }
            for i in 0..rows {
                values.push(if bit_set(&bitmap, i) {
                    let code = r.u32()? as usize;
                    dict.get(code)
                        .cloned()
                        .ok_or_else(|| StoreError::new("dictionary code out of range"))?
                } else {
                    Value::Null
                });
            }
        }
        Encoding::Generic => {
            // Handled by the early return above; if control somehow gets here
            // the decoder state is inconsistent — fail the query, not the
            // process.
            return Err(StoreError::new("generic encoding reached typed decoder"));
        }
    }
    Ok((values, r.pos))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: Vec<Value>) -> (Vec<Value>, Encoding) {
        let encoded = encode_column(&values);
        let encoding = Encoding::from_tag(encoded[0]).unwrap();
        let (decoded, consumed) = decode_column(&encoded).unwrap();
        assert_eq!(consumed, encoded.len(), "decoder must consume the column");
        (decoded, encoding)
    }

    /// Exact equality including variant and float bit pattern (Value's
    /// `PartialEq` coerces across numeric variants, which is too weak here).
    fn exactly_equal(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Null, Value::Null) => true,
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (Value::Str(x), Value::Str(y)) => x == y,
            (Value::Date(x), Value::Date(y)) => x == y,
            (Value::Bytes(x), Value::Bytes(y)) => x == y,
            (Value::List(x), Value::List(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(a, b)| exactly_equal(a, b))
            }
            _ => false,
        }
    }

    #[test]
    fn fixed_width_columns_roundtrip_with_nulls() {
        let ints = vec![Value::Int(i64::MIN), Value::Null, Value::Int(i64::MAX)];
        let (decoded, enc) = roundtrip(ints.clone());
        assert_eq!(enc, Encoding::Int64);
        assert!(decoded.iter().zip(&ints).all(|(a, b)| exactly_equal(a, b)));

        let dates = vec![Value::Date(-1), Value::Date(0), Value::Null];
        let (decoded, enc) = roundtrip(dates.clone());
        assert_eq!(enc, Encoding::Date32);
        assert!(decoded.iter().zip(&dates).all(|(a, b)| exactly_equal(a, b)));
    }

    #[test]
    fn float_bit_patterns_survive() {
        let floats = vec![
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(f64::INFINITY),
            Value::Float(f64::from_bits(0x7FF8_0000_0000_0001)), // NaN payload
            Value::Null,
        ];
        let (decoded, enc) = roundtrip(floats.clone());
        assert_eq!(enc, Encoding::Float64);
        assert!(decoded
            .iter()
            .zip(&floats)
            .all(|(a, b)| exactly_equal(a, b)));
    }

    #[test]
    fn repeating_strings_pick_the_dictionary() {
        let values: Vec<Value> = (0..64)
            .map(|i| Value::Str(["AIR", "RAIL", "SHIP"][i % 3].to_string()))
            .collect();
        let (decoded, enc) = roundtrip(values.clone());
        assert_eq!(enc, Encoding::DictStr);
        assert!(decoded
            .iter()
            .zip(&values)
            .all(|(a, b)| exactly_equal(a, b)));
    }

    #[test]
    fn unique_ciphertexts_stay_raw() {
        // RND/Paillier ciphertexts never repeat: the dictionary would be
        // bigger than the raw layout, so the encoder must not pick it.
        let values: Vec<Value> = (0..32u64)
            .map(|i| Value::Bytes(i.to_be_bytes().repeat(8)))
            .collect();
        let (decoded, enc) = roundtrip(values.clone());
        assert_eq!(enc, Encoding::BytesRaw);
        assert!(decoded
            .iter()
            .zip(&values)
            .all(|(a, b)| exactly_equal(a, b)));
    }

    #[test]
    fn mixed_and_all_null_columns_fall_back_to_generic() {
        let mixed = vec![
            Value::Int(1),
            Value::Float(2.5),
            Value::Null,
            Value::List(vec![Value::Str(String::new()), Value::Null]),
        ];
        let (decoded, enc) = roundtrip(mixed.clone());
        assert_eq!(enc, Encoding::Generic);
        assert!(decoded.iter().zip(&mixed).all(|(a, b)| exactly_equal(a, b)));

        let all_null = vec![Value::Null; 9];
        let (decoded, enc) = roundtrip(all_null.clone());
        assert_eq!(enc, Encoding::Generic);
        assert_eq!(decoded, all_null);
    }

    #[test]
    fn empty_column_and_empty_strings() {
        let (decoded, _) = roundtrip(Vec::new());
        assert!(decoded.is_empty());
        let values = vec![Value::Str(String::new()), Value::Str("x".into())];
        let (decoded, _) = roundtrip(values.clone());
        assert!(decoded
            .iter()
            .zip(&values)
            .all(|(a, b)| exactly_equal(a, b)));
    }

    #[test]
    fn truncated_column_is_an_error_not_a_panic() {
        let encoded = encode_column(&[Value::Int(7), Value::Int(8)]);
        for cut in 0..encoded.len() {
            assert!(decode_column(&encoded[..cut]).is_err(), "cut at {cut}");
        }
    }
}
