//! Concrete tensor values.

use crate::base64;
use crate::canonical::payload_digest;
use crate::{DType, IrError, Shape};
use serde::{DeError, Deserialize, Serialize, Sink, Value};
use std::sync::{Arc, OnceLock};

/// A concrete integer tensor value.
///
/// Elements are stored widened to `i32` regardless of [`DType`]; the dtype
/// records the *nominal* precision and constrains the representable range.
/// This mirrors how quantized inference is specified: arithmetic happens
/// in 32-bit accumulators and values are narrowed explicitly by
/// requantization ops.
///
/// # Invariant
///
/// Every constructor — [`Tensor::new`], [`Tensor::from_le_bytes`],
/// [`Tensor::zeros`], [`Tensor::scalar`], [`Tensor::saturating_cast`] and
/// deserialization — yields a payload whose length is the shape's element
/// count and whose every element fits the dtype, and records that it did.
/// [`Tensor::data_mut`] and [`Tensor::set`] can write any `i32`, so on a
/// non-`I32` tensor they drop that record; the next
/// [`GraphBuilder::constant`](crate::GraphBuilder::constant) range-checks
/// such a tensor (and only such a tensor) before it can enter a graph.
/// Every constant in a [`Graph`](crate::Graph) is therefore in range, and
/// nothing downstream re-scans payloads.
///
/// # Serialized form
///
/// `{"dtype":…,"shape":…,"data":…}`, where `data` is the standard base64
/// (RFC 4648, padded) of the elements as little-endian bytes at the
/// dtype's native width — one byte for `I8` and `Ternary`, two for
/// `I16`, four for `I32` — so `[-3, 0, 127]` as `I8` is `"/QB/"`. The
/// decoder is strict, so a tensor has exactly one text.
///
/// The payload is shared and copy-on-write: `clone()` bumps a reference
/// count, so a weight travels from the imported graph through every pass
/// into the artifact without being copied, and the first
/// [`Tensor::data_mut`] / [`Tensor::set`] on a shared handle copies it —
/// a write through one handle is never visible through another. The
/// payload's [`Tensor::digest`] is remembered next to it, so every
/// handle sharing a payload digests it at most once.
///
/// # Examples
///
/// ```
/// use htvm_ir::{DType, Tensor};
/// # fn main() -> Result<(), htvm_ir::IrError> {
/// let t = Tensor::new(DType::I8, &[2, 2], vec![1, -2, 3, -4])?;
/// assert_eq!(t.get(&[1, 0]), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Tensor {
    dtype: DType,
    shape: Shape,
    data: Arc<Payload>,
    /// Whether every element is known to fit `dtype`: set by the
    /// constructors, cleared by a write into a non-`I32` tensor. Not part
    /// of the value — equality and the serialized form ignore it.
    checked: bool,
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.dtype == other.dtype && self.shape == other.shape && self.data() == other.data()
    }
}

impl Eq for Tensor {}

/// A tensor's elements and, once taken, their digest. Every handle that
/// shares one has the same dtype, so one digest serves them all.
#[derive(Clone)]
struct Payload {
    elems: Vec<i32>,
    /// [`Tensor::digest`] of `elems`: filled by the first call, emptied
    /// by every write. Not part of the value.
    digest: OnceLock<u128>,
}

impl Payload {
    fn new(elems: Vec<i32>) -> Arc<Self> {
        Arc::new(Payload {
            elems,
            digest: OnceLock::new(),
        })
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.elems.fmt(f)
    }
}

/// # Panics
///
/// Panics with the [`IrError::ValueOutOfRange`] text if a write since the
/// last range check left an element outside the dtype, rather than write
/// a different, valid tensor. No input reaches an artifact that way:
/// every graph constant is checked as it enters the graph.
impl Serialize for Tensor {
    fn emit<S: Sink>(&self, sink: &mut S) {
        self.assert_narrowable();
        sink.begin_object();
        sink.key("dtype");
        self.dtype.emit(sink);
        sink.key("shape");
        self.shape.emit(sink);
        sink.key("data");
        sink.str(&base64::encode(self.data(), native_width(self.dtype)));
        sink.end_object();
    }
}

/// A deserialized tensor is decoded strictly and built through
/// [`Tensor::from_le_bytes`], so a payload that is not canonical base64,
/// whose length disagrees with its shape, or that holds a `Ternary` byte
/// outside `{-1, 0, +1}` is refused here rather than trusted downstream.
/// So is an object with a member other than `dtype`, `shape` and `data`,
/// or with one of them twice: a tensor has one text.
impl Deserialize for Tensor {
    fn from_content(v: &Value) -> Result<Self, DeError> {
        let obj = serde::__as_object(v).ok_or_else(|| DeError::custom("expected Tensor object"))?;
        serde::__deny_unknown_fields(obj, &["dtype", "shape", "data"], "Tensor")?;
        let dtype: DType = serde::__field(obj, "dtype", "Tensor")?;
        let shape: Shape = serde::__field(obj, "shape", "Tensor")?;
        let text = obj
            .iter()
            .find(|(k, _)| k == "data")
            .ok_or_else(|| DeError::missing_field("Tensor", "data"))?
            .1
            .as_str()
            .ok_or_else(|| DeError::custom("Tensor data: expected a base64 string"))?;
        shape
            .dims()
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d))
            .ok_or_else(|| DeError::custom(format!("Tensor shape {shape} overflows")))?;
        let bytes =
            base64::decode(text).map_err(|e| DeError::custom(format!("Tensor data: {e}")))?;
        Tensor::from_le_bytes(dtype, shape.dims(), &bytes)
            .map_err(|e| DeError::custom(format!("Tensor: {e}")))
    }
}

/// Bytes per element at the dtype's native width.
fn native_width(dtype: DType) -> usize {
    match dtype {
        DType::I8 | DType::Ternary => 1,
        DType::I16 => 2,
        DType::I32 => 4,
    }
}

impl Tensor {
    /// Creates a tensor, validating that `data` matches the shape's element
    /// count and that every element is representable in `dtype`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::ShapeMismatch`] if `data.len()` differs from the
    /// shape's element count, and [`IrError::ValueOutOfRange`] if an element
    /// does not fit `dtype`.
    pub fn new(dtype: DType, dims: &[usize], data: Vec<i32>) -> Result<Self, IrError> {
        let shape = Shape::new(dims);
        if data.len() != shape.num_elements() {
            return Err(IrError::ShapeMismatch {
                expected: shape.num_elements(),
                got: data.len(),
            });
        }
        let tensor = Tensor {
            dtype,
            shape,
            data: Payload::new(data),
            checked: true,
        };
        tensor.validate()?;
        Ok(tensor)
    }

    /// Creates a tensor from little-endian elements at their native width
    /// (one byte for `I8` and `Ternary`, two for `I16`, four for `I32`),
    /// widening and range-checking in the same single pass: only `Ternary`
    /// has byte values outside its range, and a native-width `I8`, `I16`
    /// or `I32` element fits its dtype by construction.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::ShapeMismatch`] if `bytes` does not hold exactly
    /// the shape's element count at that width, and
    /// [`IrError::ValueOutOfRange`] for the first `Ternary` byte outside
    /// `{-1, 0, +1}`.
    ///
    /// # Examples
    ///
    /// ```
    /// use htvm_ir::{DType, IrError, Tensor};
    /// # fn main() -> Result<(), IrError> {
    /// let t = Tensor::from_le_bytes(DType::I16, &[2], &[0x00, 0x80, 0xff, 0x7f])?;
    /// assert_eq!(t.data(), &[-32768, 32767]);
    /// assert_eq!(
    ///     Tensor::from_le_bytes(DType::Ternary, &[1], &[2]),
    ///     Err(IrError::ValueOutOfRange { value: 2, dtype: DType::Ternary })
    /// );
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_le_bytes(dtype: DType, dims: &[usize], bytes: &[u8]) -> Result<Self, IrError> {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        let width = native_width(dtype);
        if n.checked_mul(width) != Some(bytes.len()) {
            return Err(IrError::ShapeMismatch {
                expected: n,
                got: bytes.len() / width,
            });
        }
        let mut data = Vec::with_capacity(n);
        let mut fits = true;
        match dtype {
            DType::I8 => data.extend(bytes.iter().map(|&b| i32::from(b as i8))),
            DType::Ternary => data.extend(bytes.iter().map(|&b| {
                let v = i32::from(b as i8);
                fits &= (-1..=1).contains(&v);
                v
            })),
            DType::I16 => data.extend(
                bytes
                    .chunks_exact(2)
                    .map(|c| i32::from(i16::from_le_bytes([c[0], c[1]]))),
            ),
            DType::I32 => data.extend(
                bytes
                    .chunks_exact(4)
                    .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]])),
            ),
        }
        let tensor = Tensor {
            dtype,
            shape,
            data: Payload::new(data),
            checked: true,
        };
        if !fits {
            tensor.validate()?; // names the first offending element
        }
        Ok(tensor)
    }

    /// Creates an all-zero tensor of the given type and shape.
    #[must_use]
    pub fn zeros(dtype: DType, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        Tensor {
            dtype,
            shape,
            data: Payload::new(vec![0; n]),
            checked: true,
        }
    }

    /// Creates a rank-0 scalar tensor.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not representable in `dtype`.
    #[must_use]
    pub fn scalar(dtype: DType, v: i32) -> Self {
        assert!(dtype.contains(v), "scalar {v} out of range for {dtype}");
        Tensor {
            dtype,
            shape: Shape::scalar(),
            data: Payload::new(vec![v]),
            checked: true,
        }
    }

    /// The element type.
    #[must_use]
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// The shape.
    #[must_use]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Flat view of the element data (row-major).
    #[must_use]
    pub fn data(&self) -> &[i32] {
        &self.data.elems
    }

    /// Mutable flat view of the element data (row-major).
    ///
    /// The slice accepts any `i32`. On a non-`I32` tensor the call drops
    /// the tensor's in-range record (see the [invariant](Tensor#invariant)),
    /// so [`GraphBuilder::constant`](crate::GraphBuilder::constant) checks
    /// it again; [`Tensor::validate`] checks on demand. A payload shared
    /// with another handle is copied first, and the digest remembered
    /// for it is dropped from this handle's copy.
    pub fn data_mut(&mut self) -> &mut [i32] {
        self.checked &= self.dtype == DType::I32;
        let payload = Arc::make_mut(&mut self.data);
        payload.digest.take();
        &mut payload.elems
    }

    /// The 128-bit `MurmurHash3_x64_128` (seed 0) of the elements as
    /// little-endian bytes at the dtype's native width — the bytes the
    /// serialized form's base64 carries (see the
    /// [serialized form](Tensor#serialized-form)). It is what
    /// [`canonical_form`](crate::canonical_form) writes for a constant.
    ///
    /// Taken on the first call and remembered with the payload, so every
    /// clone sharing it reads the same digest without touching the
    /// elements; a write through [`Tensor::data_mut`] / [`Tensor::set`]
    /// drops it from the written handle.
    ///
    /// # Panics
    ///
    /// Panics, as serialization does, if a write since the last range
    /// check left an element outside the dtype.
    #[must_use]
    pub fn digest(&self) -> u128 {
        *self.data.digest.get_or_init(|| {
            self.assert_narrowable();
            payload_digest(self.data(), native_width(self.dtype))
        })
    }

    /// Whether every element is known to fit the dtype without a scan.
    pub(crate) fn is_checked(&self) -> bool {
        self.checked
    }

    /// Narrowing each element to its dtype's width — what serialization
    /// and [`Tensor::digest`] read — is exact because every element fits
    /// the dtype: a constructor checked that, or, for a tensor written
    /// through [`Tensor::data_mut`] since, this scan does. Panics with the
    /// [`IrError::ValueOutOfRange`] text on an out-of-range element.
    fn assert_narrowable(&self) {
        if !self.checked {
            if let Err(e) = self.validate() {
                panic!("{e}");
            }
        }
    }

    /// Range-checks the payload unless a constructor already did since
    /// the last write, and records a pass.
    pub(crate) fn ensure_checked(&mut self) -> Result<(), IrError> {
        if !self.checked {
            self.validate()?;
            self.checked = true;
        }
        Ok(())
    }

    /// Consumes the tensor, returning the flat element data (copied only
    /// if another handle still shares it).
    #[must_use]
    pub fn into_data(self) -> Vec<i32> {
        Arc::unwrap_or_clone(self.data).elems
    }

    /// Row-major flat index for a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or an index is out of bounds.
    #[must_use]
    pub fn flat_index(&self, idx: &[usize]) -> usize {
        let dims = self.shape.dims();
        assert_eq!(idx.len(), dims.len(), "index rank mismatch");
        let mut flat = 0usize;
        for (i, (&ix, &d)) in idx.iter().zip(dims).enumerate() {
            assert!(ix < d, "index {ix} out of bounds for dim {i} (extent {d})");
            flat = flat * d + ix;
        }
        flat
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds (see [`Tensor::flat_index`]).
    #[must_use]
    pub fn get(&self, idx: &[usize]) -> i32 {
        self.data()[self.flat_index(idx)]
    }

    /// Sets the element at a multi-dimensional index. Like
    /// [`Tensor::data_mut`], this accepts any `i32` and, on a non-`I32`
    /// tensor, drops the in-range record.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds (see [`Tensor::flat_index`]).
    pub fn set(&mut self, idx: &[usize], v: i32) {
        let i = self.flat_index(idx);
        self.data_mut()[i] = v;
    }

    /// Storage size in bytes at the tensor's nominal precision (packed for
    /// sub-byte types). This is what the binary-size model charges for
    /// weights stored in the deployed image.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.dtype.storage_bytes(self.shape.num_elements())
    }

    /// Re-checks that all elements are within the dtype's range.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::ValueOutOfRange`] for the first offending element.
    pub fn validate(&self) -> Result<(), IrError> {
        // A branch-free min/max pass; the search for the first offender
        // runs only when there is one.
        let (lo, hi) = self.dtype.range();
        let data = self.data();
        let (min, max) = data
            .iter()
            .fold((hi, lo), |(a, b), &v| (a.min(v), b.max(v)));
        if min < lo || max > hi {
            let bad = data.iter().copied().find(|&v| !self.dtype.contains(v));
            return Err(IrError::ValueOutOfRange {
                value: bad.unwrap_or(min),
                dtype: self.dtype,
            });
        }
        Ok(())
    }

    /// Returns a copy reinterpreted with a new dtype, saturating each element
    /// into the new range. Used by requantization folding and test helpers.
    #[must_use]
    pub fn saturating_cast(&self, dtype: DType) -> Tensor {
        Tensor {
            dtype,
            shape: self.shape.clone(),
            data: Payload::new(self.data().iter().map(|&v| dtype.saturate(v)).collect()),
            checked: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_len_and_range() {
        assert!(Tensor::new(DType::I8, &[2], vec![1, 2]).is_ok());
        assert!(matches!(
            Tensor::new(DType::I8, &[2], vec![1]),
            Err(IrError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            Tensor::new(DType::I8, &[1], vec![300]),
            Err(IrError::ValueOutOfRange { .. })
        ));
        assert!(matches!(
            Tensor::new(DType::Ternary, &[1], vec![2]),
            Err(IrError::ValueOutOfRange { .. })
        ));
        // The first offender is named, not the smallest or the largest.
        assert_eq!(
            Tensor::new(DType::I8, &[3], vec![5, 300, -300]),
            Err(IrError::ValueOutOfRange {
                value: 300,
                dtype: DType::I8
            })
        );
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros(DType::I32, &[2, 3, 4]);
        t.set(&[1, 2, 3], 42);
        assert_eq!(t.get(&[1, 2, 3]), 42);
        assert_eq!(t.flat_index(&[1, 2, 3]), 23);
        assert_eq!(t.get(&[0, 0, 0]), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indexing_out_of_bounds_panics() {
        let t = Tensor::zeros(DType::I8, &[2, 2]);
        let _ = t.get(&[2, 0]);
    }

    #[test]
    fn storage_bytes_uses_packed_width() {
        let t = Tensor::zeros(DType::Ternary, &[100]);
        assert_eq!(t.storage_bytes(), 25); // 100 * 2 bits = 200 bits = 25 B
        let t = Tensor::zeros(DType::I32, &[100]);
        assert_eq!(t.storage_bytes(), 400);
    }

    #[test]
    fn saturating_cast_clamps() {
        let t = Tensor::new(DType::I32, &[3], vec![-500, 5, 500]).unwrap();
        let c = t.saturating_cast(DType::I8);
        assert_eq!(c.data(), &[-128, 5, 127]);
        assert_eq!(c.dtype(), DType::I8);
    }

    #[test]
    fn clone_shares_until_either_handle_writes() {
        let original = Tensor::new(DType::I8, &[2, 2], vec![1, 2, 3, 4]).unwrap();
        let mut via_slice = original.clone();
        let mut via_set = original.clone();
        assert_eq!(original.data().as_ptr(), via_slice.data().as_ptr());

        via_slice.data_mut()[0] = 9;
        via_set.set(&[1, 1], -9);
        assert_eq!(original.data(), &[1, 2, 3, 4]);
        assert_eq!(via_slice.data(), &[9, 2, 3, 4]);
        assert_eq!(via_set.data(), &[1, 2, 3, -9]);

        // ... and the other way round: writing the original leaves a
        // clone taken before the write untouched.
        let mut original = original;
        let snapshot = original.clone();
        original.set(&[0, 1], 7);
        assert_eq!(snapshot.data(), &[1, 2, 3, 4]);
        assert_eq!(original.data(), &[1, 7, 3, 4]);
    }

    #[test]
    fn the_digest_is_shared_by_clones_and_dropped_by_a_write() {
        let fresh = |data: &[i32]| {
            Tensor::new(DType::I8, &[4], data.to_vec())
                .unwrap()
                .digest()
        };
        let original = fresh(&[1, 2, 3, 4]);

        // A clone taken before the first digest reads the one it fills.
        let a = Tensor::new(DType::I8, &[4], vec![1, 2, 3, 4]).unwrap();
        let b = a.clone();
        assert_eq!(b.data.digest.get(), None);
        assert_eq!(a.digest(), original);
        assert_eq!(b.data.digest.get(), Some(&original));

        // A unique handle, through either write, digests again.
        let mut unique = Tensor::new(DType::I8, &[4], vec![1, 2, 3, 4]).unwrap();
        assert_eq!(unique.digest(), original);
        unique.data_mut()[0] = 9;
        assert_eq!(unique.digest(), fresh(&[9, 2, 3, 4]));
        unique.set(&[3], -9);
        assert_eq!(unique.digest(), fresh(&[9, 2, 3, -9]));

        // A shared handle: the written one digests again; a clone taken
        // before the write, with or without a digest, keeps its data and
        // its digest.
        let writes: [fn(&mut Tensor); 2] = [|t| t.data_mut()[0] = 5, |t| t.set(&[0], 5)];
        for write in writes {
            for digested in [false, true] {
                let mut written = Tensor::new(DType::I8, &[4], vec![1, 2, 3, 4]).unwrap();
                if digested {
                    let _ = written.digest();
                }
                let kept = written.clone();
                write(&mut written);
                assert_eq!(written.digest(), fresh(&[5, 2, 3, 4]));
                assert_eq!(kept.data(), &[1, 2, 3, 4]);
                assert_eq!(kept.digest(), original);
            }
        }
    }

    #[test]
    fn into_data_of_a_shared_tensor_copies() {
        let kept = Tensor::new(DType::I32, &[3], vec![5, 6, 7]).unwrap();
        let taken = kept.clone().into_data();
        assert_eq!(taken, vec![5, 6, 7]);
        assert_ne!(taken.as_ptr(), kept.data().as_ptr());
        assert_eq!(kept.data(), &[5, 6, 7]);
        // A unique handle gives its buffer away instead.
        let ptr = kept.data().as_ptr();
        let unwrapped = kept.into_data();
        assert_eq!(unwrapped.as_ptr(), ptr);
    }

    #[test]
    fn constructors_never_alias() {
        let data = vec![1, 2, 3];
        let ptr = data.as_ptr();
        let t = Tensor::new(DType::I32, &[3], data).unwrap();
        assert_eq!(
            t.data().as_ptr(),
            ptr,
            "an owned Vec is adopted, not copied"
        );
        let mut z1 = Tensor::zeros(DType::I8, &[3]);
        let z2 = Tensor::zeros(DType::I8, &[3]);
        let cast = t.saturating_cast(DType::I8);
        assert_ne!(z1.data().as_ptr(), z2.data().as_ptr());
        assert_ne!(cast.data().as_ptr(), t.data().as_ptr());
        z1.data_mut()[0] = 1;
        assert_eq!(z2.data(), &[0, 0, 0]);
    }

    #[test]
    fn payloads_are_native_width_base64_and_come_back_equal() {
        let cases = [
            (
                DType::I8,
                vec![-3, 0, 127],
                r#"{"dtype":"I8","shape":[3],"data":"/QB/"}"#,
            ),
            (
                DType::Ternary,
                vec![-1, 0, 1, 1],
                r#"{"dtype":"Ternary","shape":[4],"data":"/wABAQ=="}"#,
            ),
            (
                DType::I16,
                vec![-32768, 32767],
                r#"{"dtype":"I16","shape":[2],"data":"AID/fw=="}"#,
            ),
            (
                DType::I32,
                vec![i32::MIN, -1],
                r#"{"dtype":"I32","shape":[2],"data":"AAAAgP////8="}"#,
            ),
            (DType::I8, vec![], r#"{"dtype":"I8","shape":[0],"data":""}"#),
        ];
        for (dtype, data, text) in cases {
            let t = Tensor::new(dtype, &[data.len()], data).unwrap();
            assert_eq!(serde_json::to_string(&t).unwrap(), text);
            assert_eq!(serde_json::from_str::<Tensor>(text).unwrap(), t);
        }
    }

    #[test]
    fn a_refused_payload_is_a_typed_error_naming_the_tensor() {
        for (text, says) in [
            (
                r#"{"dtype":"I8","shape":[3],"data":"/QB"}"#,
                "Tensor data: base64 length 3",
            ),
            (
                r#"{"dtype":"I8","shape":[3],"data":"/Q B/"}"#,
                "Tensor data: base64 length 5",
            ),
            (
                r#"{"dtype":"I8","shape":[2],"data":"/QB="}"#,
                "Tensor data: non-zero bits",
            ),
            (
                r#"{"dtype":"I8","shape":[2],"data":"/QB/"}"#,
                "Tensor: shape expects 2 elements, got 3",
            ),
            (
                r#"{"dtype":"Ternary","shape":[1],"data":"Ag=="}"#,
                "Tensor: value 2",
            ),
            (
                r#"{"dtype":"I8","shape":[3],"data":[-3,0,127]}"#,
                "expected a base64 string",
            ),
            (
                r#"{"dtype":"I8","shape":[3]}"#,
                "missing field 'data' for Tensor",
            ),
            // A second spelling of `gH8A` the payload harness found: an
            // unknown member is refused, as is a second `data`.
            (
                r#"{"dtype":"I8","":[],"":"","shape":[3],"data":"gH8A"}"#,
                "unknown field '' for Tensor",
            ),
            (
                r#"{"dtype":"I8","shape":[3],"data":"gH8A","data":"AAAA"}"#,
                "duplicate field 'data' for Tensor",
            ),
        ] {
            let err = serde_json::from_str::<Tensor>(text)
                .unwrap_err()
                .to_string();
            assert!(err.contains(says), "{text}: {err}");
        }
        let huge = format!(
            r#"{{"dtype":"I8","shape":[{},{}],"data":""}}"#,
            usize::MAX,
            2
        );
        let err = serde_json::from_str::<Tensor>(&huge)
            .unwrap_err()
            .to_string();
        assert!(err.contains("overflows"), "{err}");
    }

    #[test]
    #[should_panic(expected = "value 300 is out of range for dtype i8")]
    fn a_write_out_of_range_is_never_serialized_as_another_tensor() {
        // Narrowing 300 to a byte would write 44: a valid, different
        // tensor. The encoder scans a written tensor and refuses.
        let mut t = Tensor::zeros(DType::I8, &[2]);
        t.data_mut()[1] = 300;
        let _ = serde_json::to_string(&t);
    }

    #[test]
    fn a_checked_tensor_is_serialized_without_a_scan() {
        // A written tensor back in range is scanned and written.
        let mut t = Tensor::zeros(DType::I8, &[2]);
        t.data_mut()[1] = -7;
        assert_eq!(
            serde_json::to_string(&t).unwrap(),
            r#"{"dtype":"I8","shape":[2],"data":"APk="}"#
        );
        // A tensor whose bit says checked is trusted: forging the bit
        // over an out-of-range element shows that nothing scans it.
        let forged = Tensor {
            checked: true,
            ..Tensor::zeros(DType::I8, &[1])
        };
        let forged = Tensor {
            data: Payload::new(vec![300]),
            ..forged
        };
        assert_eq!(
            serde_json::to_string(&forged).unwrap(),
            r#"{"dtype":"I8","shape":[1],"data":"LA=="}"#
        );
    }

    #[test]
    fn scalar_round_trip() {
        let t = Tensor::scalar(DType::I32, 7);
        assert_eq!(t.shape().rank(), 0);
        assert_eq!(t.get(&[]), 7);
    }
}
