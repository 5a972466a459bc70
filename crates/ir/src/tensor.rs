//! Concrete tensor values.

use crate::{DType, IrError, Shape};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A concrete integer tensor value.
///
/// Elements are stored widened to `i32` regardless of [`DType`]; the dtype
/// records the *nominal* precision and constrains the representable range
/// (checked by [`Tensor::new`]). This mirrors how quantized inference is
/// specified: arithmetic happens in 32-bit accumulators and values are
/// narrowed explicitly by requantization ops.
///
/// The payload is shared and copy-on-write: `clone()` bumps a reference
/// count, so a weight travels from the imported graph through every pass
/// into the artifact without being copied, and the first
/// [`Tensor::data_mut`] / [`Tensor::set`] on a shared handle copies it —
/// a write through one handle is never visible through another.
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tensor {
    dtype: DType,
    shape: Shape,
    data: Arc<Vec<i32>>,
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
        if let Some(&bad) = data.iter().find(|v| !dtype.contains(**v)) {
            return Err(IrError::ValueOutOfRange { value: bad, dtype });
        }
        Ok(Tensor {
            dtype,
            shape,
            data: Arc::new(data),
        })
    }

    /// Creates an all-zero tensor of the given type and shape.
    #[must_use]
    pub fn zeros(dtype: DType, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.num_elements();
        Tensor {
            dtype,
            shape,
            data: Arc::new(vec![0; n]),
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
            data: Arc::new(vec![v]),
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
        &self.data
    }

    /// Mutable flat view of the element data (row-major).
    ///
    /// Callers are responsible for keeping values within the dtype's range;
    /// [`Tensor::validate`] re-checks on demand. A payload shared with
    /// another handle is copied first.
    pub fn data_mut(&mut self) -> &mut [i32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consumes the tensor, returning the flat element data (copied only
    /// if another handle still shares it).
    #[must_use]
    pub fn into_data(self) -> Vec<i32> {
        Arc::unwrap_or_clone(self.data)
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
        self.data[self.flat_index(idx)]
    }

    /// Sets the element at a multi-dimensional index.
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
        if let Some(&bad) = self.data.iter().find(|v| !self.dtype.contains(**v)) {
            return Err(IrError::ValueOutOfRange {
                value: bad,
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
            data: Arc::new(self.data.iter().map(|&v| dtype.saturate(v)).collect()),
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
    fn scalar_round_trip() {
        let t = Tensor::scalar(DType::I32, 7);
        assert_eq!(t.shape().rank(), 0);
        assert_eq!(t.get(&[]), 7);
    }
}
