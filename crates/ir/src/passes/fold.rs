//! Constant folding.

use crate::{Graph, Op, Tensor};

/// Folds element-wise operators whose operands are all constants into new
/// constant nodes, then removes the now-dead producers.
///
/// This mirrors the "initial optimizations, such as constant folding" TVM
/// applies after ingest. Convolutions are deliberately *not* folded: folding
/// a conv over constant input is never profitable on these workloads and
/// would bloat the constant pool.
///
/// Returns the rewritten graph and the number of ops folded.
///
/// # Examples
///
/// ```
/// use htvm_ir::{DType, GraphBuilder, Tensor};
/// use htvm_ir::passes::fold_constants;
/// # fn main() -> Result<(), htvm_ir::IrError> {
/// let mut b = GraphBuilder::new();
/// let c = b.constant("c", Tensor::new(DType::I32, &[2], vec![100, -100])?);
/// let s = b.right_shift(c, 2)?;
/// let x = b.input("x", &[2], DType::I32);
/// let y = b.add(x, s)?;
/// let g = b.finish(&[y])?;
/// let (g, folded) = fold_constants(&g);
/// assert_eq!(folded, 1); // the shift becomes a constant
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn fold_constants(graph: &Graph) -> (Graph, usize) {
    super::simplify(graph).unwrap_or_else(|| (graph.clone(), 0))
}

/// Evaluates cheap element-wise/shape ops on constant operands. Returns
/// `None` for ops we do not fold (convolutions, dense, pooling, softmax).
pub(super) fn eval_elementwise(op: &Op, operands: &[&Tensor]) -> Option<Tensor> {
    let out = match op {
        Op::RightShift { amount } => {
            let x = operands[0];
            let data = x.data().iter().map(|&v| v >> amount).collect();
            Tensor::new(x.dtype(), x.shape().dims(), data).ok()?
        }
        Op::Clip { min, max } => {
            let x = operands[0];
            let data = x.data().iter().map(|&v| v.clamp(*min, *max)).collect();
            Tensor::new(x.dtype(), x.shape().dims(), data).ok()?
        }
        Op::Cast { to } => {
            let x = operands[0];
            // The builder proved the values fit; `ok()?` keeps the fold
            // total all the same.
            Tensor::new(*to, x.shape().dims(), x.data().to_vec()).ok()?
        }
        Op::Relu => {
            let x = operands[0];
            let data = x.data().iter().map(|&v| v.max(0)).collect();
            Tensor::new(x.dtype(), x.shape().dims(), data).ok()?
        }
        Op::Add => {
            let (a, b) = (operands[0], operands[1]);
            let data = a
                .data()
                .iter()
                .zip(b.data())
                .map(|(&x, &y)| x.wrapping_add(y))
                .collect();
            Tensor::new(crate::DType::I32, a.shape().dims(), data).ok()?
        }
        Op::Reshape { new_shape } => {
            let x = operands[0];
            Tensor::new(x.dtype(), new_shape, x.data().to_vec()).ok()?
        }
        Op::Flatten => {
            let x = operands[0];
            let n = x.shape().num_elements();
            Tensor::new(x.dtype(), &[n], x.data().to_vec()).ok()?
        }
        _ => return None,
    };
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::verify;
    use crate::{DType, GraphBuilder};

    #[test]
    fn folds_chain_of_constants() {
        let mut b = GraphBuilder::new();
        let c = b.constant(
            "c",
            Tensor::new(DType::I32, &[3], vec![-5, 0, 900]).unwrap(),
        );
        let s = b.right_shift(c, 1).unwrap();
        let cl = b.clip(s, -128, 127).unwrap();
        let cast = b.cast(cl, DType::I8).unwrap();
        let x = b.input("x", &[3], DType::I8);
        let y = b.add(x, cast).unwrap();
        let g = b.finish(&[y]).unwrap();
        let (g2, folded) = fold_constants(&g);
        assert_eq!(folded, 3);
        verify(&g2).unwrap();
        // input + folded constant + add
        assert_eq!(g2.len(), 3);
        let konst = g2
            .nodes()
            .find_map(|(_, n)| n.constant())
            .expect("folded constant present");
        assert_eq!(konst.data(), &[-3, 0, 127]);
        assert_eq!(konst.dtype(), DType::I8);
    }

    #[test]
    fn does_not_fold_through_inputs() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[2], DType::I32);
        let y = b.relu(x).unwrap();
        let g = b.finish(&[y]).unwrap();
        let (g2, folded) = fold_constants(&g);
        assert_eq!(folded, 0);
        assert_eq!(g2.len(), g.len());
    }

    #[test]
    fn does_not_fold_convs() {
        let mut b = GraphBuilder::new();
        let x = b.constant("x", Tensor::zeros(DType::I8, &[1, 4, 4]));
        let w = b.constant("w", Tensor::zeros(DType::I8, &[1, 1, 3, 3]));
        let c = b.conv2d(x, w, (1, 1), (0, 0, 0, 0)).unwrap();
        let g = b.finish(&[c]).unwrap();
        let (_, folded) = fold_constants(&g);
        assert_eq!(folded, 0);
    }

    #[test]
    fn rejects_unsound_cast_fold() {
        // 300 does not fit i8, so the builder refuses the cast the fold
        // would otherwise have to reject.
        let mut b = GraphBuilder::new();
        let c = b.constant("c", Tensor::new(DType::I32, &[1], vec![300]).unwrap());
        assert_eq!(
            b.cast(c, DType::I8),
            Err(crate::IrError::UnprovenNarrowing {
                node: 1,
                lo: 300,
                hi: 300,
                to: DType::I8
            })
        );
    }
}
