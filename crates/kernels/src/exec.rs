//! The reference graph interpreter.

use crate::{conv, dense, elementwise, layer_norm, matmul, pool, softmax, EvalError};
use htvm_ir::{Graph, NodeKind, Op, Tensor};
use std::borrow::Cow;

/// Evaluates a graph on concrete inputs using the reference kernels,
/// returning one tensor per graph output.
///
/// This is the *golden model*: every compiled deployment (tiled, fused,
/// accelerated) must produce bit-identical outputs.
///
/// # Errors
///
/// Returns [`EvalError`] if the number, shapes or dtypes of `inputs` do not
/// match the graph signature.
///
/// # Examples
///
/// See the [crate-level example](crate).
pub fn evaluate(graph: &Graph, inputs: &[Tensor]) -> Result<Vec<Tensor>, EvalError> {
    evaluate_refs(graph, &inputs.iter().collect::<Vec<_>>())
}

/// [`evaluate`] over inputs that live in separate places (the simulator's
/// buffer table), so none is copied to line them up in one slice.
///
/// # Errors
///
/// As [`evaluate`].
pub fn evaluate_refs(graph: &Graph, inputs: &[&Tensor]) -> Result<Vec<Tensor>, EvalError> {
    if inputs.len() != graph.inputs().len() {
        return Err(EvalError::InputCountMismatch {
            expected: graph.inputs().len(),
            got: inputs.len(),
        });
    }
    for (i, (&id, t)) in graph.inputs().iter().zip(inputs).enumerate() {
        let node = graph.node(id);
        if t.shape() != &node.shape || t.dtype() != node.dtype {
            return Err(EvalError::InputTypeMismatch {
                index: i,
                detail: format!(
                    "expected {}{}, got {}{}",
                    node.dtype,
                    node.shape,
                    t.dtype(),
                    t.shape()
                ),
            });
        }
        t.validate().map_err(|e| EvalError::InputTypeMismatch {
            index: i,
            detail: e.to_string(),
        })?;
    }

    // The node that reads each value last; graph outputs are never done.
    let mut last_use = vec![0usize; graph.len()];
    for (id, node) in graph.nodes() {
        for arg in node.inputs() {
            last_use[arg.index()] = id.index();
        }
    }
    for out in graph.outputs() {
        last_use[out.index()] = usize::MAX;
    }

    // Inputs and constants are only ever read, so the table borrows them;
    // computed values are owned.
    let mut values: Vec<Option<Cow<'_, Tensor>>> = vec![None; graph.len()];
    let mut next_input = inputs.iter();
    for (id, node) in graph.nodes() {
        let value = match &node.kind {
            NodeKind::Input => Cow::Borrowed(*next_input.next().expect("count checked above")),
            NodeKind::Constant(t) => Cow::Borrowed(t),
            NodeKind::Op { op, inputs: args } => {
                // A computed first operand nobody reads after this node is
                // moved out, so the element-wise ops below rewrite it in
                // place; any other is borrowed and copied as before.
                let first = args[0].index();
                let spent = last_use[first] == id.index() && !args[1..].contains(&args[0]);
                let moved = match &mut values[first] {
                    slot @ Some(Cow::Owned(_)) if spent => slot.take(),
                    _ => None,
                };
                let arg = |i: usize| {
                    values[args[i].index()]
                        .as_deref()
                        .expect("topological order guarantees operand availability")
                };
                let x = moved.unwrap_or_else(|| Cow::Borrowed(arg(0)));
                Cow::Owned(apply_op(op, x, arg))
            }
        };
        values[id.index()] = Some(value);
    }
    Ok(graph
        .outputs()
        .iter()
        .map(|&o| {
            values[o.index()]
                .as_deref()
                .expect("outputs validated by graph construction")
                .clone()
        })
        .collect())
}

/// Applies `op` to its first operand `x` (owned when the caller could
/// give it up) and the remaining operands `arg(1..)`.
fn apply_op<'a>(op: &Op, x: Cow<'_, Tensor>, arg: impl Fn(usize) -> &'a Tensor) -> Tensor {
    match op {
        Op::Conv2d { strides, padding } => conv::conv2d(&x, arg(1), *strides, *padding),
        Op::DepthwiseConv2d { strides, padding } => {
            conv::depthwise_conv2d(&x, arg(1), *strides, *padding)
        }
        Op::Dense => dense::dense(&x, arg(1)),
        Op::BiasAdd => elementwise::bias_add_owned(x.into_owned(), arg(1)),
        Op::RightShift { amount } => elementwise::right_shift_owned(x.into_owned(), *amount),
        Op::Clip { min, max } => elementwise::clip_owned(x.into_owned(), *min, *max),
        Op::Cast { to } => elementwise::cast_owned(x.into_owned(), *to),
        Op::Relu => elementwise::relu_owned(x.into_owned()),
        Op::Add => elementwise::add(&x, arg(1)),
        Op::Pool2d {
            kind,
            kernel,
            strides,
            padding,
        } => pool::pool2d(&x, *kind, *kernel, *strides, *padding),
        Op::MatMul { transpose_b } => matmul::matmul(&x, arg(1), *transpose_b),
        Op::LayerNorm => layer_norm::layer_norm(&x),
        Op::Softmax => softmax::softmax(&x),
        Op::Reshape { new_shape } => Tensor::new(x.dtype(), new_shape, x.into_owned().into_data())
            .expect("reshape validated by inference"),
        Op::Flatten => {
            let n = x.shape().num_elements();
            Tensor::new(x.dtype(), &[n], x.into_owned().into_data())
                .expect("flatten preserves element count")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htvm_ir::{DType, GraphBuilder};

    #[test]
    fn end_to_end_conv_block() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[1, 3, 3], DType::I8);
        let w = b.constant("w", Tensor::new(DType::I8, &[1, 1, 1, 1], vec![2]).unwrap());
        let bias = b.constant("b", Tensor::new(DType::I32, &[1], vec![4]).unwrap());
        let c = b.conv2d(x, w, (1, 1), (0, 0, 0, 0)).unwrap();
        let c = b.bias_add(c, bias).unwrap();
        let q = b.requantize(c, 1, true).unwrap();
        let g = b.finish(&[q]).unwrap();
        let input = Tensor::new(DType::I8, &[1, 3, 3], vec![-8, -1, 0, 1, 2, 3, 4, 5, 6]).unwrap();
        let out = evaluate(&g, &[input]).unwrap();
        // y = relu((2x + 4) >> 1) = relu(x + 2)
        assert_eq!(out[0].data(), &[0, 1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(out[0].dtype(), DType::I8);
    }

    #[test]
    fn rejects_wrong_input_count() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[2], DType::I8);
        let y = b.relu(x).unwrap();
        let g = b.finish(&[y]).unwrap();
        assert!(matches!(
            evaluate(&g, &[]),
            Err(EvalError::InputCountMismatch { .. })
        ));
    }

    #[test]
    fn rejects_wrong_input_shape() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[2], DType::I8);
        let y = b.relu(x).unwrap();
        let g = b.finish(&[y]).unwrap();
        let bad = Tensor::zeros(DType::I8, &[3]);
        assert!(matches!(
            evaluate(&g, &[bad]),
            Err(EvalError::InputTypeMismatch { .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_input_values() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[1], DType::I8);
        let y = b.relu(x).unwrap();
        let g = b.finish(&[y]).unwrap();
        // Construct an i32 tensor and force it through as "i8" via zeros +
        // data_mut to simulate a caller bug.
        let mut bad = Tensor::zeros(DType::I8, &[1]);
        bad.data_mut()[0] = 1000;
        assert!(matches!(
            evaluate(&g, &[bad]),
            Err(EvalError::InputTypeMismatch { .. })
        ));
    }

    #[test]
    fn multiple_outputs() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[2], DType::I32);
        let y = b.relu(x).unwrap();
        let z = b.clip(x, -1, 1).unwrap();
        let g = b.finish(&[y, z]).unwrap();
        let input = Tensor::new(DType::I32, &[2], vec![-5, 5]).unwrap();
        let out = evaluate(&g, &[input]).unwrap();
        assert_eq!(out[0].data(), &[0, 5]);
        assert_eq!(out[1].data(), &[-1, 1]);
    }

    #[test]
    fn in_place_reuse_never_clobbers_a_value_still_needed() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[4], DType::I32);
        // `s` is computed, so its slot is owned: relu reads it first (and
        // must copy), clip reads it last (and may rewrite it).
        let s = b.add(x, x).unwrap();
        let r = b.relu(s).unwrap();
        let c = b.clip(s, -3, 3).unwrap();
        // `c` is a graph output *and* has a later reader: never reused.
        let h = b.right_shift(c, 1).unwrap();
        // Both operands are the same computed value, read last here.
        let d = b.bias_add(h, h).unwrap();
        let g = b.finish(&[r, c, d]).unwrap();
        let input = Tensor::new(DType::I32, &[4], vec![-5, -1, 1, 5]).unwrap();
        let out = evaluate(&g, std::slice::from_ref(&input)).unwrap();
        assert_eq!(out[0].data(), &[0, 0, 2, 10]);
        assert_eq!(out[1].data(), &[-3, -2, 2, 3]);
        assert_eq!(out[2].data(), &[-4, -2, 2, 2]);
        assert_eq!(input.data(), &[-5, -1, 1, 5]);
    }

    #[test]
    fn residual_add_block() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[2, 2, 2], DType::I8);
        let y = b.relu(x).unwrap();
        let s = b.add(x, y).unwrap();
        let q = b.requantize(s, 0, false).unwrap();
        let g = b.finish(&[q]).unwrap();
        let input = Tensor::new(DType::I8, &[2, 2, 2], vec![-1, 2, -3, 4, -5, 6, -7, 8]).unwrap();
        let out = evaluate(&g, &[input]).unwrap();
        assert_eq!(out[0].data(), &[-1, 4, -3, 8, -5, 12, -7, 16]);
    }
}
