//! The model importer: HTF bytes → [`Graph`].
//!
//! Input is treated as hostile. Every read goes through the
//! bounds-checked [`crate::fb`] primitives, every count is validated
//! before anything proportional to it is allocated, and every declared
//! shape/dtype is cross-checked against `htvm-ir`'s own inference, so a
//! malformed file surfaces as a typed [`ImportError`] — never a panic,
//! never an unbounded allocation.
//!
//! The walk exploits the format's identity guarantee (one tensor per
//! node, topological order): tensor `t` is either a model input, a
//! constant (non-zero buffer index), or the output of the next unplaced
//! operator. An operator reading a tensor at or after its own output is
//! a forward reference — reported as [`ImportError::CyclicReference`].

use crate::error::ImportError;
use crate::fb::{self, Buf, Table, MAGIC};
use crate::schema::{
    buffer as buffer_slot, dtype_code, model, opcode, operator, quant, tensor, FORMAT_VERSION,
};
use htvm_ir::{DType, Graph, GraphBuilder, IrError, Op, Padding2d, PoolKind, Tensor};

/// Ceiling on a declared tensor's element count (`2^28` ≈ 268M).
///
/// `htvm-ir` shapes multiply dimensions without overflow checks — safe
/// for graphs built in-process, not for dimensions read off the wire.
/// The importer re-derives every element count with checked arithmetic
/// against this cap before any shape reaches the IR, which keeps all
/// downstream products (elements × element width, reshape targets)
/// comfortably inside `usize`.
pub const MAX_TENSOR_ELEMENTS: usize = 1 << 28;

/// Ceiling on scalar geometry attributes (strides, padding, kernels).
const MAX_ATTR: u32 = 1 << 24;

/// A parsed tensor declaration, pending placement in the graph.
struct Decl {
    name: String,
    dims: Vec<usize>,
    dtype: DType,
    buffer: usize,
}

/// A parsed operator, attributes still unread in its table.
struct OpDecl {
    table: Table,
    opcode: u32,
    inputs: Vec<usize>,
    output: usize,
}

/// Parses HTF model bytes into a validated [`Graph`].
///
/// # Errors
///
/// Returns the [`ImportError`] variant naming what was wrong; see the
/// taxonomy on the type. No input — truncated, bit-flipped,
/// offset-corrupted or adversarial — causes a panic.
pub fn import(bytes: &[u8]) -> Result<Graph, ImportError> {
    import_with_max_opcode(bytes, opcode::LAYER_NORM)
}

/// [`import`] restricted to opcodes `<= max_opcode` — how a reader built
/// against an *older* schema revision behaves when handed newer bytes.
///
/// The HTF format version only bumps on layout changes; opcode additions
/// are forward-compatible at the wire level, so an old reader meets a new
/// opcode as an unknown number. This entry point pins that path: any
/// operator above `max_opcode` is rejected as a typed
/// [`ImportError::UnsupportedOp`] naming the opcode, never misparsed.
/// Backward-compatibility tests and the fuzz corpus drive it directly;
/// [`import`] itself accepts every opcode this build knows.
///
/// # Errors
///
/// Same taxonomy as [`import`], plus [`ImportError::UnsupportedOp`] for
/// any operator whose opcode exceeds `max_opcode`.
pub fn import_with_max_opcode(bytes: &[u8], max_opcode: u32) -> Result<Graph, ImportError> {
    let buf = Buf::new(bytes);

    // Header: root offset at 0, magic at 4..8.
    let magic = buf.slice(4, 4)?;
    if magic != MAGIC {
        return Err(ImportError::BadMagic {
            got: [magic[0], magic[1], magic[2], magic[3]],
        });
    }
    let root = Table::at(&buf, buf.offset(0)?)?;
    let version = root.u32_or(&buf, model::VERSION, 0)?;
    if version != FORMAT_VERSION {
        return Err(ImportError::UnsupportedVersion { version });
    }

    let tensor_tables = fb::offset_vec(&buf, root.req_offset(&buf, model::TENSORS, "tensors")?)?;
    let op_tables = fb::offset_vec(&buf, root.req_offset(&buf, model::OPERATORS, "operators")?)?;
    let model_inputs = fb::u32_vec(&buf, root.req_offset(&buf, model::INPUTS, "inputs")?)?;
    let model_outputs = fb::u32_vec(&buf, root.req_offset(&buf, model::OUTPUTS, "outputs")?)?;
    let buffers = fb::offset_vec(&buf, root.req_offset(&buf, model::BUFFERS, "buffers")?)?;

    let n = tensor_tables.len();
    let decls: Vec<Decl> = tensor_tables
        .iter()
        .enumerate()
        .map(|(t, &pos)| parse_tensor(&buf, t, pos, buffers.len()))
        .collect::<Result<_, _>>()?;
    let ops: Vec<OpDecl> = op_tables
        .iter()
        .map(|&pos| parse_operator(&buf, pos))
        .collect::<Result<_, _>>()?;

    // Model inputs: strictly ascending tensor indices.
    let mut is_input = vec![false; n];
    let mut prev = None;
    for &i in &model_inputs {
        let i = i as usize;
        if i >= n {
            return Err(structure(format!(
                "model input index {i} out of range ({n} tensors)"
            )));
        }
        if prev.is_some_and(|p| i <= p) {
            return Err(structure(format!(
                "model inputs must be strictly ascending, {i} follows {}",
                prev.unwrap_or(0)
            )));
        }
        prev = Some(i);
        is_input[i] = true;
    }

    // Place every tensor: input, constant, or next operator's output.
    let mut builder = GraphBuilder::new();
    let mut node_ids = Vec::with_capacity(n);
    let mut j = 0; // operator cursor
    for (t, decl) in decls.iter().enumerate() {
        let id = if is_input[t] {
            if decl.buffer != 0 {
                return Err(structure(format!(
                    "tensor {t} is a model input but references buffer {}",
                    decl.buffer
                )));
            }
            builder.input(&decl.name, &decl.dims, decl.dtype)
        } else if decl.buffer != 0 {
            let tensor = decode_buffer(&buf, t, decl, buffers[decl.buffer])?;
            builder.constant(&decl.name, tensor)
        } else {
            let Some(od) = ops.get(j) else {
                return Err(structure(format!(
                    "tensor {t} is neither an input, a constant, nor any operator's output"
                )));
            };
            if od.output != t {
                return Err(structure(format!(
                    "operator {j} writes tensor {}, expected next dataflow tensor {t}",
                    od.output
                )));
            }
            let mut operand_ids = Vec::with_capacity(od.inputs.len());
            for &idx in &od.inputs {
                if idx >= n {
                    return Err(structure(format!(
                        "operator {j} reads tensor {idx}, out of range ({n} tensors)"
                    )));
                }
                if idx >= t {
                    return Err(ImportError::CyclicReference {
                        operator: j,
                        tensor: idx,
                    });
                }
                operand_ids.push(node_ids[idx]);
            }
            let op = build_op(&buf, od, j, t, max_opcode)?;
            let id = builder.apply_named(op, &operand_ids, &decl.name)?;
            let inferred = builder.shape_of(id)?;
            if inferred.dims() != decl.dims.as_slice() {
                return Err(structure(format!(
                    "tensor {t} declares shape {:?}, operator {j} produces {:?}",
                    decl.dims,
                    inferred.dims()
                )));
            }
            let inferred_dtype = builder.dtype_of(id)?;
            if inferred_dtype != decl.dtype {
                return Err(structure(format!(
                    "tensor {t} declares dtype {}, operator {j} produces {inferred_dtype}",
                    decl.dtype
                )));
            }
            j += 1;
            id
        };
        node_ids.push(id);
    }
    if j != ops.len() {
        return Err(structure(format!(
            "{} trailing operators after all {n} tensors are placed",
            ops.len() - j
        )));
    }

    let outputs: Vec<_> = model_outputs
        .iter()
        .map(|&o| {
            let o = o as usize;
            node_ids.get(o).copied().ok_or_else(|| {
                structure(format!("model output index {o} out of range ({n} tensors)"))
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(builder.finish(&outputs)?)
}

fn structure(detail: String) -> ImportError {
    ImportError::Structure { detail }
}

/// Parses one tensor table: name, shape (element count capped), dtype,
/// buffer reference, and — if present — quantization parameters, which
/// are validated against the dtype and discarded (graph semantics carry
/// quantization explicitly as requantize chains).
fn parse_tensor(
    buf: &Buf<'_>,
    t: usize,
    pos: usize,
    n_buffers: usize,
) -> Result<Decl, ImportError> {
    let table = Table::at(buf, pos)?;
    let name = fb::string(buf, table.req_offset(buf, tensor::NAME, "tensor name")?)?;
    let dims: Vec<usize> = fb::u32_vec(buf, table.req_offset(buf, tensor::SHAPE, "tensor shape")?)?
        .into_iter()
        .map(|d| d as usize)
        .collect();
    checked_elements(&dims).ok_or_else(|| {
        structure(format!(
            "tensor {t} shape {dims:?} exceeds {MAX_TENSOR_ELEMENTS} elements"
        ))
    })?;
    let code = table.i8_or(buf, tensor::DTYPE, 0)?;
    let dtype =
        dtype_code::decode(code).ok_or(ImportError::UnsupportedDType { tensor: t, code })?;
    let buffer = table.u32_or(buf, tensor::BUFFER, 0)? as usize;
    if buffer >= n_buffers {
        return Err(structure(format!(
            "tensor {t} references buffer {buffer}, out of range ({n_buffers} buffers)"
        )));
    }
    if let Some(qpos) = table.offset(buf, tensor::QUANT)? {
        let qt = Table::at(buf, qpos)?;
        let zero_point = qt.i32_or(buf, quant::ZERO_POINT, 0)?;
        let shift = qt.u32_or(buf, quant::SHIFT, 0)?;
        if shift > 31 {
            return Err(ImportError::InconsistentQuant {
                tensor: t,
                detail: format!("requantize shift {shift} exceeds the 32-bit accumulator"),
            });
        }
        if !dtype.contains(zero_point) {
            return Err(ImportError::InconsistentQuant {
                tensor: t,
                detail: format!("zero point {zero_point} outside the {dtype} range"),
            });
        }
    }
    Ok(Decl {
        name,
        dims,
        dtype,
        buffer,
    })
}

/// Checked element product, `None` past [`MAX_TENSOR_ELEMENTS`].
fn checked_elements(dims: &[usize]) -> Option<usize> {
    dims.iter().try_fold(1usize, |acc, &d| {
        acc.checked_mul(d).filter(|&p| p <= MAX_TENSOR_ELEMENTS)
    })
}

fn parse_operator(buf: &Buf<'_>, pos: usize) -> Result<OpDecl, ImportError> {
    let table = Table::at(buf, pos)?;
    let opcode = table.u32_or(buf, operator::OPCODE, 0)?;
    let inputs = fb::u32_vec(
        buf,
        table.req_offset(buf, operator::INPUTS, "operator inputs")?,
    )?
    .into_iter()
    .map(|i| i as usize)
    .collect();
    let output = table.u32_or(buf, operator::OUTPUT, 0)? as usize;
    Ok(OpDecl {
        table,
        opcode,
        inputs,
        output,
    })
}

/// Reads a capped geometry attribute (stride, padding, kernel extent).
fn geom(
    buf: &Buf<'_>,
    od: &OpDecl,
    slot: usize,
    default: u32,
    j: usize,
    what: &str,
) -> Result<usize, ImportError> {
    let v = od.table.u32_or(buf, slot, default)?;
    if v > MAX_ATTR {
        return Err(structure(format!(
            "operator {j}: {what} {v} exceeds limit {MAX_ATTR}"
        )));
    }
    Ok(v as usize)
}

fn padding(buf: &Buf<'_>, od: &OpDecl, j: usize) -> Result<Padding2d, ImportError> {
    Ok(Padding2d::new(
        geom(buf, od, operator::PAD_TOP, 0, j, "pad_top")?,
        geom(buf, od, operator::PAD_BOTTOM, 0, j, "pad_bottom")?,
        geom(buf, od, operator::PAD_LEFT, 0, j, "pad_left")?,
        geom(buf, od, operator::PAD_RIGHT, 0, j, "pad_right")?,
    ))
}

fn strides(buf: &Buf<'_>, od: &OpDecl, j: usize) -> Result<(usize, usize), ImportError> {
    Ok((
        geom(buf, od, operator::STRIDE_Y, 1, j, "stride_y")?,
        geom(buf, od, operator::STRIDE_X, 1, j, "stride_x")?,
    ))
}

/// Translates operator `j` (producing tensor `out_t`) to an IR [`Op`],
/// rejecting opcodes above `max_opcode` as [`ImportError::UnsupportedOp`].
fn build_op(
    buf: &Buf<'_>,
    od: &OpDecl,
    j: usize,
    out_t: usize,
    max_opcode: u32,
) -> Result<Op, ImportError> {
    if od.opcode > max_opcode {
        return Err(ImportError::UnsupportedOp {
            operator: j,
            opcode: od.opcode,
        });
    }
    Ok(match od.opcode {
        opcode::CONV_2D => Op::Conv2d {
            strides: strides(buf, od, j)?,
            padding: padding(buf, od, j)?,
        },
        opcode::DEPTHWISE_CONV_2D => Op::DepthwiseConv2d {
            strides: strides(buf, od, j)?,
            padding: padding(buf, od, j)?,
        },
        opcode::FULLY_CONNECTED => Op::Dense,
        opcode::BIAS_ADD => Op::BiasAdd,
        opcode::RIGHT_SHIFT => Op::RightShift {
            amount: od.table.u32_or(buf, operator::AMOUNT, 0)?,
        },
        opcode::CLIP => Op::Clip {
            min: od.table.i32_or(buf, operator::MIN, 0)?,
            max: od.table.i32_or(buf, operator::MAX, 0)?,
        },
        opcode::CAST => {
            let code = od.table.i8_or(buf, operator::TO_DTYPE, -1)?;
            Op::Cast {
                to: dtype_code::decode(code).ok_or(ImportError::UnsupportedDType {
                    tensor: out_t,
                    code,
                })?,
            }
        }
        opcode::RELU => Op::Relu,
        opcode::ADD => Op::Add,
        opcode::POOL_2D => Op::Pool2d {
            kind: match od.table.u8_or(buf, operator::POOL_KIND, 0)? {
                0 => PoolKind::Avg,
                1 => PoolKind::Max,
                k => return Err(structure(format!("operator {j}: unknown pool kind {k}"))),
            },
            kernel: (
                geom(buf, od, operator::KERNEL_Y, 1, j, "kernel_y")?,
                geom(buf, od, operator::KERNEL_X, 1, j, "kernel_x")?,
            ),
            strides: strides(buf, od, j)?,
            padding: padding(buf, od, j)?,
        },
        opcode::SOFTMAX => Op::Softmax,
        opcode::RESHAPE => {
            let pos = od
                .table
                .req_offset(buf, operator::NEW_SHAPE, "reshape new_shape")?;
            let new_shape: Vec<usize> = fb::u32_vec(buf, pos)?
                .into_iter()
                .map(|d| d as usize)
                .collect();
            checked_elements(&new_shape).ok_or_else(|| {
                structure(format!(
                    "operator {j}: reshape target {new_shape:?} exceeds {MAX_TENSOR_ELEMENTS} elements"
                ))
            })?;
            Op::Reshape { new_shape }
        }
        opcode::FLATTEN => Op::Flatten,
        opcode::MATMUL => Op::MatMul {
            transpose_b: od.table.u8_or(buf, operator::TRANSPOSE_B, 0)? != 0,
        },
        opcode::LAYER_NORM => Op::LayerNorm,
        other => {
            return Err(ImportError::UnsupportedOp {
                operator: j,
                opcode: other,
            })
        }
    })
}

/// Decodes constant tensor `t` from its buffer table: the length check
/// here, then one pass that widens every element and range-checks the
/// only dtype a byte can leave (`Ternary`). The tensor enters the graph
/// without being scanned again.
fn decode_buffer(
    buf: &Buf<'_>,
    t: usize,
    decl: &Decl,
    buffer_pos: usize,
) -> Result<Tensor, ImportError> {
    let table = Table::at(buf, buffer_pos)?;
    let bytes = match table.offset(buf, buffer_slot::DATA)? {
        Some(pos) => fb::byte_vec(buf, pos)?,
        None => &[],
    };
    let elements = checked_elements(&decl.dims).unwrap_or(0); // validated in parse_tensor
    let ew = dtype_code::elem_bytes(decl.dtype);
    let expected = elements * ew;
    if bytes.len() != expected {
        return Err(ImportError::DataMismatch {
            tensor: t,
            expected_bytes: expected,
            got_bytes: bytes.len(),
        });
    }
    Tensor::from_le_bytes(decl.dtype, &decl.dims, bytes).map_err(|e| match e {
        IrError::ValueOutOfRange { value, dtype } => ImportError::ValueOutOfRange {
            tensor: t,
            value,
            dtype,
        },
        other => ImportError::Graph(other),
    })
}
