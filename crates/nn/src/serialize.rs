//! Weight serialization in a self-contained text format.
//!
//! Parameters are saved positionally (the order of
//! [`crate::Module::parameters`] is the contract), each with its shape, so
//! loading validates architecture compatibility. The format is plain text:
//!
//! ```text
//! neurfill-weights v1
//! param 0 shape 8 6 3 3
//! <one f32 per line, row-major, in hexadecimal bit pattern>
//! ...
//! ```
//!
//! Hexadecimal bit patterns round-trip `f32` exactly. A block — its
//! `<kind> <i> shape …` header and its values — is written by
//! [`write_block`] and read by [`read_block`]; training checkpoints store
//! their optimizer moments in the same blocks.

use crate::module::Module;
use neurfill_tensor::NdArray;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};

const MAGIC: &str = "neurfill-weights v1";

/// Serializes the parameters of `module` to a writer.
///
/// A `&mut` reference can be passed for `w` (see `std::io::Write`).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn save_parameters<W: Write>(module: &dyn Module, mut w: W) -> io::Result<()> {
    let params = module.parameters();
    writeln!(w, "{MAGIC}")?;
    writeln!(w, "count {}", params.len())?;
    for (i, p) in params.iter().enumerate() {
        write_block(&mut w, "param", i, &p.value())?;
    }
    let buffers = module.buffers();
    writeln!(w, "buffers {}", buffers.len())?;
    for (i, b) in buffers.iter().enumerate() {
        write_block(&mut w, "buffer", i, &b.borrow())?;
    }
    Ok(())
}

/// Writes `data` as block `i` of `kind`: the header
/// `<kind> <i> shape <extents…>`, then one 8-hex-digit bit pattern per
/// value, row-major.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_block<W: Write>(w: &mut W, kind: &str, i: usize, data: &NdArray) -> io::Result<()> {
    let mut header = format!("{kind} {i} shape");
    for d in data.shape() {
        let _ = write!(header, " {d}");
    }
    writeln!(w, "{header}")?;
    let mut buf = String::with_capacity(data.numel() * 9);
    for v in data.as_slice() {
        let _ = writeln!(buf, "{:08x}", v.to_bits());
    }
    w.write_all(buf.as_bytes())
}

/// Restores parameters saved by [`save_parameters`] into `module`.
///
/// A `&mut` reference can be passed for `r` (see `std::io::Read`).
///
/// # Errors
///
/// Returns `InvalidData` when the stream is not a weight file, the
/// parameter count differs, or any shape disagrees with the module.
pub fn load_parameters<R: Read>(module: &dyn Module, r: R) -> io::Result<()> {
    let mut lines = BufReader::new(r).lines();
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let magic = lines.next().ok_or_else(|| bad("empty weight file".into()))??;
    if magic.trim() != MAGIC {
        return Err(bad(format!("bad magic line: {magic:?}")));
    }
    let count_line = lines.next().ok_or_else(|| bad("missing count".into()))??;
    let count: usize = count_line
        .strip_prefix("count ")
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| bad(format!("bad count line: {count_line:?}")))?;
    let params = module.parameters();
    if params.len() != count {
        return Err(bad(format!("weight file has {count} parameters but module has {}", params.len())));
    }
    for (i, p) in params.iter().enumerate() {
        let arr = read_block(&mut lines, "param", i, &p.shape())?;
        p.set_data(arr);
    }
    // The buffers section is required by the v1 format.
    let buffers = module.buffers();
    let buf_line = lines.next().ok_or_else(|| bad("missing buffers section".into()))??;
    let buf_count: usize = buf_line
        .strip_prefix("buffers ")
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| bad(format!("bad buffers line: {buf_line:?}")))?;
    if buffers.len() != buf_count {
        return Err(bad(format!(
            "weight file has {buf_count} buffers but module has {}",
            buffers.len()
        )));
    }
    for (i, b) in buffers.iter().enumerate() {
        let shape = b.borrow().shape().to_vec();
        let arr = read_block(&mut lines, "buffer", i, &shape)?;
        *b.borrow_mut() = arr;
    }
    Ok(())
}

/// Reads block `i` of `kind` written by [`write_block`] from `lines`. The
/// header's shape must equal `expect_shape` before anything is sized from
/// it, and every value must be exactly 8 hex digits.
///
/// # Errors
///
/// Returns `InvalidData` on a missing, malformed or out-of-order header,
/// another shape, and a truncated or malformed value; propagates read
/// errors.
pub fn read_block(
    lines: &mut impl Iterator<Item = io::Result<String>>,
    kind: &str,
    i: usize,
    expect_shape: &[usize],
) -> io::Result<NdArray> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let header = lines.next().ok_or_else(|| bad(format!("missing header for {kind} {i}")))??;
    let shape = parse_header(&header, kind, i).map_err(bad)?;
    if shape != expect_shape {
        return Err(bad(format!("{kind} {i}: file shape {shape:?} != module shape {expect_shape:?}")));
    }
    let n: usize = shape.iter().product();
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        let line = lines.next().ok_or_else(|| bad(format!("truncated data for {kind} {i}")))??;
        let hex = line.trim();
        // Values are written as exactly 8 hex digits; anything shorter is a
        // truncated stream that would otherwise parse to a corrupt f32.
        if hex.len() != 8 {
            return Err(bad(format!("bad value {line:?}: expected 8 hex digits")));
        }
        let bits = u32::from_str_radix(hex, 16).map_err(|e| bad(format!("bad value {line:?}: {e}")))?;
        data.push(f32::from_bits(bits));
    }
    NdArray::from_vec(data, &shape).map_err(|e| bad(format!("shape error for {kind} {i}: {e}")))
}

fn parse_header(header: &str, kind: &str, expect_index: usize) -> Result<Vec<usize>, String> {
    let mut it = header.split_whitespace();
    if it.next() != Some(kind) {
        return Err(format!("bad {kind} header: {header:?}"));
    }
    let idx: usize = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad {kind} index in {header:?}"))?;
    if idx != expect_index {
        return Err(format!("{kind} index {idx} out of order (expected {expect_index})"));
    }
    if it.next() != Some("shape") {
        return Err(format!("missing shape in {header:?}"));
    }
    it.map(|s| s.parse().map_err(|e| format!("bad extent {s:?}: {e}"))).collect()
}

/// Copies parameter values from `src` into `dst` (architectures must match
/// positionally).
///
/// # Errors
///
/// Returns `InvalidData` on count or shape mismatch.
pub fn copy_parameters(src: &dyn Module, dst: &dyn Module) -> io::Result<()> {
    let sp = src.parameters();
    let dp = dst.parameters();
    if sp.len() != dp.len() {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "parameter count mismatch"));
    }
    for (s, d) in sp.iter().zip(&dp) {
        if s.shape() != d.shape() {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "parameter shape mismatch"));
        }
        d.set_data(s.value());
    }
    let sb = src.buffers();
    let db = dst.buffers();
    if sb.len() != db.len() {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "buffer count mismatch"));
    }
    for (s, d) in sb.iter().zip(&db) {
        *d.borrow_mut() = s.borrow().clone();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Conv2d;
    use crate::unet::{UNet, UNetConfig};
    use neurfill_tensor::Tensor as T;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_preserves_exact_bits() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let a = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let b = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let mut buf = Vec::new();
        save_parameters(&a, &mut buf).unwrap();
        load_parameters(&b, buf.as_slice()).unwrap();
        for (pa, pb) in a.parameters().iter().zip(b.parameters()) {
            assert_eq!(pa.value(), pb.value());
        }
    }

    #[test]
    fn load_rejects_wrong_architecture() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let a = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let b = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
        let mut buf = Vec::new();
        save_parameters(&a, &mut buf).unwrap();
        assert!(load_parameters(&b, buf.as_slice()).is_err());
    }

    #[test]
    fn load_rejects_garbage() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let a = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        assert!(load_parameters(&a, b"not a weight file".as_slice()).is_err());
    }

    #[test]
    fn unet_roundtrip_produces_identical_outputs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let cfg = UNetConfig { in_channels: 2, out_channels: 1, base_channels: 2, depth: 1 };
        let a = UNet::new(cfg.clone(), &mut rng);
        let b = UNet::new(cfg, &mut rng);
        use crate::module::Module as _;
        // Drift a's running statistics so the roundtrip must carry buffers.
        let x = T::constant(neurfill_tensor::NdArray::from_fn(&[2, 2, 4, 4], |i| i as f32 * 0.1));
        for _ in 0..5 {
            a.forward(&x).unwrap();
        }
        let mut buf = Vec::new();
        save_parameters(&a, &mut buf).unwrap();
        load_parameters(&b, buf.as_slice()).unwrap();
        a.set_training(false);
        b.set_training(false);
        let probe = T::constant(neurfill_tensor::NdArray::from_fn(&[1, 2, 4, 4], |i| i as f32 * 0.1));
        let ya = a.forward(&probe).unwrap().value();
        let yb = b.forward(&probe).unwrap().value();
        assert_eq!(ya, yb);
    }

    #[test]
    fn copy_parameters_carries_buffers() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let cfg = UNetConfig { in_channels: 1, out_channels: 1, base_channels: 2, depth: 1 };
        let a = UNet::new(cfg.clone(), &mut rng);
        let b = UNet::new(cfg, &mut rng);
        use crate::module::Module as _;
        let x = T::constant(neurfill_tensor::NdArray::from_fn(&[2, 1, 4, 4], |i| i as f32));
        for _ in 0..5 {
            a.forward(&x).unwrap();
        }
        copy_parameters(&a, &b).unwrap();
        for (ba, bb) in a.buffers().iter().zip(b.buffers()) {
            assert_eq!(*ba.borrow(), *bb.borrow());
        }
    }
}
