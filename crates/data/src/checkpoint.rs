//! Training checkpoints: everything needed to resume pre-training
//! *bit-exactly* — model weights, Adam moments, RNG state and the
//! epoch/shard cursor — in one self-contained text bundle.
//!
//! ```text
//! neurfill-checkpoint v1
//! epoch <next epoch to run>
//! shard_cursor <next shard index within that epoch>
//! rng <s0> <s1> <s2> <s3>          (xoshiro256** words, 16 hex digits each)
//! adam_t <bias-correction step count>
//! adam_m <param count>
//! moment 0 shape 8 4 3 3           (or `moment 0 none` before first step)
//! <one f32 per line, 8 hex digits>
//! ...
//! adam_v <param count>
//! ...
//! neurfill-weights v1              (embedded `nn::serialize` section)
//! ...
//! ```
//!
//! Every float is stored as its exact bit pattern, so
//! save → load → save is byte-identical and a resumed run walks the exact
//! gradient/shuffle trajectory of an uninterrupted one.
//!
//! The reader never sizes a buffer from the file: the moment count and
//! every moment shape must equal the parameters of the model it restores
//! into before a value is read. The file writer replaces a checkpoint
//! through [`write_durable`], so a kill mid-save leaves the previous one.

use neurfill_layout::io::write_durable;
use neurfill_nn::{serialize, AdamState, Module};
use neurfill_tensor::{NdArray, Tensor};
use rand::rngs::StdRng;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

const MAGIC: &str = "neurfill-checkpoint v1";

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Resumable training state (weights travel separately, embedded in the
/// same bundle via `nn::serialize`).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// Next epoch to run (zero-based).
    pub epoch: usize,
    /// Next shard index within that epoch.
    pub shard_cursor: usize,
    /// Raw xoshiro256** state of the training RNG.
    pub rng_state: [u64; 4],
    /// Positional Adam optimizer snapshot.
    pub adam: AdamState,
}

impl TrainCheckpoint {
    /// The training RNG positioned exactly where the checkpoint was taken.
    #[must_use]
    pub fn rng(&self) -> StdRng {
        StdRng::from_state(self.rng_state)
    }
}

/// Writes a checkpoint bundle: the resumable state followed by the
/// model's weights.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn save_checkpoint<W: Write>(
    ckpt: &TrainCheckpoint,
    model: &dyn Module,
    mut w: W,
) -> io::Result<()> {
    writeln!(w, "{MAGIC}")?;
    writeln!(w, "epoch {}", ckpt.epoch)?;
    writeln!(w, "shard_cursor {}", ckpt.shard_cursor)?;
    let [s0, s1, s2, s3] = ckpt.rng_state;
    writeln!(w, "rng {s0:016x} {s1:016x} {s2:016x} {s3:016x}")?;
    writeln!(w, "adam_t {}", ckpt.adam.t)?;
    for (key, moments) in [("adam_m", &ckpt.adam.m), ("adam_v", &ckpt.adam.v)] {
        writeln!(w, "{key} {}", moments.len())?;
        for (i, moment) in moments.iter().enumerate() {
            match moment {
                None => writeln!(w, "moment {i} none")?,
                Some(arr) => {
                    let mut header = format!("moment {i} shape");
                    for d in arr.shape() {
                        let _ = write!(header, " {d}");
                    }
                    writeln!(w, "{header}")?;
                    let mut buf = String::with_capacity(arr.numel() * 9);
                    for v in arr.as_slice() {
                        let _ = writeln!(buf, "{:08x}", v.to_bits());
                    }
                    w.write_all(buf.as_bytes())?;
                }
            }
        }
    }
    serialize::save_parameters(model, w)
}

/// Reads a bundle written by [`save_checkpoint`], restoring the weights
/// into `model` and returning the resumable state.
///
/// # Errors
///
/// Returns `InvalidData` on any format violation, truncation, or
/// architecture mismatch with `model` — a moment count or shape that is
/// not `model`'s is refused before anything is allocated for it.
pub fn load_checkpoint<R: Read>(model: &dyn Module, r: R) -> io::Result<TrainCheckpoint> {
    let mut reader = BufReader::new(r);
    let mut line = String::new();
    let mut next = |reader: &mut BufReader<R>, what: &str| -> io::Result<String> {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad(format!("checkpoint truncated before {what}")));
        }
        Ok(line.trim_end().to_string())
    };

    if next(&mut reader, "magic")? != MAGIC {
        return Err(bad("not a neurfill checkpoint"));
    }
    let scalar = |line: &str, key: &str| -> io::Result<u64> {
        line.strip_prefix(key)
            .and_then(|r| r.strip_prefix(' '))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| bad(format!("expected `{key} <n>`, got {line:?}")))
    };
    let epoch = scalar(&next(&mut reader, "epoch")?, "epoch")? as usize;
    let shard_cursor = scalar(&next(&mut reader, "shard_cursor")?, "shard_cursor")? as usize;

    let rng_line = next(&mut reader, "rng")?;
    let words: Vec<u64> = rng_line
        .strip_prefix("rng ")
        .ok_or_else(|| bad(format!("expected `rng` line, got {rng_line:?}")))?
        .split_whitespace()
        .map(|t| u64::from_str_radix(t, 16).map_err(|e| bad(format!("bad rng word {t:?}: {e}"))))
        .collect::<io::Result<_>>()?;
    let rng_state: [u64; 4] = words.try_into().map_err(|_| bad("rng line needs 4 words".to_string()))?;

    let t = u32::try_from(scalar(&next(&mut reader, "adam_t")?, "adam_t")?)
        .map_err(|e| bad(format!("adam_t out of range: {e}")))?;
    let params = model.parameters();
    let mut sections = Vec::with_capacity(2);
    for key in ["adam_m", "adam_v"] {
        let count = scalar(&next(&mut reader, key)?, key)?;
        if count != params.len() as u64 {
            return Err(bad(format!("{key} holds {count} moments but the model has {}", params.len())));
        }
        let mut moments = Vec::with_capacity(params.len());
        for (i, param) in params.iter().enumerate() {
            moments.push(read_moment(&mut reader, &mut next, i, param)?);
        }
        sections.push(moments);
    }
    let (m, v) = match (sections.pop(), sections.pop()) {
        (Some(v), Some(m)) => (m, v),
        _ => unreachable!("two sections pushed"),
    };

    serialize::load_parameters(model, reader)?;
    Ok(TrainCheckpoint { epoch, shard_cursor, rng_state, adam: AdamState { t, m, v } })
}

/// Reads moment `i`, whose shape must be `param`'s.
fn read_moment<R: Read>(
    reader: &mut BufReader<R>,
    next: &mut impl FnMut(&mut BufReader<R>, &str) -> io::Result<String>,
    i: usize,
    param: &Tensor,
) -> io::Result<Option<NdArray>> {
    let header = next(reader, "moment header")?;
    let rest = header
        .strip_prefix(&format!("moment {i} "))
        .ok_or_else(|| bad(format!("expected `moment {i}`, got {header:?}")))?;
    if rest == "none" {
        return Ok(None);
    }
    let shape: Vec<usize> = rest
        .strip_prefix("shape")
        .ok_or_else(|| bad(format!("bad moment header {header:?}")))?
        .split_whitespace()
        .map(|t| t.parse().map_err(|e| bad(format!("bad extent {t:?}: {e}"))))
        .collect::<io::Result<_>>()?;
    if shape != param.shape() {
        return Err(bad(format!("moment {i} shape {shape:?} != parameter shape {:?}", param.shape())));
    }
    let n: usize = shape.iter().product();
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        let line = next(reader, "moment value")?;
        let hex = line.trim();
        if hex.len() != 8 {
            return Err(bad(format!("bad moment value {line:?}: expected 8 hex digits")));
        }
        let bits =
            u32::from_str_radix(hex, 16).map_err(|e| bad(format!("bad moment value {line:?}: {e}")))?;
        data.push(f32::from_bits(bits));
    }
    NdArray::from_vec(data, &shape).map(Some).map_err(|e| bad(e.to_string()))
}

/// Saves a checkpoint bundle to a file path through [`write_durable`]:
/// `path` keeps its previous contents until the new bundle is complete
/// and synced.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn save_checkpoint_file(
    ckpt: &TrainCheckpoint,
    model: &dyn Module,
    path: impl AsRef<Path>,
) -> io::Result<()> {
    let mut bytes = Vec::new();
    save_checkpoint(ckpt, model, &mut bytes)?;
    write_durable(path.as_ref(), &bytes)
}

/// Loads a checkpoint bundle from a file path.
///
/// # Errors
///
/// Propagates file-system and format errors.
pub fn load_checkpoint_file(model: &dyn Module, path: impl AsRef<Path>) -> io::Result<TrainCheckpoint> {
    load_checkpoint(model, std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurfill_nn::{Adam, UNet, UNetConfig};
    use rand::{Rng, SeedableRng};

    fn unet(seed: u64) -> UNet {
        let mut rng = StdRng::seed_from_u64(seed);
        UNet::new(UNetConfig { in_channels: 2, out_channels: 1, base_channels: 2, depth: 1 }, &mut rng)
    }

    fn stepped_checkpoint(model: &UNet) -> TrainCheckpoint {
        // Take a couple of real Adam steps so moments are populated.
        let mut opt = Adam::new(model.parameters(), 1e-3);
        for i in 0..2 {
            opt.zero_grad();
            let x = Tensor::constant(NdArray::from_fn(&[1, 2, 4, 4], |k| (k + i) as f32 * 0.1));
            let y = model.forward(&x).unwrap();
            let loss = neurfill_nn::loss::mse_loss(&y, &Tensor::constant(NdArray::zeros(&[1, 1, 4, 4])))
                .unwrap();
            loss.backward().unwrap();
            opt.step();
        }
        let mut rng = StdRng::seed_from_u64(5);
        let _: u64 = rng.gen();
        TrainCheckpoint { epoch: 3, shard_cursor: 1, rng_state: rng.state(), adam: opt.export_state() }
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let model = unet(0);
        let ckpt = stepped_checkpoint(&model);
        let mut first = Vec::new();
        save_checkpoint(&ckpt, &model, &mut first).unwrap();

        let other = unet(99);
        let back = load_checkpoint(&other, first.as_slice()).unwrap();
        assert_eq!(back, ckpt);
        let mut second = Vec::new();
        save_checkpoint(&back, &other, &mut second).unwrap();
        assert_eq!(first, second, "checkpoint persistence must be a fixed point");
    }

    #[test]
    fn restored_rng_continues_the_stream() {
        let model = unet(1);
        let mut rng = StdRng::seed_from_u64(7);
        let _: u64 = rng.gen();
        let ckpt = TrainCheckpoint {
            epoch: 0,
            shard_cursor: 0,
            rng_state: rng.state(),
            adam: Adam::new(model.parameters(), 1e-3).export_state(),
        };
        let mut buf = Vec::new();
        save_checkpoint(&ckpt, &model, &mut buf).unwrap();
        let back = load_checkpoint(&unet(2), buf.as_slice()).unwrap();
        let mut resumed = back.rng();
        let expect: u64 = rng.gen();
        assert_eq!(resumed.gen::<u64>(), expect);
    }

    #[test]
    fn rejects_garbage_truncation_and_wrong_architecture() {
        let model = unet(3);
        let ckpt = stepped_checkpoint(&model);
        let mut buf = Vec::new();
        save_checkpoint(&ckpt, &model, &mut buf).unwrap();

        assert!(load_checkpoint(&model, b"nope".as_slice()).is_err(), "garbage");
        for cut in [3, 40, buf.len() / 2, buf.len() - 5] {
            assert!(load_checkpoint(&model, &buf[..cut]).is_err(), "cut at {cut}");
        }
        // Truncated at the start of every line, and halfway into it.
        let mut start = 0;
        for len in buf.split_inclusive(|&b| b == b'\n').map(<[u8]>::len) {
            for cut in [start, start + len / 2] {
                assert!(load_checkpoint(&model, &buf[..cut]).is_err(), "cut at byte {cut}");
            }
            start += len;
        }
        // Hostile counts and shapes are refused before anything is sized
        // from them: a `usize::MAX` count, a 4 TiB moment, an extent product
        // that overflows, one moment fewer than the model has.
        let text = String::from_utf8(buf.clone()).unwrap();
        let count = model.parameters().len();
        let shape0 = model.parameters()[0].shape();
        let honest_shape = format!(
            "moment 0 shape {}",
            shape0.iter().map(ToString::to_string).collect::<Vec<_>>().join(" ")
        );
        assert!(text.contains(&format!("\nadam_m {count}\n")) && text.contains(&honest_shape));
        let max = usize::MAX;
        for (honest, hostile) in [
            (format!("adam_m {count}\n"), format!("adam_m {max}\n")),
            (format!("adam_v {count}\n"), format!("adam_v {max}\n")),
            (format!("adam_m {count}\n"), format!("adam_m {}\n", count - 1)),
            (honest_shape.clone(), "moment 0 shape 1048576 1048576".to_string()),
            (honest_shape.clone(), format!("moment 0 shape {max} 2")),
        ] {
            let err =
                load_checkpoint(&model, text.replacen(&honest, &hostile, 1).as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{hostile:?}: {err}");
        }
        // A model with a different architecture must be rejected by the
        // embedded weights section.
        let mut rng = StdRng::seed_from_u64(4);
        let other = UNet::new(
            UNetConfig { in_channels: 2, out_channels: 1, base_channels: 4, depth: 1 },
            &mut rng,
        );
        assert!(load_checkpoint(&other, buf.as_slice()).is_err(), "architecture mismatch");
    }

    #[test]
    fn a_failed_save_leaves_the_previous_checkpoint_intact() {
        let dir = std::env::temp_dir().join(format!("nf_ckpt_durable_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.txt");
        let model = unet(6);
        let ckpt = stepped_checkpoint(&model);
        save_checkpoint_file(&ckpt, &model, &path).unwrap();
        let before = std::fs::read(&path).unwrap();
        // A directory where the new bundle would be staged: the save cannot
        // even begin, and must say so without touching the old file.
        std::fs::create_dir(neurfill_layout::io::staging_path(&path)).unwrap();
        let later = TrainCheckpoint { epoch: ckpt.epoch + 1, ..ckpt };
        assert!(save_checkpoint_file(&later, &model, &path).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
