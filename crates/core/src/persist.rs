//! Persistence of a trained CMP neural network: UNet weights plus the
//! height normalization and extraction configuration it was trained with,
//! in one self-contained text bundle.
//!
//! A surrogate is only meaningful together with its normalization
//! constants — loading weights with a different [`HeightNorm`] silently
//! mis-scales every prediction — so the bundle keeps them inseparable.

use crate::cmp_nn::{CmpNeuralNetwork, CmpNnConfig, HeightNorm};
use crate::extraction::{ExtractionConfig, NUM_CHANNELS};
use neurfill_layout::DummySpec;
use neurfill_nn::{serialize, Module, UNet, UNetConfig};
use rand::SeedableRng;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

const MAGIC: &str = "neurfill-surrogate v1";
/// Start of a `neurfill-<name> v<n>` section line after the weight block.
/// Weight lines are 8-hex-digit values and `count`/`param`/`buffer`
/// headers, so the marker cannot occur inside the weights.
const TRAILER_MARKER: &str = "\nneurfill-";

/// Writes a trained network bundle to `w`.
///
/// A `&mut` reference can be passed for `w` (see `std::io::Write`).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn save_network<W: Write>(network: &CmpNeuralNetwork, mut w: W) -> io::Result<()> {
    writeln!(w, "{MAGIC}")?;
    let cfg = network.unet().config();
    writeln!(w, "unet {} {} {} {}", cfg.in_channels, cfg.out_channels, cfg.base_channels, cfg.depth)?;
    let norm = network.height_norm();
    writeln!(w, "height_norm {} {}", norm.offset_nm, norm.scale_nm)?;
    let ex = network.extraction();
    writeln!(
        w,
        "extraction {} {} {} {}",
        ex.perimeter_scale, ex.width_scale, ex.dummy.edge_um, ex.dummy.bytes_per_dummy
    )?;
    serialize::save_parameters(network.unet(), &mut w)
}

/// Reads a bundle written by [`save_network`].
///
/// Bundles written before the int8 engine was removed may carry a
/// `neurfill-calibration v1` section after the weights, and a later writer
/// may append other `neurfill-<name> v<n>` sections: the weights end at
/// the first such line and the rest is ignored.
///
/// A `&mut` reference can be passed for `r` (see `std::io::Read`).
///
/// # Errors
///
/// Returns `InvalidData` on any format violation, on an architecture this
/// build cannot wrap (`CmpNeuralNetwork` needs [`NUM_CHANNELS`] inputs and
/// one output plane) and on one that declares more weights than the
/// bundle has bytes for.
pub fn load_network<R: Read>(r: R) -> io::Result<CmpNeuralNetwork> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut reader = BufReader::new(r);
    let mut line = String::new();

    let mut next_line = |reader: &mut BufReader<R>| -> io::Result<String> {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "unexpected end of bundle"));
        }
        Ok(line.trim_end().to_string())
    };

    if next_line(&mut reader)? != MAGIC {
        return Err(bad("not a neurfill surrogate bundle".into()));
    }
    let unet_line = next_line(&mut reader)?;
    let parts: Vec<usize> = unet_line
        .strip_prefix("unet ")
        .ok_or_else(|| bad(format!("bad unet line: {unet_line:?}")))?
        .split_whitespace()
        .map(|t| t.parse().map_err(|e| bad(format!("bad unet field {t:?}: {e}"))))
        .collect::<io::Result<_>>()?;
    let [in_c, out_c, base, depth] = parts[..] else {
        return Err(bad("unet line needs 4 fields".into()));
    };
    if in_c != NUM_CHANNELS {
        return Err(bad(format!(
            "bundle has {in_c} input channels; this build extracts {NUM_CHANNELS}"
        )));
    }
    if out_c != 1 || base == 0 || depth == 0 {
        return Err(bad(format!("unsupported unet architecture: {unet_line:?}")));
    }
    let norm_line = next_line(&mut reader)?;
    let nums: Vec<f64> = norm_line
        .strip_prefix("height_norm ")
        .ok_or_else(|| bad(format!("bad height_norm line: {norm_line:?}")))?
        .split_whitespace()
        .map(|t| t.parse().map_err(|e| bad(format!("bad norm field {t:?}: {e}"))))
        .collect::<io::Result<_>>()?;
    let [offset_nm, scale_nm] = nums[..] else {
        return Err(bad("height_norm needs 2 fields".into()));
    };
    let ex_line = next_line(&mut reader)?;
    let exs: Vec<f64> = ex_line
        .strip_prefix("extraction ")
        .ok_or_else(|| bad(format!("bad extraction line: {ex_line:?}")))?
        .split_whitespace()
        .map(|t| t.parse().map_err(|e| bad(format!("bad extraction field {t:?}: {e}"))))
        .collect::<io::Result<_>>()?;
    let [perimeter_scale, width_scale, edge_um, bytes_per_dummy] = exs[..] else {
        return Err(bad("extraction needs 4 fields".into()));
    };

    // The weight parser buffers internally, so the remainder of the bundle
    // is read whole and cut at the first trailing section.
    let mut rest = String::new();
    reader.read_to_string(&mut rest)?;
    let weights = rest.find(TRAILER_MARKER).map_or(rest.as_str(), |pos| &rest[..=pos]);
    // A weight is 8 hex digits and a newline, so a bundle cannot declare
    // more values than a ninth of its bytes — checked before `UNet::new`
    // allocates for whatever the header claims.
    let config = UNetConfig { in_channels: in_c, out_channels: out_c, base_channels: base, depth };
    if config.value_count().is_none_or(|n| n > weights.len() / 9) {
        return Err(bad(format!(
            "unet line {unet_line:?} declares more weights than {} bytes can carry",
            weights.len()
        )));
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let unet = UNet::new(config, &mut rng);
    serialize::load_parameters(&unet, weights.as_bytes())?;
    unet.set_training(false);
    Ok(CmpNeuralNetwork::new(
        unet,
        HeightNorm { offset_nm, scale_nm },
        ExtractionConfig { perimeter_scale, width_scale, dummy: DummySpec { edge_um, bytes_per_dummy } },
        CmpNnConfig::default(),
    ))
}

/// Saves a network bundle to a file path.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn save_to_file(network: &CmpNeuralNetwork, path: impl AsRef<Path>) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    save_network(network, io::BufWriter::new(f))
}

/// Loads a network bundle from a file path.
///
/// # Errors
///
/// Propagates file-system and format errors.
pub fn load_from_file(path: impl AsRef<Path>) -> io::Result<CmpNeuralNetwork> {
    load_network(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurfill_layout::{DesignKind, DesignSpec};

    fn network() -> CmpNeuralNetwork {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let unet = UNet::new(
            UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 2 },
            &mut rng,
        );
        CmpNeuralNetwork::new(
            unet,
            HeightNorm { offset_nm: 123.0, scale_nm: 4.5 },
            ExtractionConfig { perimeter_scale: 77_000.0, ..ExtractionConfig::default() },
            CmpNnConfig::default(),
        )
    }

    #[test]
    fn roundtrip_preserves_predictions_and_config() {
        let net = network();
        let mut buf = Vec::new();
        save_network(&net, &mut buf).unwrap();
        let back = load_network(buf.as_slice()).unwrap();
        assert_eq!(back.height_norm().offset_nm, 123.0);
        assert_eq!(back.height_norm().scale_nm, 4.5);
        assert_eq!(back.extraction().perimeter_scale, 77_000.0);

        let layout = DesignSpec::new(DesignKind::CmpTest, 8, 8, 1).generate();
        let a = net.predict_layer_heights(&layout, 0).unwrap();
        let b = back.predict_layer_heights(&layout, 0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let net = network();
        let mut first = Vec::new();
        save_network(&net, &mut first).unwrap();
        let reloaded = load_network(first.as_slice()).unwrap();
        let mut second = Vec::new();
        save_network(&reloaded, &mut second).unwrap();
        assert_eq!(first, second, "persistence must be a fixed point");
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(load_network(b"nope".as_slice()).is_err());
        let net = network();
        let mut buf = Vec::new();
        save_network(&net, &mut buf).unwrap();
        let cut = &buf[..buf.len() / 3];
        assert!(load_network(cut).is_err());
    }

    #[test]
    fn corrupt_headers_error_cleanly() {
        let net = network();
        let mut buf = Vec::new();
        save_network(&net, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();

        // Wrong magic and wrong version must both be InvalidData, not a
        // panic deeper in the parameter parser.
        for bad_magic in ["other-format v1", "neurfill-surrogate v2"] {
            let corrupted = text.replacen(MAGIC, bad_magic, 1);
            let err = load_network(corrupted.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad_magic}");
        }

        // Truncation anywhere — headers or mid-weights — errors cleanly.
        for cut in [5, 30, text.len() / 2, text.len() - 3] {
            assert!(load_network(&buf[..cut]).is_err(), "cut at {cut}");
        }

        // A mangled weight value errors instead of panicking.
        let weight_line = text
            .lines()
            .find(|l| l.len() == 8 && l.bytes().all(|b| b.is_ascii_hexdigit()))
            .expect("bundle contains hex weight lines");
        let mangled = text.replacen(weight_line, "zzzzzzzz", 1);
        assert!(load_network(mangled.as_bytes()).is_err());
    }

    /// A bundle the parent commit (PR 16) wrote for a calibrated network:
    /// weights followed by a `neurfill-calibration v1` section.
    const CALIBRATED_PR16: &[u8] = include_bytes!("../tests/fixtures/calibrated_pr16.bundle");

    #[test]
    fn calibrated_bundle_from_before_the_removal_loads_and_resaves_without_the_section() {
        let text = std::str::from_utf8(CALIBRATED_PR16).unwrap();
        let cut = text.find("neurfill-calibration v1\n").expect("fixture carries the section");
        let with = load_network(CALIBRATED_PR16).unwrap();
        let without = load_network(&CALIBRATED_PR16[..cut]).unwrap();

        let layout = DesignSpec::new(DesignKind::CmpTest, 8, 8, 1).generate();
        for layer in 0..layout.num_layers() {
            assert_eq!(
                with.predict_layer_heights(&layout, layer).unwrap(),
                without.predict_layer_heights(&layout, layer).unwrap()
            );
        }
        let mut resaved = Vec::new();
        save_network(&with, &mut resaved).unwrap();
        assert_eq!(resaved, &CALIBRATED_PR16[..cut], "re-saving drops the section and nothing else");
    }

    #[test]
    fn unknown_trailing_section_is_ignored() {
        let net = network();
        let mut plain = Vec::new();
        save_network(&net, &mut plain).unwrap();
        let layout = DesignSpec::new(DesignKind::CmpTest, 8, 8, 1).generate();
        let want = net.predict_layer_heights(&layout, 0).unwrap();
        for trailer in [
            "neurfill-future-section v9\nopaque payload\n",
            "neurfill-calibration v1\nscales 1\n3c763ca2\nchecksum 00000000\n",
            "neurfill-calibration v1\nscales 1\n3c763ca2\nchecksum 00000000\nneurfill-future-section v9\n",
        ] {
            let mut buf = plain.clone();
            buf.extend_from_slice(trailer.as_bytes());
            let back = load_network(buf.as_slice()).unwrap();
            assert_eq!(back.predict_layer_heights(&layout, 0).unwrap(), want, "{trailer:?}");
        }
    }

    #[test]
    fn hostile_unet_headers_are_invalid_data_not_a_panic_or_an_allocation() {
        let net = network();
        let mut buf = Vec::new();
        save_network(&net, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let honest = format!("unet {NUM_CHANNELS} 1 4 2");
        assert!(text.contains(&honest));
        let max = usize::MAX;
        for header in [
            // Two output planes, no base channels, no stages: architectures
            // `CmpNeuralNetwork::new` / `UNet::new` assert against.
            format!("unet {NUM_CHANNELS} 2 4 2"),
            format!("unet {NUM_CHANNELS} 1 0 2"),
            format!("unet {NUM_CHANNELS} 1 4 0"),
            // Architectures far larger than the bytes that follow (`UNet::new`
            // would allocate `base << depth` channels), some overflowing.
            format!("unet {NUM_CHANNELS} 1 8 70"),
            format!("unet {NUM_CHANNELS} 1 4 {max}"),
            format!("unet {NUM_CHANNELS} 1 {max} 2"),
            format!("unet {NUM_CHANNELS} 1 4096 12"),
            // One stage more than the weights that follow were saved for.
            format!("unet {NUM_CHANNELS} 1 4 3"),
        ] {
            let err = load_network(text.replacen(&honest, &header, 1).as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{header}: {err}");
        }
        // The header-only body of the same kind: nothing follows to size
        // the architecture against.
        let bare = format!("{MAGIC}\nunet {NUM_CHANNELS} 1 8 70\nheight_norm 0 1\nextraction 1 1 1 1");
        assert_eq!(load_network(bare.as_bytes()).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn file_roundtrip() {
        let net = network();
        let path = std::env::temp_dir().join("neurfill_persist_test.bundle");
        save_to_file(&net, &path).unwrap();
        let back = load_from_file(&path).unwrap();
        assert_eq!(back.unet().num_parameters(), net.unet().num_parameters());
        let _ = std::fs::remove_file(&path);
    }
}
