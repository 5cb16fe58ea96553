//! Hostile headers into the one layout reader. A header is the only
//! thing a short request body needs to claim ten billion windows, so the
//! reader may size nothing from it: the window count is a checked product
//! under one cap, and the grids grow only with windows that actually
//! arrive. A `window_um` that is not positive and finite is refused
//! before a layout is built from it.
//!
//! The global allocator of `support/capped_alloc.rs` records the largest
//! single request and refuses any over 1 GiB, so a reader that sizes a
//! buffer from the header fails here (allocation error) instead of
//! reserving memory.

#[path = "support/capped_alloc.rs"]
mod capped_alloc;

use neurfill_layout::io::read_layout_bits;
use std::io;

/// Runs `read` and returns its error and the largest allocation it made.
fn refused(read: impl FnOnce() -> io::Result<neurfill_layout::Layout>) -> (io::Error, usize) {
    let (result, largest) = capped_alloc::largest_allocation(read);
    (result.expect_err("a hostile header must be refused"), largest)
}

/// Ten billion windows; a product that wraps to 0 in 64 bits; exactly the
/// cap (2²⁸ windows) with no window data behind it.
const DIMS: [&str; 3] = ["1 100000 100000", "1 4294967296 4294967296", "1 16384 16384"];

/// `1.0f64.to_bits()`: a valid `window_um` and `file_size_mb`.
const ONE: &str = "3ff0000000000000";

#[test]
fn bits_reader_refuses_hostile_dims_without_sizing_from_them() {
    for dims in DIMS {
        let body = format!("neurfill-layout-bits v1\nname x\nmeta {ONE} {ONE}\ndims {dims}\n");
        let (err, largest) = refused(|| read_layout_bits(body.as_bytes()));
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{dims}: {err}");
        assert!(largest < 1 << 20, "{dims}: allocated {largest} bytes");
    }
}

#[test]
fn bits_reader_refuses_a_window_size_that_is_not_positive_and_finite() {
    for window_um in [0.0, -0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut body = format!(
            "neurfill-layout-bits v1\nname x\nmeta {:016x} {ONE}\ndims 1 1 1\n",
            window_um.to_bits()
        )
        .into_bytes();
        body.extend_from_slice(&[0u8; 32]);
        let (err, largest) = refused(|| read_layout_bits(body.as_slice()));
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{window_um}: {err}");
        assert!(err.to_string().contains("window_um"), "{window_um}: {err}");
        assert!(largest < 1 << 20, "{window_um}: allocated {largest} bytes");
    }
}
