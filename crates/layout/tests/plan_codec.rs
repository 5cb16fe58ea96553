//! The one plan codec (`neurfill_layout::io::{write_plan, read_plan}`)
//! fed hostile bytes. Whatever it is given, `read_plan` returns a typed
//! `InvalidData` error or a plan; it never panics, never sizes an
//! allocation from the header, and never hands back amounts other than
//! the ones a writer produced.
//!
//! The checksum covers the amounts line only (that is the format), so a
//! mutation of the origin digits can still decode: the properties below
//! therefore allow "decodes to the very amounts that were written, over
//! the same number of windows" as the one alternative to an error.

use neurfill_layout::io::{fnv1a, read_plan, write_plan, PlanShape};
use neurfill_layout::TileRect;
use proptest::prelude::*;
use std::io;

fn shape(layers: usize, rows: usize, cols: usize, row0: usize, col0: usize) -> PlanShape {
    PlanShape { layers, rect: TileRect { row0, col0, rows, cols } }
}

fn encode(shape: PlanShape, amounts: &[f64]) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_plan(shape, amounts, &mut bytes).unwrap();
    bytes
}

fn bits(amounts: &[f64]) -> Vec<u64> {
    amounts.iter().map(|a| a.to_bits()).collect()
}

/// A hand-assembled plan file with a correct checksum over `line`.
fn hand_built(shape_fields: &str, line: &str) -> Vec<u8> {
    format!("neurfill-plan v2\nshape {shape_fields}\nchecksum {:016x}\n{line}\n", fnv1a(line.as_bytes()))
        .into_bytes()
}

fn assert_invalid(bytes: &[u8], why: &str) {
    match read_plan(bytes) {
        Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{why}: {e}"),
        Ok(plan) => panic!("{why}: decoded {plan:?}"),
    }
}

/// A typed error, or exactly one of `sources`' amounts over its count.
fn assert_typed_or_intact(bytes: &[u8], sources: &[(PlanShape, &[f64])]) {
    match read_plan(bytes) {
        Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}"),
        Ok((got_shape, got)) => assert!(
            sources.iter().any(|(s, a)| bits(a) == bits(&got) && s.windows() == got_shape.windows()),
            "a mutation decoded to amounts no writer produced: {got_shape:?} {got:?}"
        ),
    }
}

/// Awkward values: every one needs all 17 significant digits or an
/// exponent to round-trip.
fn awkward(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64 + 0.1) / 3.0 * 10f64.powi(i as i32 % 7 - 3)).collect()
}

#[test]
fn every_special_value_round_trips_bit_for_bit() {
    let amounts = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 4.0,
        f64::from_bits(1),
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.0 / 3.0,
        0.1,
        123.456_789_012_345_67,
    ];
    let s = shape(2, 2, 3, 7, 9);
    let (back_shape, back) = read_plan(encode(s, &amounts).as_slice()).unwrap();
    assert_eq!(back_shape, s);
    assert_eq!(bits(&back), bits(&amounts));

    let (_, nan) = read_plan(encode(shape(1, 1, 1, 0, 0), &[f64::NAN]).as_slice()).unwrap();
    assert!(nan[0].is_nan());

    // A plan over no windows is a plan too.
    let empty = shape(3, 0, 4, 0, 0);
    assert_eq!(read_plan(encode(empty, &[]).as_slice()).unwrap(), (empty, Vec::new()));
}

#[test]
fn the_writer_refuses_amounts_that_do_not_fill_the_shape() {
    let err = write_plan(shape(1, 2, 2, 0, 0), &[1.0; 3], io::sink()).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
}

#[test]
fn truncation_at_every_byte_is_a_typed_error() {
    let s = shape(2, 3, 2, 4, 8);
    let bytes = encode(s, &awkward(12));
    for cut in 0..bytes.len() {
        assert_invalid(&bytes[..cut], &format!("cut at {cut} of {}", bytes.len()));
    }
}

#[test]
fn hand_picked_hostile_headers_and_bodies() {
    // Shapes whose product overflows, or does not even parse.
    assert_invalid(&hand_built("18446744073709551615 2 1 0 0", "1"), "L·R·C overflows");
    assert_invalid(&hand_built("4294967295 4294967295 3 0 0", "1 2"), "L·R·C overflows");
    assert_invalid(&hand_built("99999999999999999999 1 1 0 0", "1"), "field overflows usize");
    assert_invalid(&hand_built("-1 1 1 0 0", "1"), "negative field");
    // Huge products that fit in usize: a reader that reserved space from
    // the header would abort here instead of counting two amounts.
    assert_invalid(&hand_built("1 4294967295 4294967295 0 0", "1 2"), "2 of ~1.8e19 amounts");
    assert_invalid(&hand_built("1 1048576 1048576 0 0", "1 2"), "2 of 2^40 amounts");
    // Too many, too few, or unparsable amounts under a valid checksum.
    assert_invalid(&hand_built("1 1 2 0 0", "1 2 3"), "extra amount");
    assert_invalid(&hand_built("1 1 2 0 0", "1"), "missing amount");
    assert_invalid(&hand_built("1 1 0 0 0", "1"), "amount in an empty shape");
    assert_invalid(&hand_built("1 1 2 0 0", "1  2"), "empty token");
    assert_invalid(&hand_built("1 1 2 0 0", "1 zebra"), "not a number");
    // Header fields: exactly five, one space apart.
    assert_invalid(&hand_built("1 1 2 0", "1 2"), "four shape fields");
    assert_invalid(&hand_built("1 1 2 0 0 0", "1 2"), "six shape fields");
    assert_invalid(&hand_built("1 1 2  0 0", "1 2"), "double space");

    let good = hand_built("1 1 2 0 0", "1 2");
    assert_eq!(read_plan(good.as_slice()).unwrap().1, vec![1.0, 2.0]);
    let text = String::from_utf8(good.clone()).unwrap();
    let wrong_sum = text.replace(&format!("{:016x}", fnv1a(b"1 2")), &format!("{:016x}", fnv1a(b"1 3")));
    assert_invalid(wrong_sum.as_bytes(), "checksum mismatch");
    let upper = text.replace(&format!("{:016x}", fnv1a(b"1 2")), &format!("{:016X}", fnv1a(b"1 2")));
    assert_invalid(upper.as_bytes(), "checksum not in the writer's form");
    assert_invalid(text.replace("v2", "v1").as_bytes(), "wrong version");
    let mut trailing = good.clone();
    trailing.extend_from_slice(b"\n");
    assert_invalid(&trailing, "trailing newline");
    assert_invalid(&[good.as_slice(), b"neurfill-plan v2\n"].concat(), "trailing line");
    assert_invalid(&[b"\xff".as_slice(), &good].concat(), "non-UTF-8 magic");
    assert_invalid(b"", "empty input");
    // The parent formats of the HTTP body and the tile file.
    assert_invalid(b"plan_len 2\namounts 1 2\n", "parent HTTP plan body");
    let line = "1 2";
    let tile_v1 = format!(
        "neurfill-tile v1\ncore 0 0 1 2\nlayers 1\nchecksum {:016x}\n{line}\n",
        fnv1a(line.as_bytes())
    );
    assert_invalid(tile_v1.as_bytes(), "parent tile file");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bit_patterns_round_trip(words in collection::vec(0u64..=u64::MAX, 24), row0 in 0usize..1000) {
        let amounts: Vec<f64> = words.iter().map(|&w| f64::from_bits(w)).collect();
        let s = shape(2, 3, 4, row0, 7);
        let (back_shape, back) = read_plan(encode(s, &amounts).as_slice()).unwrap();
        prop_assert_eq!(back_shape, s);
        for (a, b) in amounts.iter().zip(&back) {
            prop_assert!(if a.is_nan() { b.is_nan() } else { a.to_bits() == b.to_bits() });
        }
    }

    #[test]
    fn byte_flips_never_panic_or_alter_amounts(
        at in 0usize..10_000,
        mask in 1u16..=255,
        flips in 1usize..=3,
        seed in 0u64..=u64::MAX,
    ) {
        let s = shape(1, 2, 3, 5, 6);
        let amounts = awkward(6);
        let mut bytes = encode(s, &amounts);
        let mut pos = at;
        for k in 0..flips {
            pos = (pos + (seed >> (8 * k)) as usize) % bytes.len();
            bytes[pos] ^= mask as u8;
        }
        assert_typed_or_intact(&bytes, &[(s, &amounts)]);
    }

    #[test]
    fn spliced_lines_never_panic_or_mix_plans(picks in collection::vec(0usize..8, 5), keep in 0usize..=5) {
        let (sa, sb) = (shape(1, 2, 2, 0, 0), shape(2, 1, 2, 3, 3));
        let (a, b) = (awkward(4), vec![0.5, -0.0, 7.25, 1e-300]);
        let (ea, eb) = (encode(sa, &a), encode(sb, &b));
        let pool: Vec<&[u8]> = ea.split_inclusive(|&c| c == b'\n').chain(eb.split_inclusive(|&c| c == b'\n')).collect();
        let spliced: Vec<u8> = picks[..keep].iter().flat_map(|&i| pool[i].iter().copied()).collect();
        assert_typed_or_intact(&spliced, &[(sa, &a), (sb, &b)]);
    }

    #[test]
    fn random_bytes_are_refused(words in collection::vec(0u64..=u64::MAX, 8), len in 0usize..=64) {
        let noise: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).take(len).collect();
        assert_invalid(&noise, "random bytes");
    }
}
