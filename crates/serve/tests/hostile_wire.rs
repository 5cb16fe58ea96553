//! Hostile bytes into `JobRequest::decode`, the one layout parser that
//! faces the network: every truncation of an encoded `POST /v1/jobs`
//! body, every single-byte change in the body's text header lines and in
//! the `x-*` header values, and a header claiming the cap's worth of
//! windows. Each must decode to an `Err` or a layout, never panic, and
//! allocate nothing near what the bytes claim.
//!
//! The global allocator of the layout crate's `capped_alloc.rs` records
//! the largest single request and refuses any over 1 GiB.

#[path = "../../layout/tests/support/capped_alloc.rs"]
mod capped_alloc;

use neurfill_layout::{DesignKind, DesignSpec};
use neurfill_serve::http::Request;
use neurfill_serve::{JobRequest, Priority};
use std::panic::{self, AssertUnwindSafe};
use std::time::Duration;

/// No decode of these few-KiB bodies may make a single allocation this
/// large.
const ALLOCATION_BUDGET: usize = 1 << 20;

fn encoded() -> (Vec<(String, String)>, Vec<u8>) {
    let mut job = JobRequest::new("wire", DesignSpec::new(DesignKind::Fpga, 4, 5, 3).generate());
    job.tenant = Some("acme".to_string());
    job.priority = Priority::High;
    job.timeout = Some(Duration::from_millis(2500));
    job.encode().unwrap()
}

fn request(headers: &[(String, String)], body: &[u8]) -> Request {
    Request {
        method: "POST".to_string(),
        path: "/v1/jobs".to_string(),
        query: Vec::new(),
        headers: headers.to_vec(),
        body: body.to_vec(),
        keep_alive: false,
    }
}

/// Decodes `req`; panics with `what` if the decoder panicked or made an
/// allocation over the budget, else returns whether it decoded.
fn decodes(req: &Request, what: &str) -> bool {
    let (outcome, largest) = capped_alloc::largest_allocation(|| {
        panic::catch_unwind(AssertUnwindSafe(|| JobRequest::decode(req).is_ok()))
    });
    let ok = outcome.unwrap_or_else(|_| panic!("{what}: decode panicked"));
    assert!(largest < ALLOCATION_BUDGET, "{what}: allocated {largest} bytes");
    ok
}

/// Length of the body's four text header lines (magic, name, meta, dims).
fn text_header_len(body: &[u8]) -> usize {
    body.iter().enumerate().filter(|(_, &b)| b == b'\n').nth(3).map(|(i, _)| i + 1).unwrap()
}

#[test]
fn every_truncation_of_the_body_is_refused() {
    let (headers, body) = encoded();
    for cut in 0..body.len() {
        let what = format!("body cut to {cut} of {} bytes", body.len());
        assert!(!decodes(&request(&headers, &body[..cut]), &what), "{what} decoded");
    }
    assert!(decodes(&request(&headers, &body), "whole body"));
}

#[test]
fn every_single_byte_change_in_the_body_header_decodes_or_is_refused() {
    let (headers, body) = encoded();
    let mut changed = body.clone();
    for at in 0..text_header_len(&body) {
        for byte in 0..=u8::MAX {
            if byte == body[at] {
                continue;
            }
            changed[at] = byte;
            decodes(&request(&headers, &changed), &format!("body byte {at} set to {byte:#04x}"));
        }
        changed[at] = body[at];
    }
}

#[test]
fn every_single_byte_change_in_a_header_value_decodes_or_is_refused() {
    let (headers, body) = encoded();
    for (h, (name, value)) in headers.iter().enumerate() {
        for at in 0..value.len() {
            for byte in (b' '..=b'~').filter(|&b| b != value.as_bytes()[at]) {
                let mut bytes = value.clone().into_bytes();
                bytes[at] = byte;
                let mut changed = headers.clone();
                changed[h].1 = String::from_utf8(bytes).unwrap();
                let what = format!("{name} byte {at} set to {:?}", char::from(byte));
                decodes(&request(&changed, &body), &what);
            }
        }
    }
}

#[test]
fn a_body_claiming_the_cap_of_windows_is_refused_without_sizing_from_it() {
    let (headers, body) = encoded();
    let header = std::str::from_utf8(&body[..text_header_len(&body)]).unwrap();
    let dims_at = header.find("dims ").unwrap();
    for dims in ["1 16384 16384", "1 100000 100000", "3 4294967296 4294967296"] {
        let mut hostile = format!("{}dims {dims}\n", &header[..dims_at]).into_bytes();
        hostile.extend_from_slice(&body[header.len()..]);
        assert!(!decodes(&request(&headers, &hostile), dims), "{dims} decoded");
    }
}
