//! Malformed-input hardening of the HTTP front-end, driven over raw
//! sockets: oversized headers, bad framing, truncated bodies and garbage
//! must produce clean 4xx/5xx responses (or a clean close) — never a
//! panic, and never a wedged server. Every test finishes by proving the
//! server still answers a healthy request.

use neurfill::extraction::NUM_CHANNELS;
use neurfill::pipeline::FlowConfig;
use neurfill::{CmpNeuralNetwork, CmpNnConfig, HeightNorm};
use neurfill_cmpsim::ProcessParams;
use neurfill_nn::{UNet, UNetConfig};
use neurfill_runtime::{ModelBundle, PoolOptions};
use neurfill_serve::http::HttpLimits;
use neurfill_serve::{FillService, Server, ServerConfig, ServiceConfig};
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn start_server() -> (Server, SocketAddr, std::thread::JoinHandle<()>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let unet = UNet::new(
        UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 2 },
        &mut rng,
    );
    let network =
        CmpNeuralNetwork::new(unet, HeightNorm::default(), Default::default(), CmpNnConfig::default());
    let bundle = Arc::new(ModelBundle::from_network(&network).unwrap());
    let service = FillService::start(
        bundle,
        ServiceConfig {
            flow: FlowConfig { process: ProcessParams::fast(), ..FlowConfig::default() },
            pool: PoolOptions { workers: 1, ..PoolOptions::default() },
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let server = Server::bind(
        service,
        &ServerConfig {
            // Tight parser limits so the attack payloads stay small.
            limits: HttpLimits { max_header_bytes: 1024, max_body_bytes: 4096 },
            read_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let run = server.clone();
    let thread = std::thread::spawn(move || run.run().unwrap());
    (server, addr, thread)
}

fn stop(server: Server, thread: std::thread::JoinHandle<()>) {
    server.service().shutdown();
    server.stop();
    thread.join().unwrap();
}

/// Writes raw bytes, half-closes, and returns whatever the server sends
/// back (possibly nothing, never a hang).
fn raw_exchange(addr: SocketAddr, payload: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(payload).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    out
}

fn status_of(response: &[u8]) -> Option<u16> {
    let text = String::from_utf8_lossy(response);
    let line = text.lines().next()?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn assert_alive(addr: SocketAddr) {
    let resp = raw_exchange(addr, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&resp), Some(200), "server must stay healthy: {resp:?}");
}

#[test]
fn oversized_header_block_answers_431() {
    let (server, addr, thread) = start_server();
    let mut payload = b"GET /healthz HTTP/1.1\r\n".to_vec();
    payload.extend_from_slice(format!("x-filler: {}\r\n\r\n", "a".repeat(4096)).as_bytes());
    assert_eq!(status_of(&raw_exchange(addr, &payload)), Some(431));
    assert_alive(addr);
    stop(server, thread);
}

#[test]
fn unbounded_header_stream_is_cut_off_not_buffered() {
    let (server, addr, thread) = start_server();
    // A never-ending header stream (no terminating blank line): the
    // parser must give up at its byte budget, not buffer until OOM.
    let mut payload = b"GET / HTTP/1.1\r\n".to_vec();
    for i in 0..512 {
        payload.extend_from_slice(format!("x-h{i}: spam\r\n").as_bytes());
    }
    assert_eq!(status_of(&raw_exchange(addr, &payload)), Some(431));
    assert_alive(addr);
    stop(server, thread);
}

#[test]
fn malformed_content_length_answers_400() {
    let (server, addr, thread) = start_server();
    for bad in ["banana", "-5", "10 10", "0x10"] {
        let payload = format!("POST /v1/jobs HTTP/1.1\r\ncontent-length: {bad}\r\n\r\n");
        assert_eq!(status_of(&raw_exchange(addr, payload.as_bytes())), Some(400), "{bad:?}");
    }
    // Two conflicting content-length headers are a smuggling vector.
    let payload = b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 4\r\ncontent-length: 6\r\n\r\nabcdef";
    assert_eq!(status_of(&raw_exchange(addr, payload)), Some(400));
    assert_alive(addr);
    stop(server, thread);
}

#[test]
fn declared_body_over_the_limit_answers_413_without_reading_it() {
    let (server, addr, thread) = start_server();
    // Declared 1 GiB: the refusal must come from the declaration alone.
    let payload = b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 1073741824\r\n\r\n";
    assert_eq!(status_of(&raw_exchange(addr, payload)), Some(413));
    assert_alive(addr);
    stop(server, thread);
}

#[test]
fn truncated_body_closes_cleanly() {
    let (server, addr, thread) = start_server();
    // Declares 100 bytes, sends 10, closes. No response is owed; the
    // server must just drop the connection and keep serving.
    let payload = b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 100\r\n\r\nincomplete";
    let resp = raw_exchange(addr, payload);
    if let Some(status) = status_of(&resp) {
        assert_eq!(status, 400, "a response to a truncated body must be 400: {resp:?}");
    }
    assert_alive(addr);
    stop(server, thread);
}

#[test]
fn transfer_encoding_is_refused_as_unimplemented() {
    let (server, addr, thread) = start_server();
    let payload = b"POST /v1/jobs HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n4\r\nabcd\r\n0\r\n\r\n";
    assert_eq!(status_of(&raw_exchange(addr, payload)), Some(501));
    assert_alive(addr);
    stop(server, thread);
}

#[test]
fn garbage_request_lines_answer_400() {
    let (server, addr, thread) = start_server();
    for garbage in ["\x00\x01\x02\x03\r\n\r\n", "GET\r\n\r\n", "GET /x\r\n\r\n", " / HTTP/1.1\r\n\r\n"] {
        let resp = raw_exchange(addr, garbage.as_bytes());
        assert_eq!(status_of(&resp), Some(400), "{garbage:?} -> {resp:?}");
    }
    // HTTP/2 preface on a 1.1 port.
    let resp = raw_exchange(addr, b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n");
    assert!(matches!(status_of(&resp), Some(400 | 501)), "{resp:?}");
    assert_alive(addr);
    stop(server, thread);
}

#[test]
fn pipelined_requests_are_each_answered_in_order() {
    let (server, addr, thread) = start_server();
    let payload =
        b"GET /healthz HTTP/1.1\r\n\r\nGET /v1/models HTTP/1.1\r\n\r\nGET /nope HTTP/1.1\r\n\r\n";
    let resp = raw_exchange(addr, payload);
    let text = String::from_utf8_lossy(&resp);
    let statuses: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("HTTP/1.1 "))
        .map(|l| l.split_whitespace().nth(1).unwrap_or(""))
        .collect();
    assert_eq!(statuses, vec!["200", "200", "404"], "{text}");
    assert!(text.contains("digest "), "{text}");
    assert_alive(addr);
    stop(server, thread);
}

#[test]
fn header_without_colon_answers_400() {
    let (server, addr, thread) = start_server();
    let payload = b"GET /healthz HTTP/1.1\r\nthis is not a header\r\n\r\n";
    assert_eq!(status_of(&raw_exchange(addr, payload)), Some(400));
    assert_alive(addr);
    stop(server, thread);
}

/// POSTs `body` as a job submission and returns the raw response.
fn submit_raw(addr: SocketAddr, body: &[u8]) -> Vec<u8> {
    let mut payload =
        format!("POST /v1/jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n", body.len()).into_bytes();
    payload.extend_from_slice(body);
    raw_exchange(addr, &payload)
}

/// `1.0f64.to_bits()`: a valid `window_um` and `file_size_mb`.
const ONE: &str = "3ff0000000000000";

#[test]
fn a_layout_claiming_billions_of_windows_answers_400() {
    let (server, addr, thread) = start_server();
    // A short header that used to reserve 320 GB (or, wrapped, yield a
    // layout with no windows): the reader refuses the header before
    // sizing a buffer from it.
    for dims in ["1 100000 100000", "1 4294967296 4294967296"] {
        let body = format!("neurfill-layout-bits v1\nname x\nmeta {ONE} {ONE}\ndims {dims}\n");
        let resp = submit_raw(addr, body.as_bytes());
        let text = String::from_utf8_lossy(&resp);
        assert_eq!(status_of(&resp), Some(400), "{dims}: {text}");
        assert!(text.contains("dims"), "{dims}: {text}");
    }
    assert_alive(addr);
    stop(server, thread);
}

#[test]
fn a_layout_with_a_window_size_that_is_not_positive_and_finite_answers_400() {
    let (server, addr, thread) = start_server();
    // A well-formed one-window layout but for `window_um`: building a
    // layout from it would panic the connection's thread, so the reader
    // refuses it and the client gets an answer.
    for window_um in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let mut body = format!(
            "neurfill-layout-bits v1\nname x\nmeta {:016x} {ONE}\ndims 1 1 1\n",
            window_um.to_bits()
        )
        .into_bytes();
        body.extend_from_slice(&[0u8; 32]);
        let resp = submit_raw(addr, &body);
        let text = String::from_utf8_lossy(&resp);
        assert_eq!(status_of(&resp), Some(400), "{window_um}: {text}");
        assert!(text.contains("window_um"), "{window_um}: {text}");
    }
    assert_alive(addr);
    stop(server, thread);
}
