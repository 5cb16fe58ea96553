//! A minimal blocking HTTP client for the service, used by `runfill
//! --connect`, the integration tests and the serve benchmark.
//!
//! One persistent keep-alive connection per client; a broken connection
//! is re-established transparently once per request.

use crate::http::{read_response, ClientResponse};
use crate::wire::{JobRequest, StatusView};
use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug, Clone)]
pub enum ClientError {
    /// Transport-level failure (connect, read, write).
    Io(String),
    /// The server answered with a non-success status.
    Http {
        /// HTTP status code.
        status: u16,
        /// Response body.
        body: String,
        /// Parsed `Retry-After` seconds, when the server sent one.
        retry_after_s: Option<u64>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(m) => write!(f, "transport error: {m}"),
            ClientError::Http { status, body, .. } => {
                write!(f, "HTTP {status}: {}", body.trim())
            }
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e.to_string())
    }
}

/// Socket read timeout of every client: generous, because long polls
/// ride the same connection.
const READ_TIMEOUT: Duration = Duration::from_secs(150);

/// A blocking client over one keep-alive connection.
#[derive(Debug)]
pub struct Client {
    addr: String,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Client {
    /// A client for `host:port` (socket read timeout 150 s).
    #[must_use]
    pub fn connect(addr: impl Into<String>) -> Self {
        Self { addr: addr.into(), conn: None }
    }

    fn ensure_conn(&mut self) -> io::Result<&mut (TcpStream, BufReader<TcpStream>)> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_read_timeout(Some(READ_TIMEOUT))?;
            stream.set_nodelay(true)?;
            let reader = BufReader::new(stream.try_clone()?);
            self.conn = Some((stream, reader));
        }
        self.conn.as_mut().ok_or_else(|| io::Error::other("connection vanished"))
    }

    /// Sends one request and reads the response, reconnecting once if the
    /// persistent connection went stale.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on transport failure (both attempts).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(String, String)],
        body: &[u8],
    ) -> Result<ClientResponse, ClientError> {
        let mut last_err = None;
        for _attempt in 0..2 {
            match self.try_request(method, path, headers, body) {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    self.conn = None;
                    last_err = Some(e);
                }
            }
        }
        Err(ClientError::Io(last_err.map_or_else(|| "request failed".to_string(), |e| e.to_string())))
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(String, String)],
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        let addr = self.addr.clone();
        let (stream, reader) = self.ensure_conn()?;
        let mut head = format!("{method} {path} HTTP/1.1\r\nhost: {addr}\r\n");
        for (k, v) in headers {
            head.push_str(&format!("{k}: {v}\r\n"));
        }
        head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        stream.flush()?;
        let resp = read_response(reader)?;
        if resp.header("connection").is_some_and(|c| c.eq_ignore_ascii_case("close")) {
            self.conn = None;
        }
        Ok(resp)
    }

    fn expect(resp: ClientResponse, ok: &[u16]) -> Result<ClientResponse, ClientError> {
        if ok.contains(&resp.status) {
            return Ok(resp);
        }
        let retry_after_s = resp.header("retry-after").and_then(|v| v.trim().parse().ok());
        Err(ClientError::Http { status: resp.status, body: resp.text(), retry_after_s })
    }

    /// Submits a job, returning its server-side id.
    ///
    /// # Errors
    ///
    /// `Http {{ status: 429, .. }}` when the tenant queue is full, `503`
    /// while draining; see [`ClientError`].
    pub fn submit(&mut self, job: &JobRequest) -> Result<u64, ClientError> {
        let (headers, body) = job.encode().map_err(ClientError::Io)?;
        let resp = self.request("POST", "/v1/jobs", &headers, &body)?;
        let resp = Self::expect(resp, &[201])?;
        let text = resp.text();
        text.lines()
            .find_map(|l| l.strip_prefix("id "))
            .and_then(|id| id.trim().parse().ok())
            .ok_or_else(|| ClientError::Io(format!("bad submit response {text:?}")))
    }

    /// Fetches a job's status; `wait` long-polls until terminal.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn status(&mut self, id: u64, wait: Option<Duration>) -> Result<StatusView, ClientError> {
        let path = match wait {
            Some(w) => format!("/v1/jobs/{id}?wait_ms={}", w.as_millis()),
            None => format!("/v1/jobs/{id}"),
        };
        let resp = self.request("GET", &path, &[], &[])?;
        let resp = Self::expect(resp, &[200])?;
        StatusView::from_response(&resp).map_err(ClientError::Io)
    }

    /// Fetches a finished job's report text; `wait` long-polls until the
    /// job is terminal first.
    ///
    /// # Errors
    ///
    /// `Http {{ status: 202, .. }}` when the job is not done yet, `410`
    /// when it failed or was cancelled.
    pub fn result_text(&mut self, id: u64, wait: Option<Duration>) -> Result<String, ClientError> {
        let path = match wait {
            Some(w) => format!("/v1/jobs/{id}/result?wait_ms={}", w.as_millis()),
            None => format!("/v1/jobs/{id}/result"),
        };
        let resp = self.request("GET", &path, &[], &[])?;
        Ok(Self::expect(resp, &[200])?.text())
    }

    /// Fetches a finished job's fill-plan amounts over its whole layout
    /// (exact round-trip values, read with
    /// [`neurfill_layout::io::read_plan`]); `wait` long-polls until the
    /// job is terminal first.
    ///
    /// # Errors
    ///
    /// `Http {{ status: 202, .. }}` when the job is not done yet, `410`
    /// when it failed or was cancelled; `Io` when the body is not a plan.
    pub fn result_plan(&mut self, id: u64, wait: Option<Duration>) -> Result<Vec<f64>, ClientError> {
        let path = match wait {
            Some(w) => format!("/v1/jobs/{id}/plan?wait_ms={}", w.as_millis()),
            None => format!("/v1/jobs/{id}/plan"),
        };
        let resp = self.request("GET", &path, &[], &[])?;
        let body = Self::expect(resp, &[200])?.body;
        Ok(neurfill_layout::io::read_plan(body.as_slice())?.1)
    }

    /// Cancels a job; `Ok(true)` when the cancellation was accepted
    /// (200), `Ok(false)` for the idempotent repeat (204, already
    /// cancelled) and for an already-done/failed job (409).
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn cancel(&mut self, id: u64) -> Result<bool, ClientError> {
        let resp = self.request("DELETE", &format!("/v1/jobs/{id}"), &[], &[])?;
        let resp = Self::expect(resp, &[200, 204, 409])?;
        Ok(resp.status == 200)
    }

    /// Scrapes `/metrics` (schema-v1 JSONL).
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let resp = self.request("GET", "/metrics", &[], &[])?;
        Ok(Self::expect(resp, &[200])?.text())
    }

    /// Stages a model bundle; returns `(promoted, report_text)`.
    ///
    /// # Errors
    ///
    /// `Http` errors for busy/draining/invalid; a canary *rejection* is
    /// `Ok((false, report))`, not an error.
    pub fn stage_model(&mut self, bundle: &[u8]) -> Result<(bool, String), ClientError> {
        let resp = self.request("POST", "/v1/models", &[], bundle)?;
        let resp = Self::expect(resp, &[200, 422])?;
        Ok((resp.status == 200, resp.text()))
    }

    /// Reads the live model digest and swap generation.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn model_info(&mut self) -> Result<(String, u64), ClientError> {
        let resp = self.request("GET", "/v1/models", &[], &[])?;
        let text = Self::expect(resp, &[200])?.text();
        let mut digest = None;
        let mut generation = None;
        for line in text.lines() {
            if let Some(d) = line.strip_prefix("digest ") {
                digest = Some(d.trim().to_string());
            } else if let Some(g) = line.strip_prefix("generation ") {
                generation = g.trim().parse().ok();
            }
        }
        match (digest, generation) {
            (Some(d), Some(g)) => Ok((d, g)),
            _ => Err(ClientError::Io(format!("bad model info {text:?}"))),
        }
    }

    /// Asks the server to drain and exit.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        let resp = self.request("POST", "/v1/admin/shutdown", &[], &[])?;
        Self::expect(resp, &[200])?;
        Ok(())
    }
}
