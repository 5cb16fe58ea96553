//! The job-spec wire format shared by the server and the `runfill
//! --connect` client.
//!
//! A submission is one HTTP `POST /v1/jobs` whose *body* is the layout in
//! the existing `neurfill-layout v1` text format (the same bytes
//! `runfill` reads from disk) and whose job attributes ride in `x-*`
//! headers — so the CLI and the server literally share one
//! serialization, and a layout file can be `curl --data-binary`'d
//! straight at the server. The format is pinned by round-trip tests.
//!
//! Status and result bodies are `key value` text lines in the same style
//! as [`neurfill_runtime::JobReport::to_text`]. The plan body of
//! `GET /v1/jobs/{id}/plan` is the workspace's one plan format,
//! [`neurfill_layout::io::write_plan`] over the job's whole layout.

use crate::http::{ClientResponse, Request};
use neurfill_layout::{io as layout_io, Layout};
use std::time::Duration;

/// `(headers, body)` of an encoded submission.
pub type EncodedRequest = (Vec<(String, String)>, Vec<u8>);

/// Header carrying the job's display name.
pub const H_JOB_NAME: &str = "x-job-name";
/// Header naming the submitting tenant.
pub const H_TENANT: &str = "x-tenant";
/// Header carrying the priority class.
pub const H_PRIORITY: &str = "x-priority";
/// Header carrying the per-job deadline in milliseconds.
pub const H_TIMEOUT_MS: &str = "x-timeout-ms";

/// Priority classes, dispatched strictly high-before-normal-before-low
/// within a tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Latency-sensitive interactive work.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Bulk/batch work.
    Low,
}

/// Number of priority classes.
pub const NUM_PRIORITIES: usize = 3;

impl Priority {
    /// Queue index of the class (0 = highest).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Wire token of the class.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses a wire token.
    ///
    /// # Errors
    ///
    /// Returns a message naming the bad token.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "high" => Ok(Priority::High),
            "normal" | "" => Ok(Priority::Normal),
            "low" => Ok(Priority::Low),
            other => Err(format!("unknown priority {other:?} (expected high|normal|low)")),
        }
    }
}

/// One fill-synthesis submission as it crosses the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Display name (report filename stem).
    pub name: String,
    /// Submitting tenant; `None` asks for the server's default tenant.
    pub tenant: Option<String>,
    /// Priority class.
    pub priority: Priority,
    /// Per-job deadline; `None` uses the pool default.
    pub timeout: Option<Duration>,
    /// The layout to synthesize fill for.
    pub layout: Layout,
}

impl JobRequest {
    /// A normal-priority request for the default tenant.
    #[must_use]
    pub fn new(name: impl Into<String>, layout: Layout) -> Self {
        Self { name: name.into(), tenant: None, priority: Priority::Normal, timeout: None, layout }
    }

    /// Encodes the request as `(headers, body)` for a `POST /v1/jobs`.
    ///
    /// # Errors
    ///
    /// Propagates layout serialization errors.
    pub fn encode(&self) -> Result<EncodedRequest, String> {
        let mut headers = vec![(H_JOB_NAME.to_string(), self.name.clone())];
        if let Some(tenant) = &self.tenant {
            headers.push((H_TENANT.to_string(), tenant.clone()));
        }
        headers.push((H_PRIORITY.to_string(), self.priority.as_str().to_string()));
        if let Some(timeout) = self.timeout {
            headers.push((H_TIMEOUT_MS.to_string(), timeout.as_millis().to_string()));
        }
        let mut body = Vec::new();
        layout_io::write_layout(&self.layout, &mut body).map_err(|e| e.to_string())?;
        Ok((headers, body))
    }

    /// Decodes a submission from a parsed HTTP request.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed attribute or layout.
    pub fn decode(req: &Request) -> Result<Self, String> {
        let layout =
            layout_io::read_layout(req.body.as_slice()).map_err(|e| format!("bad layout body: {e}"))?;
        let name = match req.header(H_JOB_NAME) {
            Some(n) if !n.trim().is_empty() => n.trim().to_string(),
            _ => layout.name().to_string(),
        };
        let tenant = req.header(H_TENANT).map(|t| t.trim().to_string()).filter(|t| !t.is_empty());
        let priority = Priority::parse(req.header(H_PRIORITY).unwrap_or(""))?;
        let timeout = match req.header(H_TIMEOUT_MS) {
            None => None,
            Some(ms) => {
                let ms: u64 =
                    ms.trim().parse().map_err(|_| format!("bad {H_TIMEOUT_MS} value {ms:?}"))?;
                Some(Duration::from_millis(ms))
            }
        };
        Ok(Self { name, tenant, priority, timeout, layout })
    }
}

/// Lifecycle states a job reports over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireState {
    /// Held in the tenant's admission queue.
    Queued,
    /// Dispatched into the pool (queued-in-pool or synthesizing).
    Running,
    /// Finished; the result endpoint has the report.
    Done,
    /// Failed with an error message.
    Failed,
    /// Cancelled while still in the admission queue.
    Cancelled,
}

impl WireState {
    /// Wire token of the state.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            WireState::Queued => "queued",
            WireState::Running => "running",
            WireState::Done => "done",
            WireState::Failed => "failed",
            WireState::Cancelled => "cancelled",
        }
    }

    /// Whether the state is terminal.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(self, WireState::Done | WireState::Failed | WireState::Cancelled)
    }
}

/// A job-status response body, encoded as `key value` lines.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusView {
    /// Service job id.
    pub id: u64,
    /// Tenant the job belongs to.
    pub tenant: String,
    /// Current lifecycle state.
    pub state: WireState,
    /// Failure message (`state failed` only).
    pub error: Option<String>,
    /// Degradation reason (`state done` only, when the job degraded to
    /// golden-simulator verification).
    pub degraded: Option<String>,
    /// Whether this job's state was recovered from the write-ahead
    /// journal after a service restart (its result, if terminal, is
    /// served from the journal rather than a live pool run).
    pub recovered: bool,
}

impl StatusView {
    /// Renders the status body.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut text =
            format!("id {}\ntenant {}\nstate {}\n", self.id, self.tenant, self.state.as_str());
        if let Some(error) = &self.error {
            text.push_str(&format!("error {}\n", error.replace('\n', " ")));
        }
        if let Some(reason) = &self.degraded {
            text.push_str(&format!("degraded {}\n", reason.replace('\n', " ")));
        }
        // Emitted only when set, so pre-journal clients parse unchanged.
        if self.recovered {
            text.push_str("recovered true\n");
        }
        text
    }

    /// Parses a status body written by [`StatusView::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed line or missing field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut id = None;
        let mut tenant = None;
        let mut state = None;
        let mut error = None;
        let mut degraded = None;
        let mut recovered = false;
        for line in text.lines() {
            let (key, value) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "id" => id = Some(value.parse().map_err(|_| format!("bad id {value:?}"))?),
                "tenant" => tenant = Some(value.to_string()),
                "state" => state = Some(value.to_string()),
                "error" => error = Some(value.to_string()),
                "degraded" => degraded = Some(value.to_string()),
                "recovered" => recovered = value.trim() == "true",
                _ => {}
            }
        }
        let state = match state.as_deref() {
            Some("queued") => WireState::Queued,
            Some("running") => WireState::Running,
            Some("done") => WireState::Done,
            Some("failed") => WireState::Failed,
            Some("cancelled") => WireState::Cancelled,
            other => return Err(format!("bad state {other:?}")),
        };
        Ok(Self {
            id: id.ok_or("missing id")?,
            tenant: tenant.ok_or("missing tenant")?,
            state,
            error,
            degraded,
            recovered,
        })
    }

    /// Parses the status out of a client response body.
    ///
    /// # Errors
    ///
    /// Propagates body parse errors.
    pub fn from_response(resp: &ClientResponse) -> Result<Self, String> {
        Self::parse(&resp.text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_request, HttpLimits, ReadOutcome};
    use neurfill_layout::{DesignKind, DesignSpec};
    use std::io::Cursor;

    fn layout() -> Layout {
        DesignSpec::new(DesignKind::Fpga, 8, 8, 3).generate()
    }

    #[test]
    fn job_request_roundtrips_through_http() {
        let req = JobRequest {
            name: "chip-a".to_string(),
            tenant: Some("acme".to_string()),
            priority: Priority::High,
            timeout: Some(Duration::from_millis(2500)),
            layout: layout(),
        };
        let (headers, body) = req.encode().unwrap();

        // Assemble the literal POST the client would send and re-parse it
        // through the server-side HTTP stack: this test pins the wire
        // format end to end.
        let mut wire = Vec::new();
        wire.extend_from_slice(b"POST /v1/jobs HTTP/1.1\r\n");
        for (k, v) in &headers {
            wire.extend_from_slice(format!("{k}: {v}\r\n").as_bytes());
        }
        wire.extend_from_slice(format!("content-length: {}\r\n\r\n", body.len()).as_bytes());
        wire.extend_from_slice(&body);

        let parsed = match read_request(&mut Cursor::new(wire), &HttpLimits::default()) {
            Ok(ReadOutcome::Request(r)) => r,
            other => panic!("{other:?}"),
        };
        let back = JobRequest::decode(&parsed).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn submit_body_is_the_layout_file_format() {
        // The wire body must stay byte-identical to the on-disk layout
        // format, so `curl --data-binary @file.layout` keeps working.
        let (_, body) = JobRequest::new("x", layout()).encode().unwrap();
        let mut file = Vec::new();
        layout_io::write_layout(&layout(), &mut file).unwrap();
        assert_eq!(body, file);
    }

    #[test]
    fn priority_tokens_are_pinned() {
        for (p, s) in [(Priority::High, "high"), (Priority::Normal, "normal"), (Priority::Low, "low")] {
            assert_eq!(p.as_str(), s);
            assert_eq!(Priority::parse(s).unwrap(), p);
        }
        assert_eq!(Priority::parse("").unwrap(), Priority::Normal);
        assert!(Priority::parse("urgent").is_err());
    }

    #[test]
    fn status_view_roundtrips() {
        for view in [
            StatusView {
                id: 7,
                tenant: "acme".to_string(),
                state: WireState::Running,
                error: None,
                degraded: None,
                recovered: false,
            },
            StatusView {
                id: 9,
                tenant: "default".to_string(),
                state: WireState::Failed,
                error: Some("synthesis exploded".to_string()),
                degraded: None,
                recovered: false,
            },
            StatusView {
                id: 3,
                tenant: "b".to_string(),
                state: WireState::Done,
                error: None,
                degraded: Some("surrogate returned a non-finite height".to_string()),
                recovered: true,
            },
        ] {
            let back = StatusView::parse(&view.to_text()).unwrap();
            assert_eq!(back, view);
        }
        assert!(StatusView::parse("state nonsense\n").is_err());
        // A job runs once: there is no retrying state.
        assert!(StatusView::parse("id 1\ntenant t\nstate retrying\n").is_err());
        // Pre-journal status bodies (no `recovered` line) still parse.
        let legacy = StatusView::parse("id 1\ntenant t\nstate done\n").unwrap();
        assert!(!legacy.recovered);
    }
}
