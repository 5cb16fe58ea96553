//! The TCP front-end: accept loop, per-connection threads, and the
//! endpoint handlers that translate between HTTP and [`FillService`].
//!
//! Shutdown needs no signal handling: `POST /v1/admin/shutdown` flips the
//! service into draining (new submissions answer 503 immediately), a
//! background thread waits out the drain, and the accept loop is then
//! woken by a self-connection and exits — so `Server::run` returns and
//! the binary can flush metrics before leaving `main`.

use crate::http::{read_request, HttpLimits, ReadOutcome, Request, Response};
use crate::router::{route, Route};
use crate::service::{CancelOutcome, FillService, ResultFetch, StageError, SubmitError};
use crate::wire::JobRequest;
use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Longest server-side long-poll honored via `?wait_ms=`.
const MAX_WAIT_MS: u64 = 60_000;

/// Front-end configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7171` (port `0` picks a free port).
    pub addr: String,
    /// HTTP parser limits.
    pub limits: HttpLimits,
    /// Per-connection socket read timeout (bounds idle keep-alives).
    pub read_timeout: Duration,
    /// Bound on concurrently-served connections; excess connections are
    /// answered 503 and closed rather than queued without bound.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            limits: HttpLimits::default(),
            read_timeout: Duration::from_secs(120),
            max_connections: 256,
        }
    }
}

struct ServerInner {
    listener: TcpListener,
    service: FillService,
    limits: HttpLimits,
    read_timeout: Duration,
    max_connections: usize,
    stop: AtomicBool,
    connections: AtomicUsize,
}

/// The HTTP front-end over a [`FillService`] (cheaply cloneable handle).
#[derive(Clone)]
pub struct Server {
    inner: Arc<ServerInner>,
}

impl Server {
    /// Binds the listener.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(service: FillService, config: &ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Self {
            inner: Arc::new(ServerInner {
                listener,
                service,
                limits: config.limits,
                read_timeout: config.read_timeout,
                max_connections: config.max_connections.max(1),
                stop: AtomicBool::new(false),
                connections: AtomicUsize::new(0),
            }),
        })
    }

    /// The bound address (useful with port `0`).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.inner.listener.local_addr()
    }

    /// The service behind this front-end.
    #[must_use]
    pub fn service(&self) -> &FillService {
        &self.inner.service
    }

    /// Serves until [`Server::stop`] is called (typically by the shutdown
    /// endpoint after the service drained). Blocks the calling thread.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop failures other than per-connection errors.
    pub fn run(&self) -> io::Result<()> {
        loop {
            let (stream, _) = match self.inner.listener.accept() {
                Ok(conn) => conn,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    if self.inner.stop.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                    return Err(e);
                }
            };
            if self.inner.stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            let inner = Arc::clone(&self.inner);
            let server = self.clone();
            std::thread::spawn(move || {
                let active = inner.connections.fetch_add(1, Ordering::SeqCst) + 1;
                if active > inner.max_connections {
                    let mut stream = stream;
                    let resp = Response::text(503, "server at connection capacity\n")
                        .header("retry-after", "1");
                    let _ = resp.write_to(&mut stream, false);
                } else {
                    serve_connection(&server, stream);
                }
                inner.connections.fetch_sub(1, Ordering::SeqCst);
            });
        }
    }

    /// Stops the accept loop: sets the flag and wakes `accept` with a
    /// self-connection. In-flight connections finish on their own.
    pub fn stop(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Ok(addr) = self.inner.listener.local_addr() {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
    }
}

fn serve_connection(server: &Server, stream: TcpStream) {
    let inner = &*server.inner;
    let _ = stream.set_read_timeout(Some(inner.read_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else { return };
    let mut writer = write_half;
    let mut reader = BufReader::new(stream);
    loop {
        let request = match read_request(&mut reader, &inner.limits) {
            Ok(ReadOutcome::Request(r)) => r,
            Ok(ReadOutcome::Eof) => return,
            Err(err) => {
                // Malformed input never takes the server down: answer the
                // mapped 4xx/5xx and close (the framing is unreliable now).
                let _ = Response::from_error(&err).write_to(&mut writer, false);
                return;
            }
        };
        let keep_alive = request.keep_alive;
        let response = handle(server, &request);
        if response.write_to(&mut writer, keep_alive).is_err() {
            return;
        }
        if writer.flush().is_err() || !keep_alive {
            return;
        }
    }
}

fn wait_param(req: &Request) -> Option<Duration> {
    let ms: u64 = req.query_param("wait_ms")?.parse().ok()?;
    Some(Duration::from_millis(ms.min(MAX_WAIT_MS)))
}

fn handle(server: &Server, req: &Request) -> Response {
    let service = server.service();
    match route(&req.method, &req.path) {
        Route::SubmitJob => handle_submit(service, req),
        Route::JobStatus(id) => {
            let view = match wait_param(req) {
                Some(wait) => service.wait_terminal(id, wait),
                None => service.status(id),
            };
            match view {
                Some(view) => Response::text(200, view.to_text()),
                None => Response::text(404, format!("no job {id}\n")),
            }
        }
        Route::JobResult(id) => {
            if let Some(wait) = wait_param(req) {
                let _ = service.wait_terminal(id, wait);
            }
            match service.result_text(id) {
                ResultFetch::NotFound => Response::text(404, format!("no job {id}\n")),
                ResultFetch::NotDone(view) => Response::text(202, view.to_text()),
                ResultFetch::Done(text) => Response::text(200, text),
                ResultFetch::Unavailable(view) => Response::text(410, view.to_text()),
            }
        }
        Route::JobPlan(id) => {
            if let Some(wait) = wait_param(req) {
                let _ = service.wait_terminal(id, wait);
            }
            match service.result_plan(id) {
                ResultFetch::NotFound => Response::text(404, format!("no job {id}\n")),
                ResultFetch::NotDone(view) => Response::text(202, view.to_text()),
                ResultFetch::Done(text) => Response::text(200, text),
                ResultFetch::Unavailable(view) => Response::text(410, view.to_text()),
            }
        }
        Route::CancelJob(id) => match service.cancel(id) {
            Some(CancelOutcome::Cancelled) => Response::text(200, "cancelled true\n"),
            // Idempotent repeat: the job is already cancelled, nothing
            // changed — 204 with an empty body.
            Some(CancelOutcome::AlreadyCancelled) => Response::text(204, ""),
            // Done/failed jobs cannot be cancelled; the conflict answers
            // 409 so callers can distinguish it from the idempotent case.
            Some(CancelOutcome::Terminal) => Response::text(409, "job already terminal\n"),
            None => Response::text(404, format!("no job {id}\n")),
        },
        Route::StageModel => match service.stage_model(req.body.clone()) {
            Ok(report) => {
                let status = if report.promoted { 200 } else { 422 };
                Response::text(status, report.to_text())
            }
            Err(StageError::Busy) => {
                Response::text(409, "another model is being staged\n").header("retry-after", "5")
            }
            Err(StageError::Draining) => draining_response(),
            Err(StageError::Invalid(m)) => Response::text(422, format!("{m}\n")),
        },
        Route::ModelInfo => {
            let (digest, generation) = service.model_info();
            let tenants = service.tenant_names().join(",");
            Response::text(
                200,
                format!("digest {digest:016x}\ngeneration {generation}\ntenants {tenants}\n"),
            )
        }
        Route::Metrics => {
            Response::text(200, service.metrics_jsonl()).header("content-type", "application/x-ndjson")
        }
        Route::Health => {
            if service.is_draining() {
                Response::text(200, "draining\n")
            } else {
                Response::text(200, "ok\n")
            }
        }
        Route::Shutdown => {
            // Refuse new work *before* this response goes out, so a
            // submit sequenced after it deterministically sees 503; the
            // drain itself happens off-thread so the response isn't held
            // for its duration.
            service.begin_drain();
            let server = server.clone();
            std::thread::spawn(move || {
                server.service().finish_shutdown();
                server.stop();
            });
            Response::text(200, "draining\n")
        }
        Route::NotFound => Response::text(404, format!("no route for {}\n", req.path)),
        Route::MethodNotAllowed => {
            Response::text(405, format!("method {} not allowed on {}\n", req.method, req.path))
        }
    }
}

fn draining_response() -> Response {
    Response::text(503, "service is draining\n").header("retry-after", "1")
}

fn handle_submit(service: &FillService, req: &Request) -> Response {
    let job = match JobRequest::decode(req) {
        Ok(job) => job,
        Err(m) => return Response::text(400, format!("{m}\n")),
    };
    match service.submit(job) {
        Ok(id) => Response::text(201, format!("id {id}\n")),
        Err(SubmitError::UnknownTenant(t)) => Response::text(403, format!("unknown tenant {t:?}\n")),
        Err(SubmitError::QueueFull { tenant, retry_after_s }) => {
            Response::text(429, format!("queue full for tenant {tenant:?}\n"))
                .header("retry-after", retry_after_s.to_string())
        }
        Err(SubmitError::Draining) => draining_response(),
        Err(SubmitError::Journal(m)) => {
            Response::text(503, format!("journal unavailable: {m}\n")).header("retry-after", "1")
        }
    }
}
