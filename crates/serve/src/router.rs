//! Method + path → handler routing for the service endpoints.

/// The service's endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// `POST /v1/jobs` — submit a job.
    SubmitJob,
    /// `GET /v1/jobs/{id}` — job status (supports `?wait_ms=`).
    JobStatus(u64),
    /// `GET /v1/jobs/{id}/result` — finished job's report.
    JobResult(u64),
    /// `GET /v1/jobs/{id}/plan` — finished job's fill plan (exact
    /// round-trip amounts).
    JobPlan(u64),
    /// `DELETE /v1/jobs/{id}` — cancel a job.
    CancelJob(u64),
    /// `POST /v1/models` — stage a bundle for canary verification.
    StageModel,
    /// `GET /v1/models` — live model digest and swap generation.
    ModelInfo,
    /// `GET /metrics` — metrics snapshot as schema-v1 JSONL.
    Metrics,
    /// `GET /healthz` — liveness probe.
    Health,
    /// `POST /v1/admin/shutdown` — graceful drain and exit.
    Shutdown,
    /// No such path.
    NotFound,
    /// Known path, wrong method.
    MethodNotAllowed,
}

/// Resolves a parsed request line to a route.
#[must_use]
pub fn route(method: &str, path: &str) -> Route {
    let segments: Vec<&str> = path.trim_matches('/').split('/').filter(|s| !s.is_empty()).collect();
    match (method, segments.as_slice()) {
        ("POST", ["v1", "jobs"]) => Route::SubmitJob,
        ("GET", ["v1", "jobs", id]) => parse_id(id).map_or(Route::NotFound, Route::JobStatus),
        ("GET", ["v1", "jobs", id, "result"]) => parse_id(id).map_or(Route::NotFound, Route::JobResult),
        ("GET", ["v1", "jobs", id, "plan"]) => parse_id(id).map_or(Route::NotFound, Route::JobPlan),
        ("DELETE", ["v1", "jobs", id]) => parse_id(id).map_or(Route::NotFound, Route::CancelJob),
        ("POST", ["v1", "models"]) => Route::StageModel,
        ("GET", ["v1", "models"]) => Route::ModelInfo,
        ("GET", ["metrics"]) => Route::Metrics,
        ("GET", ["healthz"]) => Route::Health,
        ("POST", ["v1", "admin", "shutdown"]) => Route::Shutdown,
        (
            _,
            ["v1", "jobs"] | ["v1", "models"] | ["metrics"] | ["healthz"] | ["v1", "admin", "shutdown"],
        ) => Route::MethodNotAllowed,
        (_, ["v1", "jobs", id] | ["v1", "jobs", id, "result"] | ["v1", "jobs", id, "plan"])
            if parse_id(id).is_some() =>
        {
            Route::MethodNotAllowed
        }
        _ => Route::NotFound,
    }
}

fn parse_id(s: &str) -> Option<u64> {
    s.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_every_endpoint() {
        assert_eq!(route("POST", "/v1/jobs"), Route::SubmitJob);
        assert_eq!(route("GET", "/v1/jobs/42"), Route::JobStatus(42));
        assert_eq!(route("GET", "/v1/jobs/42/result"), Route::JobResult(42));
        assert_eq!(route("GET", "/v1/jobs/42/plan"), Route::JobPlan(42));
        assert_eq!(route("DELETE", "/v1/jobs/42"), Route::CancelJob(42));
        assert_eq!(route("POST", "/v1/models"), Route::StageModel);
        assert_eq!(route("GET", "/v1/models"), Route::ModelInfo);
        assert_eq!(route("GET", "/metrics"), Route::Metrics);
        assert_eq!(route("GET", "/healthz"), Route::Health);
        assert_eq!(route("POST", "/v1/admin/shutdown"), Route::Shutdown);
    }

    #[test]
    fn rejects_bad_paths_and_methods() {
        assert_eq!(route("GET", "/v1/jobs"), Route::MethodNotAllowed);
        assert_eq!(route("PUT", "/v1/jobs/42"), Route::MethodNotAllowed);
        assert_eq!(route("POST", "/v1/jobs/42/plan"), Route::MethodNotAllowed);
        assert_eq!(route("GET", "/v1/jobs/nope/plan"), Route::NotFound);
        assert_eq!(route("DELETE", "/metrics"), Route::MethodNotAllowed);
        assert_eq!(route("GET", "/v1/jobs/not-a-number"), Route::NotFound);
        assert_eq!(route("GET", "/"), Route::NotFound);
        assert_eq!(route("GET", "/v2/jobs"), Route::NotFound);
        assert_eq!(route("GET", "/v1/jobs/42/result/extra"), Route::NotFound);
    }
}
