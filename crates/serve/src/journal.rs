//! The write-ahead job journal: every admitted job's lifecycle
//! transitions, appended to a crash-tolerant [`AppendLog`] so a killed
//! service restarted on the same `--journal DIR` recovers its tenant
//! queues, re-dispatches non-terminal jobs idempotently, and serves
//! already-finished results straight from the journal.
//!
//! # Record schema (version 1, one [`AppendLog`] record per transition)
//!
//! Every payload is text-first: a head line `<verb> <id>`, `key value`
//! attribute lines, then (for `admit` and `done`) a blank line and a
//! binary/text body. Verbs:
//!
//! ```text
//! admit <id>      tenant/priority/[timeout_ms]/name lines, body = layout
//!                 (the one layout encoding, `write_layout_bits`)
//! dispatch <id>   job handed to the pool (observability; replay treats
//!                 dispatched-but-not-terminal the same as queued)
//! cancel <id>     cancelled while queued
//! done <id>       [degraded line], report_len line, body = report text
//!                 followed by the plan in the one plan format
//!                 (`neurfill_layout::io::write_plan`, whole layout)
//! failed <id>     error line
//! ```
//!
//! Replay folds records in append order, one at a time as the append log
//! streams them, into per-job final states: the last verb wins, and jobs
//! whose last record is `admit`/`dispatch` are the non-terminal ones the
//! service must run again. Only those keep their layout; a settled job
//! keeps its plan's shape. The append-log layer already dropped any torn
//! tail, so a record seen here was fully acknowledged on the original
//! timeline. A `done` record whose plan does not read back — an older
//! build's `plan_len`/`amounts` body — leaves the job `Pending`, so it
//! re-runs under its id instead of needing a second plan parser.

use crate::wire::Priority;
use neurfill_layout::io::{self as layout_io, PlanShape};
use neurfill_layout::Layout;
use neurfill_runtime::applog::AppendLog;
use neurfill_runtime::fault::{sites, FaultPlan};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// File name of the journal inside `--journal DIR`.
pub const JOURNAL_FILE: &str = "jobs.nflog";

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Terminal-or-not outcome of one job after replay.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveredState {
    /// Admitted (possibly dispatched) but never terminal: must be
    /// re-enqueued and run again.
    Pending {
        /// Whether a `dispatch` record was seen (observability only).
        dispatched: bool,
    },
    /// Finished; the journaled report and plan are servable as-is.
    Done {
        /// Degradation reason, if the run degraded to golden verification.
        degraded: Option<String>,
        /// The report text (`GET /v1/jobs/{id}/result` body).
        report: String,
        /// The fill-plan amounts, bit-exact through the plan format.
        plan: Vec<f64>,
    },
    /// Failed with an error message.
    Failed {
        /// The failure message.
        error: String,
    },
    /// Cancelled while queued.
    Cancelled,
}

/// One job's state reconstructed from the journal.
#[derive(Debug, Clone)]
pub struct RecoveredJob {
    /// Service job id (stable across restarts).
    pub id: u64,
    /// Tenant name it was admitted under.
    pub tenant: String,
    /// Display name.
    pub name: String,
    /// Priority class.
    pub priority: Priority,
    /// Per-job deadline.
    pub timeout: Option<Duration>,
    /// The whole layout's plan shape.
    pub shape: PlanShape,
    /// The layout to synthesize, kept only while the job is
    /// [`RecoveredState::Pending`] (it must run again).
    pub layout: Option<Layout>,
    /// Folded final state.
    pub state: RecoveredState,
}

impl RecoveredJob {
    /// Records a terminal state; the layout is no longer needed.
    fn settle(&mut self, state: RecoveredState) {
        self.state = state;
        self.layout = None;
    }
}

/// The journal handle the service appends to.
#[derive(Debug)]
pub struct JobJournal {
    log: AppendLog,
}

impl JobJournal {
    /// Opens (creating `dir` if needed) and replays the journal,
    /// returning recovered jobs sorted by id. `fault` is checked at
    /// [`sites::JOURNAL_WRITE`] on every append.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; malformed *validated* records (a schema
    /// bug, not a torn write) are `InvalidData`.
    pub fn open(dir: &Path, fault: Arc<FaultPlan>) -> io::Result<(Self, Vec<RecoveredJob>)> {
        std::fs::create_dir_all(dir)?;
        let mut jobs = BTreeMap::new();
        let mut index = 0u64;
        let (log, _) = AppendLog::open(dir.join(JOURNAL_FILE), sites::JOURNAL_WRITE, fault, |record| {
            apply_record(&mut jobs, record).map_err(|e| bad(format!("journal record {index}: {e}")))?;
            index += 1;
            Ok(())
        })?;
        Ok((Self { log }, jobs.into_values().collect()))
    }

    /// Records a job's admission (the write-ahead record: the submit is
    /// only acknowledged after this returns).
    ///
    /// # Errors
    ///
    /// Propagates append failures — the caller must then refuse the
    /// submission, keeping "acknowledged implies journaled".
    pub fn record_admit(
        &mut self,
        id: u64,
        tenant: &str,
        name: &str,
        priority: Priority,
        timeout: Option<Duration>,
        layout: &Layout,
    ) -> io::Result<()> {
        let mut payload = format!("admit {id}\ntenant {tenant}\npriority {}\n", priority.as_str());
        if let Some(t) = timeout {
            payload.push_str(&format!("timeout_ms {}\n", t.as_millis()));
        }
        payload.push_str(&format!("name {}\n\n", name.replace('\n', " ")));
        let mut bytes = payload.into_bytes();
        // The same bytes as the submit body and a `.layout` file.
        layout_io::write_layout_bits(layout, &mut bytes)
            .map_err(|e| bad(format!("unserializable layout for job {id}: {e}")))?;
        self.log.append(&bytes)
    }

    /// Records a dispatch into the pool.
    ///
    /// # Errors
    ///
    /// Propagates append failures.
    pub fn record_dispatch(&mut self, id: u64) -> io::Result<()> {
        self.log.append(format!("dispatch {id}\n").as_bytes())
    }

    /// Records a queued-side cancellation.
    ///
    /// # Errors
    ///
    /// Propagates append failures.
    pub fn record_cancel(&mut self, id: u64) -> io::Result<()> {
        self.log.append(format!("cancel {id}\n").as_bytes())
    }

    /// Records a successful completion with its servable result: the
    /// report, then `plan` over `shape` (the job's whole layout).
    ///
    /// # Errors
    ///
    /// Propagates append failures; `InvalidInput` when `plan` does not
    /// fill `shape`.
    pub fn record_done(
        &mut self,
        id: u64,
        degraded: Option<&str>,
        report: &str,
        shape: PlanShape,
        plan: &[f64],
    ) -> io::Result<()> {
        let mut payload = format!("done {id}\n");
        if let Some(reason) = degraded {
            payload.push_str(&format!("degraded {}\n", reason.replace('\n', " ")));
        }
        payload.push_str(&format!("report_len {}\n\n", report.len()));
        payload.push_str(report);
        let mut bytes = payload.into_bytes();
        layout_io::write_plan(shape, plan, &mut bytes)?;
        self.log.append(&bytes)
    }

    /// Records a failure.
    ///
    /// # Errors
    ///
    /// Propagates append failures.
    pub fn record_failed(&mut self, id: u64, error: &str) -> io::Result<()> {
        self.log.append(format!("failed {id}\nerror {}\n", error.replace('\n', " ")).as_bytes())
    }

    /// Fsyncs the journal (power-loss durability up to the last record).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn sync(&mut self) -> io::Result<()> {
        self.log.sync()
    }
}

/// Folds one replayed record into the per-job states.
fn apply_record(jobs: &mut BTreeMap<u64, RecoveredJob>, record: &[u8]) -> Result<(), String> {
    // Head-line + attribute lines are ASCII text; `admit`/`done` carry a
    // body after the first blank line.
    let (head_bytes, body) = match find_blank_line(record) {
        Some(split) => (&record[..split], Some(&record[split + 2..])),
        None => (record, None),
    };
    let head = std::str::from_utf8(head_bytes).map_err(|_| "non-utf8 record head".to_string())?;
    let mut lines = head.lines();
    let first = lines.next().ok_or("empty record")?;
    let (verb, id) = first.split_once(' ').ok_or_else(|| format!("bad head line {first:?}"))?;
    let id: u64 = id.trim().parse().map_err(|_| format!("bad job id {id:?}"))?;
    let attrs: Vec<(&str, &str)> = lines.map(|l| l.split_once(' ').unwrap_or((l, ""))).collect();
    let attr = |key: &str| attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);

    match verb {
        "admit" => {
            let tenant = attr("tenant").ok_or("admit record missing tenant")?.to_string();
            let name = attr("name").ok_or("admit record missing name")?.to_string();
            let priority = Priority::parse(attr("priority").unwrap_or(""))?;
            let timeout = match attr("timeout_ms") {
                None => None,
                Some(ms) => Some(Duration::from_millis(
                    ms.trim().parse().map_err(|_| format!("bad timeout_ms {ms:?}"))?,
                )),
            };
            let body = body.ok_or("admit record missing layout body")?;
            let layout =
                layout_io::read_layout_bits(body).map_err(|e| format!("bad layout body: {e}"))?;
            // Duplicate admits (impossible on one timeline, tolerated for
            // robustness) keep the first.
            jobs.entry(id).or_insert(RecoveredJob {
                id,
                tenant,
                name,
                priority,
                timeout,
                shape: PlanShape::of(&layout),
                layout: Some(layout),
                state: RecoveredState::Pending { dispatched: false },
            });
        }
        "dispatch" => {
            if let Some(job) = jobs.get_mut(&id) {
                if let RecoveredState::Pending { dispatched } = &mut job.state {
                    *dispatched = true;
                }
            }
        }
        "cancel" => {
            if let Some(job) = jobs.get_mut(&id) {
                job.settle(RecoveredState::Cancelled);
            }
        }
        "failed" => {
            if let Some(job) = jobs.get_mut(&id) {
                let error = attr("error").unwrap_or("unknown failure").to_string();
                job.settle(RecoveredState::Failed { error });
            }
        }
        "done" => {
            let Some(job) = jobs.get_mut(&id) else { return Ok(()) };
            let degraded = attr("degraded").map(str::to_string);
            let report_len: usize = attr("report_len")
                .ok_or("done record missing report_len")?
                .trim()
                .parse()
                .map_err(|_| "bad report_len".to_string())?;
            let body = body.ok_or("done record missing body")?;
            if body.len() < report_len {
                return Err(format!("done body {} bytes < report_len {report_len}", body.len()));
            }
            let report = std::str::from_utf8(&body[..report_len])
                .map_err(|_| "non-utf8 report".to_string())?
                .to_string();
            // A plan this build cannot read leaves the job pending: it
            // re-runs rather than serving a guess.
            if let Ok((_, plan)) = layout_io::read_plan(&body[report_len..]) {
                job.settle(RecoveredState::Done { degraded, report, plan });
            }
        }
        other => return Err(format!("unknown journal verb {other:?}")),
    }
    Ok(())
}

fn find_blank_line(bytes: &[u8]) -> Option<usize> {
    bytes.windows(2).position(|w| w == b"\n\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurfill_layout::{DesignKind, DesignSpec};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nf_journal_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn layout(seed: u64) -> Layout {
        DesignSpec::new(DesignKind::Fpga, 8, 8, seed).generate()
    }

    fn open(dir: &Path) -> (JobJournal, Vec<RecoveredJob>) {
        JobJournal::open(dir, Arc::new(FaultPlan::disabled())).unwrap()
    }

    /// A one-layer, one-row plan shape of `cols` windows.
    fn row(cols: usize) -> PlanShape {
        PlanShape { layers: 1, rect: neurfill_layout::TileRect { row0: 0, col0: 0, rows: 1, cols } }
    }

    #[test]
    fn lifecycle_folds_to_final_states() {
        let dir = tmp("fold");
        {
            let (mut j, recovered) = open(&dir);
            assert!(recovered.is_empty());
            // 1: runs to done; 2: cancelled while queued; 3: fails;
            // 4: dispatched, never terminal; 5: admitted only.
            for (id, seed) in [(1u64, 1u64), (2, 2), (3, 3), (4, 4), (5, 5)] {
                j.record_admit(
                    id,
                    "acme",
                    &format!("job-{id}"),
                    Priority::Normal,
                    (id == 1).then(|| Duration::from_millis(1500)),
                    &layout(seed),
                )
                .unwrap();
            }
            j.record_dispatch(1).unwrap();
            j.record_dispatch(3).unwrap();
            j.record_dispatch(4).unwrap();
            j.record_cancel(2).unwrap();
            j.record_done(1, Some("fell back to golden"), "report text\n", row(2), &[0.5, 1.0 / 3.0])
                .unwrap();
            j.record_failed(3, "synthesis exploded\nbadly").unwrap();
        }
        let (_, recovered) = open(&dir);
        assert_eq!(recovered.len(), 5);
        assert_eq!(recovered.iter().map(|j| j.id).collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
        let by_id = |id: u64| recovered.iter().find(|j| j.id == id).unwrap();
        match &by_id(1).state {
            RecoveredState::Done { degraded, report, plan } => {
                assert_eq!(degraded.as_deref(), Some("fell back to golden"));
                assert_eq!(report, "report text\n");
                assert_eq!(plan.len(), 2);
                assert_eq!(plan[1].to_bits(), (1.0f64 / 3.0).to_bits(), "plan is bit-exact");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(by_id(1).timeout, Some(Duration::from_millis(1500)));
        assert_eq!(by_id(2).state, RecoveredState::Cancelled);
        match &by_id(3).state {
            RecoveredState::Failed { error } => assert_eq!(error, "synthesis exploded badly"),
            other => panic!("{other:?}"),
        }
        assert_eq!(by_id(4).state, RecoveredState::Pending { dispatched: true });
        assert_eq!(by_id(5).state, RecoveredState::Pending { dispatched: false });
        assert_eq!(by_id(5).tenant, "acme");
        assert_eq!(by_id(5).name, "job-5");
        // The layout round-trips bit-exactly through the journal.
        let mut expect = Vec::new();
        layout_io::write_layout_bits(&layout(5), &mut expect).unwrap();
        let mut got = Vec::new();
        layout_io::write_layout_bits(by_id(5).layout.as_ref().unwrap(), &mut got).unwrap();
        assert_eq!(got, expect);
        // Settled jobs keep their plan shape, not their layout.
        assert!(by_id(1).layout.is_none() && by_id(2).layout.is_none());
        assert_eq!(by_id(1).shape, PlanShape::of(&layout(1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_loses_only_the_unacked_record() {
        let dir = tmp("torn");
        let fault = Arc::new(FaultPlan::parse("journal_write=crash@3", 0).unwrap());
        {
            let (mut j, _) = JobJournal::open(&dir, fault).unwrap();
            j.record_admit(1, "t", "a", Priority::Normal, None, &layout(1)).unwrap();
            j.record_dispatch(1).unwrap();
            // The kill lands mid-append: the record was never acked.
            assert!(j.record_done(1, None, "r", row(1), &[1.0]).is_err());
            assert!(j.log.is_dead());
        }
        let (_, recovered) = open(&dir);
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].state, RecoveredState::Pending { dispatched: true });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ids_survive_restart_and_journal_continues() {
        let dir = tmp("continue");
        {
            let (mut j, _) = open(&dir);
            j.record_admit(7, "t", "seven", Priority::High, None, &layout(7)).unwrap();
        }
        {
            let (mut j, recovered) = open(&dir);
            assert_eq!(recovered[0].id, 7);
            j.record_dispatch(7).unwrap();
            j.record_done(7, None, "ok\n", row(0), &[]).unwrap();
        }
        let (j, recovered) = open(&dir);
        assert_eq!(j.log.len(), 3);
        assert!(matches!(recovered[0].state, RecoveredState::Done { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
