//! Per-tenant fair-share admission control.
//!
//! Each tenant owns a bounded queue split into priority classes. A full
//! queue rejects immediately (the caller answers 429 + `Retry-After`) —
//! admission never buffers without bound. Dispatch order across
//! backlogged tenants follows *smooth weighted round-robin* (the nginx
//! algorithm): every pick, each tenant with queued work gains its weight
//! in credit, the highest-credit tenant is picked, and the pick pays back
//! the sum of active weights — yielding dispatch ratios proportional to
//! weights with maximally interleaved picks, so a flooding tenant can
//! never starve another. Within a tenant, higher priority classes are
//! always dispatched first.
//!
//! This module is pure data structure — no locks, no clocks; the service
//! holds it inside its own mutex, which is what makes dispatch order
//! deterministic given an arrival order.

use crate::tenant::TenantConfig;
use crate::wire::{Priority, NUM_PRIORITIES};
use std::collections::VecDeque;
use std::time::Instant;

/// A submission waiting in an admission queue.
#[derive(Debug)]
pub struct Pending {
    /// Service job id.
    pub job_id: u64,
    /// Job display name.
    pub name: String,
    /// The layout to synthesize.
    pub layout: neurfill_layout::Layout,
    /// Per-job deadline.
    pub timeout: Option<std::time::Duration>,
    /// Priority class it was admitted under.
    pub priority: Priority,
    /// When it was admitted (queue-wait SLO measurement).
    pub enqueued: Instant,
}

#[derive(Debug)]
struct TenantState {
    config: TenantConfig,
    classes: [VecDeque<Pending>; NUM_PRIORITIES],
    credit: i64,
}

impl TenantState {
    fn queued(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// No tenant with that name is configured.
    UnknownTenant(String),
    /// The tenant's queue is at capacity; retry after roughly the given
    /// number of seconds.
    QueueFull {
        /// The rejecting tenant.
        tenant: String,
        /// Suggested client backoff (the `Retry-After` header value).
        retry_after_s: u64,
    },
}

/// The admission state: tenant queues plus the WRR picker.
#[derive(Debug)]
pub struct Admission {
    tenants: Vec<TenantState>,
}

impl Admission {
    /// Builds admission state over the configured tenants.
    #[must_use]
    pub fn new(tenants: Vec<TenantConfig>) -> Self {
        let tenants = tenants
            .into_iter()
            .map(|config| TenantState { config, classes: Default::default(), credit: 0 })
            .collect();
        Self { tenants }
    }

    /// Index of the tenant named `name`.
    #[must_use]
    pub fn tenant_index(&self, name: &str) -> Option<usize> {
        self.tenants.iter().position(|t| t.config.name == name)
    }

    /// The tenant's configuration.
    #[must_use]
    pub fn tenant(&self, index: usize) -> &TenantConfig {
        &self.tenants[index].config
    }

    /// Configured tenant names, in order.
    #[must_use]
    pub fn tenant_names(&self) -> Vec<String> {
        self.tenants.iter().map(|t| t.config.name.clone()).collect()
    }

    /// Jobs queued across all tenants.
    #[must_use]
    pub fn total_queued(&self) -> usize {
        self.tenants.iter().map(TenantState::queued).sum()
    }

    /// Admits a submission into the tenant's queue, or rejects it when
    /// the queue is at capacity. `slots` (the service's dispatch
    /// concurrency) scales the suggested `Retry-After`.
    ///
    /// # Errors
    ///
    /// [`AdmitError::QueueFull`] with a backoff hint when at capacity.
    pub fn enqueue(&mut self, index: usize, pending: Pending, slots: usize) -> Result<(), AdmitError> {
        let tenant = &mut self.tenants[index];
        if tenant.queued() >= tenant.config.capacity {
            // A coarse hint: a full queue drains one job per free slot
            // per synthesis interval; scale linearly and cap it.
            let retry_after_s = (1 + tenant.config.capacity as u64 / slots.max(1) as u64).min(60);
            return Err(AdmitError::QueueFull { tenant: tenant.config.name.clone(), retry_after_s });
        }
        tenant.classes[pending.priority.index()].push_back(pending);
        Ok(())
    }

    /// Re-admits a journal-recovered submission, bypassing the capacity
    /// bound: a job acknowledged before a restart must never be lost to
    /// it, even when the recovered backlog exceeds the configured queue
    /// capacity. New submissions still go through [`Admission::enqueue`].
    pub fn restore(&mut self, index: usize, pending: Pending) {
        self.tenants[index].classes[pending.priority.index()].push_back(pending);
    }

    /// Picks the next submission to dispatch: smooth WRR across tenants
    /// with queued work, strict priority order within the picked tenant.
    /// Returns `None` when every queue is empty.
    pub fn dequeue(&mut self) -> Option<(usize, Pending)> {
        let active: Vec<usize> =
            (0..self.tenants.len()).filter(|&i| self.tenants[i].queued() > 0).collect();
        if active.is_empty() {
            return None;
        }
        let total_weight: i64 = active.iter().map(|&i| i64::from(self.tenants[i].config.weight)).sum();
        let mut best = active[0];
        for &i in &active {
            self.tenants[i].credit += i64::from(self.tenants[i].config.weight);
            if self.tenants[i].credit > self.tenants[best].credit {
                best = i;
            }
        }
        self.tenants[best].credit -= total_weight;
        let pending = self.tenants[best].classes.iter_mut().find_map(VecDeque::pop_front)?;
        Some((best, pending))
    }

    /// Removes a queued submission by job id (cancellation while queued).
    /// Returns the removed entry, or `None` if it already dispatched.
    pub fn remove(&mut self, job_id: u64) -> Option<Pending> {
        for tenant in &mut self.tenants {
            for class in &mut tenant.classes {
                if let Some(pos) = class.iter().position(|p| p.job_id == job_id) {
                    return class.remove(pos);
                }
            }
        }
        None
    }

    /// Drains every queue (drain-deadline expiry), returning the
    /// abandoned submissions.
    pub fn drain_all(&mut self) -> Vec<(usize, Pending)> {
        let mut out = Vec::new();
        for (i, tenant) in self.tenants.iter_mut().enumerate() {
            for class in &mut tenant.classes {
                while let Some(p) = class.pop_front() {
                    out.push((i, p));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurfill_layout::{DesignKind, DesignSpec};

    fn pending(job_id: u64, priority: Priority) -> Pending {
        Pending {
            job_id,
            name: format!("job-{job_id}"),
            layout: DesignSpec::new(DesignKind::CmpTest, 8, 8, 1).generate(),
            timeout: None,
            priority,
            enqueued: Instant::now(),
        }
    }

    fn admission(specs: &[(&str, u32, usize)]) -> Admission {
        Admission::new(
            specs
                .iter()
                .map(|(n, w, c)| TenantConfig { name: (*n).to_string(), weight: *w, capacity: *c })
                .collect(),
        )
    }

    #[test]
    fn weighted_round_robin_matches_weights_exactly() {
        // A(weight 3) and B(weight 1), both fully backlogged: every 4
        // consecutive picks must contain exactly 3 A's and 1 B.
        let mut adm = admission(&[("a", 3, 64), ("b", 1, 64)]);
        let (a, b) = (0, 1);
        let mut id = 0;
        for _ in 0..32 {
            id += 1;
            adm.enqueue(a, pending(id, Priority::Normal), 1).unwrap();
            id += 1;
            adm.enqueue(b, pending(id, Priority::Normal), 1).unwrap();
        }
        let picks: Vec<usize> = (0..32).map(|_| adm.dequeue().unwrap().0).collect();
        for window in picks.chunks(4) {
            let a_count = window.iter().filter(|&&t| t == a).count();
            assert_eq!(a_count, 3, "weights 3:1 must dispatch 3 a per 1 b, got {picks:?}");
        }
        // Smoothness: B is never delayed more than 4 picks.
        assert!(picks.iter().take(4).any(|&t| t == b), "{picks:?}");
    }

    #[test]
    fn flooding_tenant_cannot_starve_another() {
        let mut adm = admission(&[("flood", 1, 1024), ("small", 1, 16)]);
        for i in 0..512 {
            adm.enqueue(0, pending(i, Priority::Normal), 1).unwrap();
        }
        adm.enqueue(1, pending(9000, Priority::Normal), 1).unwrap();
        // The small tenant's single job is dispatched within two picks of
        // equal-weight WRR, despite a 512-deep flood.
        let first_two: Vec<usize> = (0..2).map(|_| adm.dequeue().unwrap().0).collect();
        assert!(first_two.contains(&1), "{first_two:?}");
    }

    #[test]
    fn priority_classes_dispatch_high_first_within_a_tenant() {
        let mut adm = admission(&[("t", 1, 64)]);
        adm.enqueue(0, pending(1, Priority::Low), 1).unwrap();
        adm.enqueue(0, pending(2, Priority::Normal), 1).unwrap();
        adm.enqueue(0, pending(3, Priority::High), 1).unwrap();
        adm.enqueue(0, pending(4, Priority::High), 1).unwrap();
        let order: Vec<u64> = (0..4).map(|_| adm.dequeue().unwrap().1.job_id).collect();
        assert_eq!(order, vec![3, 4, 2, 1]);
        assert!(adm.dequeue().is_none());
    }

    #[test]
    fn capacity_bound_rejects_with_retry_hint() {
        let mut adm = admission(&[("t", 1, 2)]);
        adm.enqueue(0, pending(1, Priority::Normal), 2).unwrap();
        adm.enqueue(0, pending(2, Priority::High), 2).unwrap();
        let err = adm.enqueue(0, pending(3, Priority::Normal), 2).unwrap_err();
        match err {
            AdmitError::QueueFull { tenant, retry_after_s } => {
                assert_eq!(tenant, "t");
                assert!(retry_after_s >= 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn remove_cancels_only_queued_entries() {
        let mut adm = admission(&[("t", 1, 8)]);
        adm.enqueue(0, pending(1, Priority::Normal), 1).unwrap();
        adm.enqueue(0, pending(2, Priority::Normal), 1).unwrap();
        assert_eq!(adm.remove(1).map(|p| p.job_id), Some(1));
        assert!(adm.remove(1).is_none());
        assert_eq!(adm.total_queued(), 1);
        let drained = adm.drain_all();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].1.job_id, 2);
    }
}
