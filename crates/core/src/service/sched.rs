//! The [`SynthesisService`]'s wait queue: weighted deficit round-robin
//! across tenants.
//!
//! Multi-tenant front ends (the HTTP gateway) need *fairness*: one tenant
//! flooding the queue must not starve everyone else. Each tenant owns a
//! FIFO of its jobs, the rotation grants each tenant a credit quantum equal
//! to its [`TenantPolicy::weight`](super::TenantPolicy::weight), and every
//! dispatched job costs one credit. Two tenants flooding the queue
//! therefore get slots in proportion to their weights. Jobs submitted
//! without a tenant share one anonymous weight-1 lane, so a single lane —
//! the engine's batches, a gateway without keys — dispatches in
//! submission order.
//!
//! Scheduling only reorders *dispatch*; each job's synthesis is
//! deterministic in isolation, so dispatch order never changes any job's
//! result. Per-tenant `max_running` caps are enforced here too: a tenant at
//! its cap is rotated past without consuming credit until a slot frees up.
//!
//! All methods are called under the service's queue mutex, so the queue
//! needs no interior locking.
//!
//! [`SynthesisService`]: super::SynthesisService

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use super::JobState;

/// Whether a job's tenant is under its `max_running` cap.
fn dispatchable(job: &JobState, running: &HashMap<String, usize>) -> bool {
    match job.max_running() {
        Some(cap) => running.get(job.tenant_key()).copied().unwrap_or(0) < cap,
        None => true,
    }
}

/// Weighted deficit round-robin: one FIFO per tenant, tenants served in
/// rotation, `weight` dispatches per visit.
#[derive(Default)]
pub(super) struct DrrScheduler {
    /// Per-tenant FIFO queues; entries are removed when they empty.
    queues: HashMap<String, VecDeque<Arc<JobState>>>,
    /// Rotation order over tenants with queued jobs (front = next served).
    active: VecDeque<String>,
    /// Unspent dispatch credits of the tenant currently at the front.
    credit: HashMap<String, u64>,
}

impl DrrScheduler {
    /// Adds a job to the back of its tenant's lane.
    pub(super) fn enqueue(&mut self, job: Arc<JobState>) {
        let tenant = job.tenant_key().to_string();
        let queue = self.queues.entry(tenant.clone()).or_default();
        if queue.is_empty() {
            // Empty queues are pruned on dequeue, so empty here means the
            // tenant just became active: it joins the back of the rotation.
            self.active.push_back(tenant);
        }
        queue.push_back(job);
    }

    /// Removes and returns the next dispatchable job. `running` maps tenant
    /// key → jobs currently occupying slots; tenants at their `max_running`
    /// cap are not dispatched. `None` when nothing can run right now.
    pub(super) fn dequeue(&mut self, running: &HashMap<String, usize>) -> Option<Arc<JobState>> {
        // At most one full rotation: if every active tenant is at its
        // running cap, nothing can dispatch right now.
        let mut skipped = 0usize;
        while skipped < self.active.len() {
            let tenant = self.active.front().cloned()?;
            let queue = self
                .queues
                .get_mut(&tenant)
                .expect("active tenant has a queue");
            let front = queue.front().expect("active tenant queue is non-empty");
            if !dispatchable(front, running) {
                // Rotate past a capped tenant without consuming credit.
                self.active.rotate_left(1);
                skipped += 1;
                continue;
            }
            let credit = self.credit.entry(tenant.clone()).or_insert(0);
            if *credit == 0 {
                // A fresh visit grants one quantum: the tenant's weight.
                *credit = u64::from(front.weight());
            }
            *credit -= 1;
            let exhausted = *credit == 0;
            let job = queue.pop_front().expect("front existed");
            if queue.is_empty() {
                self.queues.remove(&tenant);
                self.credit.remove(&tenant);
                self.active.pop_front();
            } else if exhausted {
                self.active.rotate_left(1);
            }
            return Some(job);
        }
        None
    }

    /// Removes and returns every waiting job (shutdown path).
    pub(super) fn drain_all(&mut self) -> Vec<Arc<JobState>> {
        let mut all = Vec::new();
        for tenant in std::mem::take(&mut self.active) {
            if let Some(mut queue) = self.queues.remove(&tenant) {
                all.extend(queue.drain(..));
            }
        }
        self.credit.clear();
        all
    }

    /// Waiting jobs, total.
    pub(super) fn len(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }

    /// Waiting jobs of one tenant (`max_queued` quota checks).
    pub(super) fn queued_for(&self, tenant: &str) -> usize {
        self.queues.get(tenant).map_or(0, VecDeque::len)
    }

    /// `(tenant key, waiting jobs)` for every tenant with queued work
    /// (introspection/metrics).
    pub(super) fn tenant_counts(&self) -> Vec<(String, usize)> {
        self.active
            .iter()
            .map(|tenant| (tenant.clone(), self.queues[tenant].len()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::TenantPolicy;
    use super::*;
    use pimsyn_dse::CancelToken;

    fn job(id: u64, tenant: Option<TenantPolicy>) -> Arc<JobState> {
        Arc::new(JobState::new(id, tenant, CancelToken::default(), None))
    }

    fn drain_ids(sched: &mut DrrScheduler, running: &HashMap<String, usize>) -> Vec<u64> {
        let mut order = Vec::new();
        while let Some(job) = sched.dequeue(running) {
            order.push(job.id);
        }
        order
    }

    /// The anonymous lane (engine batches, a gateway without keys)
    /// dispatches first in, first out.
    #[test]
    fn fifo_dispatches_in_submission_order() {
        let mut sched = DrrScheduler::default();
        for id in 0..5 {
            sched.enqueue(job(id, None));
        }
        assert_eq!(sched.len(), 5);
        assert_eq!(drain_ids(&mut sched, &HashMap::new()), vec![0, 1, 2, 3, 4]);
        assert_eq!(sched.len(), 0);
    }

    #[test]
    fn weighted_fair_single_tenant_degenerates_to_fifo() {
        let mut sched = DrrScheduler::default();
        let tenant = TenantPolicy::new("solo").with_weight(3);
        for id in 0..6 {
            sched.enqueue(job(id, Some(tenant.clone())));
        }
        assert_eq!(
            drain_ids(&mut sched, &HashMap::new()),
            vec![0, 1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn weighted_fair_interleaves_tenants_in_weight_proportion() {
        let mut sched = DrrScheduler::default();
        let a = TenantPolicy::new("a").with_weight(3);
        let b = TenantPolicy::new("b").with_weight(1);
        // a gets even ids, b odd ids; both flood the queue.
        for i in 0..6u64 {
            sched.enqueue(job(2 * i, Some(a.clone())));
            sched.enqueue(job(2 * i + 1, Some(b.clone())));
        }
        // Rotation: a serves 3, b serves 1, repeatedly — a 3:1 dispatch
        // ratio while both have work, then b drains its tail.
        assert_eq!(
            drain_ids(&mut sched, &HashMap::new()),
            vec![0, 2, 4, 1, 6, 8, 10, 3, 5, 7, 9, 11]
        );
    }

    #[test]
    fn max_running_caps_defer_dispatch_without_losing_jobs() {
        let mut sched = DrrScheduler::default();
        let capped = TenantPolicy::new("capped").with_max_running(1);
        sched.enqueue(job(0, Some(capped.clone())));
        sched.enqueue(job(1, Some(TenantPolicy::new("free"))));
        let mut running = HashMap::new();
        running.insert("capped".to_string(), 1usize);
        // The capped tenant is rotated past; the free tenant dispatches.
        assert_eq!(sched.dequeue(&running).expect("free job").id, 1);
        assert!(
            sched.dequeue(&running).is_none(),
            "capped tenant must not dispatch at its running cap"
        );
        assert_eq!(sched.len(), 1, "the capped job stays queued");
        running.clear();
        assert_eq!(sched.dequeue(&running).expect("now dispatchable").id, 0);
    }

    /// A capped tenant's job at the head of the line does not hold back
    /// the anonymous lane queued behind it.
    #[test]
    fn fifo_skips_capped_head_of_line() {
        let mut sched = DrrScheduler::default();
        let capped = TenantPolicy::new("capped").with_max_running(1);
        sched.enqueue(job(0, Some(capped)));
        sched.enqueue(job(1, None));
        let mut running = HashMap::new();
        running.insert("capped".to_string(), 1usize);
        assert_eq!(sched.dequeue(&running).expect("anonymous job").id, 1);
        assert!(sched.dequeue(&running).is_none());
    }

    #[test]
    fn drain_all_empties_every_lane() {
        let mut sched = DrrScheduler::default();
        sched.enqueue(job(0, Some(TenantPolicy::new("a"))));
        sched.enqueue(job(1, Some(TenantPolicy::new("b"))));
        sched.enqueue(job(2, None));
        let mut drained: Vec<u64> = sched.drain_all().iter().map(|j| j.id).collect();
        drained.sort_unstable();
        assert_eq!(drained, vec![0, 1, 2]);
        assert_eq!(sched.len(), 0);
        assert!(sched.tenant_counts().is_empty());
    }

    #[test]
    fn tenant_counts_reflect_queued_work() {
        let mut sched = DrrScheduler::default();
        sched.enqueue(job(0, Some(TenantPolicy::new("a"))));
        sched.enqueue(job(1, Some(TenantPolicy::new("a"))));
        sched.enqueue(job(2, Some(TenantPolicy::new("b"))));
        assert_eq!(sched.queued_for("a"), 2);
        assert_eq!(sched.queued_for("b"), 1);
        assert_eq!(sched.queued_for("nope"), 0);
        let counts = sched.tenant_counts();
        assert!(counts.contains(&("a".to_string(), 2)));
        assert!(counts.contains(&("b".to_string(), 1)));
    }
}
