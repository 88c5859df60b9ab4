//! A hand-rolled Prometheus registry for the gateway's `/metrics` page.
//!
//! The [text exposition format] needs no library: `# HELP` / `# TYPE`
//! comments followed by `name{labels} value` lines. The registry keeps
//! three kinds of state:
//!
//! - **counters** updated as requests and jobs flow through the gateway
//!   (HTTP requests by route/code, submissions by tenant, evaluator
//!   throughput accumulated from terminal `EvaluatorStats` events);
//! - **histograms** observed at job completion (end-to-end job latency);
//! - **gauges** sampled at scrape time from
//!   [`SynthesisService::snapshot`](pimsyn::SynthesisService::snapshot)
//!   (queue depth, per-tenant occupancy, drain state) — those live in the
//!   server module, not here, because they are reads of service state
//!   rather than gateway state.
//!
//! [text exposition format]:
//!     https://prometheus.io/docs/instrumenting/exposition_formats/

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use pimsyn::EvaluatorStats;

use crate::http::escape_label;

/// Upper bounds (seconds) of the job-latency histogram buckets. Synthesis
/// jobs span ~0.1 s (fast effort, tiny budgets) to hours (paper effort on
/// large models), so the grid is log-spaced.
pub const LATENCY_BUCKETS: [f64; 10] = [0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 15.0, 60.0, 300.0, 1800.0];

/// A fixed-bucket histogram rendered as Prometheus `_bucket`/`_sum`/`_count`.
#[derive(Debug, Default)]
struct Histogram {
    /// Cumulative counts per bucket of [`LATENCY_BUCKETS`] (`+Inf` is
    /// derived from `count`).
    buckets: [u64; LATENCY_BUCKETS.len()],
    sum: f64,
    count: u64,
}

impl Histogram {
    fn observe(&mut self, value: f64) {
        for (i, bound) in LATENCY_BUCKETS.iter().enumerate() {
            if value <= *bound {
                self.buckets[i] += 1;
            }
        }
        self.sum += value;
        self.count += 1;
    }
}

/// The gateway's mutable metric state. All methods are cheap and callable
/// from connection threads.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// `(route, status)` → request count. Routes are the *patterns*
    /// (`/v1/jobs/{id}`), not raw paths, so cardinality stays bounded.
    http_requests: Mutex<BTreeMap<(String, u16), u64>>,
    /// Tenant → submitted-job count ("" = anonymous).
    jobs_submitted: Mutex<BTreeMap<String, u64>>,
    /// Tenant → finished-job count (success or failure).
    jobs_finished: Mutex<BTreeMap<String, u64>>,
    /// End-to-end latency (submit accepted → terminal event) of finished
    /// jobs.
    job_latency: Mutex<Histogram>,
    /// Candidate evaluations scored, summed over finished jobs' terminal
    /// evaluator-stats snapshots.
    eval_scored: AtomicU64,
    /// Unique (memo-missing) evaluations, same provenance.
    eval_unique: AtomicU64,
    /// Evaluation-cache hits, same provenance.
    eval_cache_hits: AtomicU64,
}

impl MetricsRegistry {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one HTTP request against its route pattern and status code.
    pub fn record_http(&self, route: &str, status: u16) {
        let mut map = self.http_requests.lock().expect("metrics");
        *map.entry((route.to_string(), status)).or_insert(0) += 1;
    }

    /// Counts one accepted submission for `tenant` ("" = anonymous).
    pub fn record_submitted(&self, tenant: &str) {
        let mut map = self.jobs_submitted.lock().expect("metrics");
        *map.entry(tenant.to_string()).or_insert(0) += 1;
    }

    /// Counts one finished job and observes its end-to-end latency.
    pub fn record_finished(&self, tenant: &str, latency_seconds: f64) {
        let mut map = self.jobs_finished.lock().expect("metrics");
        *map.entry(tenant.to_string()).or_insert(0) += 1;
        drop(map);
        self.job_latency
            .lock()
            .expect("metrics")
            .observe(latency_seconds);
    }

    /// Accumulates a finished job's terminal evaluator-stats counters.
    pub fn record_eval_stats(&self, stats: &EvaluatorStats) {
        for (counter, value) in [
            (&self.eval_scored, stats.scored),
            (&self.eval_unique, stats.unique_evaluations),
            (&self.eval_cache_hits, stats.cache_hits),
        ] {
            counter.fetch_add(value as u64, Ordering::Relaxed);
        }
    }

    /// Renders the registry's counters and histograms in Prometheus text
    /// format. The caller appends its scrape-time gauges.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(2048);

        out.push_str(concat!(
            "# HELP pimsyn_gateway_http_requests_total HTTP requests served, ",
            "by route pattern and status code.\n",
            "# TYPE pimsyn_gateway_http_requests_total counter\n",
        ));
        for ((route, status), count) in self.http_requests.lock().expect("metrics").iter() {
            let _ = writeln!(
                out,
                "pimsyn_gateway_http_requests_total{{route=\"{}\",code=\"{status}\"}} {count}",
                escape_label(route)
            );
        }

        out.push_str(concat!(
            "# HELP pimsyn_gateway_jobs_submitted_total Jobs accepted for ",
            "synthesis, by tenant (empty = anonymous).\n",
            "# TYPE pimsyn_gateway_jobs_submitted_total counter\n",
        ));
        for (tenant, count) in self.jobs_submitted.lock().expect("metrics").iter() {
            let _ = writeln!(
                out,
                "pimsyn_gateway_jobs_submitted_total{{tenant=\"{}\"}} {count}",
                escape_label(tenant)
            );
        }

        out.push_str(concat!(
            "# HELP pimsyn_gateway_jobs_finished_total Jobs that reached a ",
            "terminal state (success or failure), by tenant.\n",
            "# TYPE pimsyn_gateway_jobs_finished_total counter\n",
        ));
        for (tenant, count) in self.jobs_finished.lock().expect("metrics").iter() {
            let _ = writeln!(
                out,
                "pimsyn_gateway_jobs_finished_total{{tenant=\"{}\"}} {count}",
                escape_label(tenant)
            );
        }

        out.push_str(concat!(
            "# HELP pimsyn_gateway_job_latency_seconds End-to-end job ",
            "latency: submit accepted to terminal event.\n",
            "# TYPE pimsyn_gateway_job_latency_seconds histogram\n",
        ));
        {
            let histogram = self.job_latency.lock().expect("metrics");
            for (i, bound) in LATENCY_BUCKETS.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "pimsyn_gateway_job_latency_seconds_bucket{{le=\"{bound}\"}} {}",
                    histogram.buckets[i]
                );
            }
            let _ = writeln!(
                out,
                "pimsyn_gateway_job_latency_seconds_bucket{{le=\"+Inf\"}} {}",
                histogram.count
            );
            let _ = writeln!(
                out,
                "pimsyn_gateway_job_latency_seconds_sum {}",
                histogram.sum
            );
            let _ = writeln!(
                out,
                "pimsyn_gateway_job_latency_seconds_count {}",
                histogram.count
            );
        }

        for (name, help, value) in [
            (
                "pimsyn_gateway_evaluations_scored_total",
                "Candidate evaluations scored by finished jobs.",
                self.eval_scored.load(Ordering::Relaxed),
            ),
            (
                "pimsyn_gateway_evaluations_unique_total",
                "Unique (memo-missing) candidate evaluations by finished jobs.",
                self.eval_unique.load(Ordering::Relaxed),
            ),
            (
                "pimsyn_gateway_eval_cache_hits_total",
                "Evaluation-cache hits by finished jobs.",
                self.eval_cache_hits.load(Ordering::Relaxed),
            ),
        ] {
            let _ = writeln!(
                out,
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}"
            );
        }

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_counters_with_labels() {
        let registry = MetricsRegistry::new();
        registry.record_http("/v1/jobs", 202);
        registry.record_http("/v1/jobs", 202);
        registry.record_http("/v1/jobs/{id}", 404);
        registry.record_submitted("alice");
        registry.record_finished("alice", 0.3);
        registry.record_eval_stats(&EvaluatorStats {
            scored: 100,
            unique_evaluations: 40,
            cache_hits: 60,
            ..EvaluatorStats::default()
        });
        let text = registry.render();
        assert!(
            text.contains("pimsyn_gateway_http_requests_total{route=\"/v1/jobs\",code=\"202\"} 2")
        );
        assert!(text.contains(
            "pimsyn_gateway_http_requests_total{route=\"/v1/jobs/{id}\",code=\"404\"} 1"
        ));
        assert!(text.contains("pimsyn_gateway_jobs_submitted_total{tenant=\"alice\"} 1"));
        assert!(text.contains("pimsyn_gateway_jobs_finished_total{tenant=\"alice\"} 1"));
        assert!(text.contains("pimsyn_gateway_evaluations_scored_total 100"));
        assert!(text.contains("pimsyn_gateway_eval_cache_hits_total 60"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let registry = MetricsRegistry::new();
        registry.record_finished("", 0.05); // below every bound
        registry.record_finished("", 0.3); // lands in le=0.5 and up
        registry.record_finished("", 10_000.0); // beyond the largest bound
        let text = registry.render();
        assert!(text.contains("pimsyn_gateway_job_latency_seconds_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("pimsyn_gateway_job_latency_seconds_bucket{le=\"0.5\"} 2"));
        assert!(text.contains("pimsyn_gateway_job_latency_seconds_bucket{le=\"1800\"} 2"));
        assert!(text.contains("pimsyn_gateway_job_latency_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("pimsyn_gateway_job_latency_seconds_count 3"));
    }

    #[test]
    fn every_metric_family_has_help_and_type() {
        let text = MetricsRegistry::new().render();
        for family in [
            "pimsyn_gateway_http_requests_total",
            "pimsyn_gateway_jobs_submitted_total",
            "pimsyn_gateway_jobs_finished_total",
            "pimsyn_gateway_job_latency_seconds",
            "pimsyn_gateway_evaluations_scored_total",
        ] {
            assert!(text.contains(&format!("# HELP {family} ")), "{family}");
            assert!(text.contains(&format!("# TYPE {family} ")), "{family}");
        }
    }
}
