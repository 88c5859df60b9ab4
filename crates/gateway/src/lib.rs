//! **pimsyn-gateway**: a multi-tenant HTTP/REST front end over
//! [`pimsyn::SynthesisService`].
//!
//! The gateway speaks plain HTTP/1.1 to anything that can `curl`: REST job
//! submission and lifecycle, Server-Sent-Events progress streaming,
//! Prometheus `/metrics`, bearer-token tenancy with per-tenant quotas, and
//! the service's weighted-fair scheduling across tenants. The HTTP layer is
//! hand-rolled on `std::net` — this workspace builds offline, and the
//! endpoint surface is small enough that a dependency would cost more
//! than it saves.
//!
//! # Quickstart
//!
//! ```no_run
//! use std::net::TcpListener;
//! use std::sync::Arc;
//! use pimsyn::{ServiceConfig, SynthesisService};
//! use pimsyn_gateway::{serve_gateway, GatewayConfig};
//!
//! # fn main() -> std::io::Result<()> {
//! let service = Arc::new(SynthesisService::new(ServiceConfig::default()));
//! let listener = TcpListener::bind("127.0.0.1:8080")?;
//! serve_gateway(listener, service, GatewayConfig::new())
//! # }
//! ```
//!
//! then:
//!
//! ```text
//! curl -s -X POST localhost:8080/v1/jobs \
//!      -d '{"model": "alexnet-cifar", "power": 9}'      # -> {"id": 1, ...}
//! curl -s localhost:8080/v1/jobs/1/result               # blocks; summary JSON
//! curl -s localhost:8080/v1/jobs/1/events               # SSE progress
//! curl -s localhost:8080/metrics                        # Prometheus text
//! curl -s -X POST localhost:8080/v1/drain               # graceful exit
//! ```
//!
//! The normative API contract lives in `docs/PROTOCOLS.md` ("Gateway HTTP
//! API"); `docs/ARCHITECTURE.md` places the gateway in the serving stack.
//! The `pimsyn gateway` CLI subcommand (this crate also owns the `pimsyn`
//! binary) wires the pieces together.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod http;
mod metrics;
mod payload;
mod server;
mod tenant;

pub use metrics::MetricsRegistry;
pub use payload::{parse_http_job, parse_job};
pub use server::{
    serve_gateway, serve_gateway_in_background, GatewayConfig, GatewayHandle, DEFAULT_HEARTBEAT,
};
pub use tenant::{TenantRegistry, TenantSource};
