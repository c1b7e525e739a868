//! Simulation-as-a-service over the temporal-memoization simulator.
//!
//! `tm-serve` turns the single-shot simulator into a long-lived job
//! server: many clients submit kernel launches and Monte Carlo
//! resilience campaigns over one TCP socket speaking a newline-delimited
//! JSON protocol (specified in `PROTOCOL.md` at the repository root),
//! and a thread pool executes them against a warm [`tm_sim::DevicePool`].
//!
//! The crate is zero-dependency by construction — JSON comes from
//! `tm-obs`'s hand-rolled parser/writer, networking is
//! `std::net::TcpListener` — because the workspace builds offline
//! against an empty registry.
//!
//! # Layers
//!
//! - [`protocol`] — the wire format: request parsing, response
//!   rendering, error codes. The executable twin of `PROTOCOL.md`.
//! - [`scheduler`] — pure multi-tenant scheduling: request coalescing
//!   (identical jobs share one execution), round-robin fairness, and
//!   per-tenant quotas with structured `queue_full` backpressure.
//! - [`exec`] — what a worker does with a claimed job: launches on
//!   pooled warm devices, campaigns through
//!   [`tm_bench::run_campaign_observed`].
//! - [`server`] — the accept loop, connection threads and worker pool,
//!   publishing `serve.*` [`tm_obs::TelemetryHub`] series and
//!   per-request spans.
//! - [`client`] — a small blocking client (`repro --serve-addr` ships
//!   its own independent one; the protocol document is the contract).
//!
//! # Examples
//!
//! Serve on an ephemeral port, run one launch, read the counters:
//!
//! ```
//! use tm_serve::{Client, JobServer, ServerConfig};
//! use tm_obs::TelemetryHub;
//!
//! let hub = TelemetryHub::new();
//! let server = JobServer::bind("127.0.0.1:0", ServerConfig::default(), hub.clone()).unwrap();
//!
//! let mut client = Client::connect(&server.addr().to_string()).unwrap();
//! let result = client
//!     .request(r#"{"v":1,"type":"launch","id":"1","kernel":"sobel","scale":"test","seed":7}"#)
//!     .unwrap();
//! assert_eq!(result.get_bool("passed"), Some(true));
//! assert_eq!(hub.counter("serve.jobs_executed"), 1);
//! server.stop();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod exec;
pub mod protocol;
pub mod scheduler;
pub mod server;

pub use client::{Client, ClientError};
pub use exec::ResultPayload;
pub use protocol::{
    parse_request, write_frame, CampaignJob, Envelope, ErrorCode, LaunchSpec, Request, ServerStats,
    WireError, PROTOCOL_VERSION,
};
pub use scheduler::{ClaimedJob, JobId, JobOutcome, Scheduler, Submit, Waiter};
pub use server::{JobServer, ServerConfig};
