//! `served-mix`: the job server under load from two tenants.
//!
//! Set-up binds an in-process `JobServer` and connects one stock
//! `tm_serve::Client` per tenant. Each connection's pass is 7 test-scale
//! launches (one per kernel), a `snapshot` of the tenant's launch config,
//! a `restore` of the returned document and a `stats`; an op is one
//! request, timed at the client. The tenants' seeds differ, so no two
//! requests coalesce and every warm or cold pool outcome is the same in
//! every run. Each connection has one request in flight and its tenant a
//! queue limit of 8, so nothing is rejected.

use std::time::{Duration, Instant};

use tm_kernels::workload;
use tm_kernels::{KernelId, Scale, ALL_KERNELS};
use tm_obs::{JsonValue, ObjWriter, TelemetryHub};
use tm_serve::{Client, ClientError, JobServer, LaunchSpec, ServerConfig};
use tm_sim::prelude::*;
use tm_sim::DeviceSnapshot;

use crate::layers::{self, Launch, LaunchKernel};
use crate::trace::{elapsed_ns, median, Spans};
use crate::{overhead_pct, Args, Metric, Outcome, Passes, MIN_OPS};

const ERROR_RATE: f64 = 0.02;
/// The kernel whose launch config each tenant snapshots.
const SNAPSHOT_KERNEL: KernelId = KernelId::Sobel;
/// Idle devices the pool may keep: each pass releases one restored device
/// per tenant, and none may be evicted within a run.
const POOL_IDLE: usize = 4096;

/// One tenant: its seed and everything its requests must come back with.
struct Tenant {
    name: String,
    seed: u64,
    /// (request line, expected instructions, expected wavefronts).
    launches: Vec<(String, u64, u64)>,
    snapshot_line: String,
    snapshot_doc: String,
    fifo_entries: u64,
}

fn spec(kernel: KernelId, seed: u64) -> LaunchSpec {
    LaunchSpec {
        kernel,
        scale: Scale::Test,
        seed,
        backend: ExecBackend::Sequential,
        error_rate: ERROR_RATE,
    }
}

fn request_line(kind: &str, tenant: &str, kernel: KernelId, seed: u64) -> String {
    format!(
        "{{\"v\":1,\"type\":\"{kind}\",\"id\":\"{tenant}-{kind}-{}\",\"tenant\":\"{tenant}\",\"kernel\":\"{}\",\"scale\":\"test\",\"seed\":{seed},\"backend\":\"sequential\",\"error_rate\":{ERROR_RATE}}}",
        kernel.name(),
        kernel.name()
    )
}

/// Builds both tenants from the seed, with each launch's expected counts
/// taken from an in-process run of the same spec on a fresh device.
fn tenants(args: &Args) -> Vec<Tenant> {
    let mut seeds = args.seeds();
    let first = seeds.next_u64() >> 32;
    // Seeds stay below 2^32 so they survive the wire's f64 numbers.
    let second = (first + 1 + (seeds.next_u64() >> 33)) & 0xFFFF_FFFF;
    [first, second]
        .into_iter()
        .enumerate()
        .map(|(i, seed)| {
            let name = format!("t{i}");
            let launches = ALL_KERNELS
                .iter()
                .map(|&kernel| {
                    let config = spec(kernel, seed)
                        .device_config()
                        .expect("launch config is valid");
                    let mut device = Device::new(config);
                    workload::build(kernel, Scale::Test, seed).run(&mut device);
                    let report = device.report();
                    (
                        request_line("launch", &name, kernel, seed),
                        report.total_instructions(),
                        report.wavefronts,
                    )
                })
                .collect();
            let config = spec(SNAPSHOT_KERNEL, seed)
                .device_config()
                .expect("launch config is valid");
            let mut device = Device::new(config);
            workload::build(SNAPSHOT_KERNEL, Scale::Test, seed).run(&mut device);
            let snapshot = device.snapshot().expect("a finished device snapshots");
            Tenant {
                snapshot_line: request_line("snapshot", &name, SNAPSHOT_KERNEL, seed),
                snapshot_doc: snapshot.to_json(),
                fifo_entries: snapshot.fifo_entries(),
                name,
                seed,
                launches,
            }
        })
        .collect()
}

fn reference_launches(tenants: &[Tenant]) -> Vec<Launch> {
    tenants
        .iter()
        .flat_map(|t| {
            ALL_KERNELS.iter().map(move |&id| Launch {
                kernel: LaunchKernel::Workload {
                    id,
                    scale: Scale::Test,
                    seed: t.seed,
                },
                config: spec(id, t.seed)
                    .device_config()
                    .expect("launch config is valid"),
            })
        })
        .collect()
}

/// What one connection measured.
#[derive(Default)]
struct Conn {
    op_ms: Vec<f64>,
    /// One span per request of a traced pass: (request type, start,
    /// round trip in ns).
    spans: Vec<(&'static str, Instant, u64)>,
    /// Every pass's request latencies.
    passes: Passes,
    failed: u64,
    last_stats: Option<JsonValue>,
}

impl Conn {
    /// Sends one request of type `kind` and times it; a server `error`
    /// response counts as a failed op, a broken connection ends the run.
    fn request(
        &mut self,
        client: &mut Client,
        kind: &'static str,
        line: &str,
        traced: bool,
    ) -> Result<Option<JsonValue>, String> {
        let start = Instant::now();
        let reply = if kind == "ping" {
            client.ping().map(|()| JsonValue::Null)
        } else {
            client.request(line)
        };
        let ns = elapsed_ns(start);
        self.op_ms.push(ns as f64 / 1e6);
        if traced {
            self.spans.push((kind, start, ns));
        }
        match reply {
            Ok(v) => Ok(Some(v)),
            Err(ClientError::Server { code, message }) => {
                eprintln!("perfbench: server error [{code}]: {message}");
                self.failed += 1;
                Ok(None)
            }
            Err(e) => Err(format!("connection failed: {e}")),
        }
    }

    /// One pass of `tenant`'s request list.
    fn pass(&mut self, client: &mut Client, tenant: &Tenant, traced: bool) -> Result<(), String> {
        for (line, instructions, wavefronts) in &tenant.launches {
            if let Some(v) = self.request(client, "launch", line, traced)? {
                let ok = v.get_bool("passed") == Some(true)
                    && v.get_u64("instructions") == Some(*instructions)
                    && v.get_u64("wavefronts") == Some(*wavefronts);
                self.failed += u64::from(!ok);
            }
        }
        let doc = match self.request(client, "snapshot", &tenant.snapshot_line, traced)? {
            Some(v) if v.get_bool("passed") == Some(true) => {
                v.get_str("snapshot").map(str::to_string)
            }
            Some(_) => {
                self.failed += 1;
                None
            }
            None => None,
        };
        let doc = doc.unwrap_or_else(|| tenant.snapshot_doc.clone());
        let expected_fifo = if doc == tenant.snapshot_doc {
            Some(tenant.fifo_entries)
        } else {
            DeviceSnapshot::from_json(&doc)
                .ok()
                .map(|s| s.fifo_entries())
        };
        let mut w = ObjWriter::new();
        w.u64_field("v", 1);
        w.str_field("type", "restore");
        w.str_field("id", &format!("{}-restore", tenant.name));
        w.str_field("tenant", &tenant.name);
        w.str_field("snapshot", &doc);
        if let Some(v) = self.request(client, "restore", &w.finish(), traced)? {
            self.failed +=
                u64::from(expected_fifo.is_none() || v.get_u64("fifo_entries") != expected_fifo);
        }
        if let Some(v) = self.request(
            client,
            "stats",
            r#"{"v":1,"type":"stats","id":"stats"}"#,
            traced,
        )? {
            self.failed +=
                u64::from(v.get_u64("coalesced") != Some(0) || v.get_u64("rejected") != Some(0));
            self.last_stats = Some(v);
        }
        if traced {
            self.request(client, "ping", "", traced)?;
        }
        Ok(())
    }
}

/// Runs every connection's passes in parallel, each until `duration` has
/// gone by and it has made `min_ops` requests (at least one whole pass).
fn load(
    clients: &mut [Client],
    tenants: &[Tenant],
    duration: Duration,
    min_ops: usize,
    traced: bool,
) -> Result<Vec<Conn>, String> {
    let deadline = Instant::now() + duration;
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(tenants)
            .map(|(client, tenant)| {
                s.spawn(move || -> Result<Conn, String> {
                    let mut conn = Conn::default();
                    loop {
                        let before = conn.op_ms.len();
                        conn.pass(client, tenant, traced)?;
                        conn.passes.push(conn.op_ms[before..].to_vec());
                        if Instant::now() >= deadline && conn.op_ms.len() >= min_ops {
                            return Ok(conn);
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

struct Live {
    server: JobServer,
    clients: Vec<Client>,
}

impl Live {
    fn stop(self) {
        drop(self.clients);
        self.server.stop();
    }
}

fn set_up(tenants: &[Tenant]) -> Result<(Live, Vec<Conn>), String> {
    let config = ServerConfig {
        workers: 2,
        queue_limit: 8,
        pool_idle: POOL_IDLE,
    };
    let server = JobServer::bind("127.0.0.1:0", config, TelemetryHub::new())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr().to_string();
    let mut clients = tenants
        .iter()
        .map(|_| Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    // One untimed warm-up pass per connection: one op of each kind.
    let warm = load(&mut clients, tenants, Duration::ZERO, 0, false)?;
    Ok((Live { server, clients }, warm))
}

pub fn run(args: &Args, spans: &mut Spans) -> Result<Outcome, String> {
    let mut out = Outcome {
        consistent: true,
        ..Outcome::default()
    };
    let mut live: Option<Live> = None;
    let mut tenants_now = Vec::new();
    for _ in 0..args.setups() {
        if let Some(previous) = live.take() {
            previous.stop();
        }
        let start = Instant::now();
        tenants_now = tenants(args);
        let (next, warm) = set_up(&tenants_now)?;
        out.setup_s.push(start.elapsed().as_secs_f64());
        out.consistent &= warm.iter().all(|c| c.failed == 0);
        live = Some(next);
    }
    let Live {
        server,
        mut clients,
    } = live.expect("at least one set-up");

    let mut conns = Vec::new();
    if args.trace {
        let half = Duration::from_secs_f64(args.seconds / 2.0);
        let untraced = load(&mut clients, &tenants_now, half, 0, false)?;
        let first_span = server.recorder().span_count();
        spans.set_enabled(true);
        let traced = load(&mut clients, &tenants_now, half, 0, true)?;
        let passes =
            |conns: &[Conn]| -> Vec<Passes> { conns.iter().map(|c| c.passes.clone()).collect() };
        out.layers
            .push(overhead_pct(&passes(&untraced), &passes(&traced)));
        let by_kind = |kinds: &[&str]| -> Vec<f64> {
            traced
                .iter()
                .flat_map(|c| c.spans.iter())
                .filter(|(kind, _, _)| kinds.contains(kind))
                .map(|&(_, _, ns)| ns as f64 / 1e6)
                .collect()
        };
        let job_ms = by_kind(&["launch", "snapshot", "restore"]);
        let ping_ms = by_kind(&["ping"]);
        for &(kind, start, ns) in traced.iter().flat_map(|c| c.spans.iter()) {
            spans.push(&format!("serve.{kind}"), None, start, ns);
        }
        let exec_ms: Vec<f64> = server.recorder().with(|r| {
            r.spans()[first_span.min(r.spans().len())..]
                .iter()
                .filter(|s| s.name.starts_with("serve:") && s.name != "serve:inline")
                .map(|s| s.dur as f64 / 1e3)
                .collect()
        });
        let exec = if exec_ms.is_empty() {
            0.0
        } else {
            median(&exec_ms)
        };
        let stats = traced
            .iter()
            .find_map(|c| c.last_stats.clone())
            .ok_or("no stats reply")?;
        let count = |key: &str| stats.get_u64(key).unwrap_or(0) as f64;
        let metric = |name: &str, value: f64, unit| Metric {
            name: name.to_string(),
            value,
            unit,
        };
        out.layers.extend([
            metric("serve.ping_ms", median(&ping_ms), "ms"),
            metric("serve.exec_ms", exec, "ms"),
            metric("serve.wait_ms", median(&job_ms) - exec, "ms"),
            metric(
                "serve.pool_warm_ratio",
                count("pool_warm_hits") / (count("pool_warm_hits") + count("pool_cold_builds")),
                "ratio",
            ),
            metric("serve.coalesced", count("coalesced"), "count"),
            metric("serve.rejected", count("rejected"), "count"),
        ]);
        conns.extend(untraced);
        conns.extend(traced);
    } else {
        let per_conn = MIN_OPS.div_ceil(clients.len());
        conns = load(
            &mut clients,
            &tenants_now,
            Duration::from_secs_f64(args.seconds),
            per_conn,
            false,
        )?;
    }
    drop(clients);
    server.stop();
    for conn in conns {
        out.op_ms.extend(conn.op_ms);
        if !args.trace {
            out.lanes.push(conn.passes);
        }
        out.failed += conn.failed;
    }

    let launches = reference_launches(&tenants_now);
    out.model = layers::model_counts(&launches);
    if args.trace {
        out.layers.extend(layers::probe(&launches, spans));
    }
    Ok(out)
}
