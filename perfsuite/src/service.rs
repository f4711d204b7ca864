//! `service_churn`: the request path from RPC to durable ack.
//!
//! Set-up profiles the Table-1 catalog, starts a `ServiceRuntime` with
//! two central-flavour shards on a 32-server fabric behind a
//! `TcpServiceServer` on 127.0.0.1 (ephemeral port), its WALs in a
//! fresh directory of the benchmark's scratch space. Load is a seeded
//! `ChurnTrace` of register / create / destroy / deregister operations
//! from two closed-loop `TcpTransport` clients, each owning the tenants
//! of one parity so every tenant's order is kept. The unit operation is
//! one request, timed from send until its durable ack arrives.
//!
//! The gate: after shutdown every shard's WAL must replay to exactly
//! the clients' ack mirror, with no torn bytes.

use crate::host::{self, ScratchDir};
use crate::stats::{self, Summary};
use crate::trace::{Trace, Tracer};
use crate::{overhead_layer, repeat_setup, routing_probe, Layer, Outcome, Params};
use saba_core::controller::ControllerConfig;
use saba_core::library::Transport;
use saba_core::profiler::{Profiler, ProfilerConfig};
use saba_core::rpc::{decode_envelope, encode_envelope, Envelope, Request, Response};
use saba_core::sensitivity::SensitivityTable;
use saba_service::runtime::{RuntimeConfig, ServiceRuntime};
use saba_service::{
    DurableLog, Flavour, ReplayState, Shard, ShardSpec, TcpServiceServer, TcpTransport,
};
use saba_sim::ids::{AppId, NodeId};
use saba_sim::topology::Topology;
use saba_workload::churn::{ChurnOp, ChurnTrace, ChurnTraceConfig};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Closed-loop clients (and TCP connections) driving the load.
const CLIENTS: usize = 2;

struct Size {
    servers: usize,
    shards: usize,
    tenants: usize,
    conns_per_tenant: usize,
    /// Requests per second of budget, over both clients.
    ops_per_s: f64,
    probe_ops: usize,
}

impl Size {
    fn of(p: &Params) -> Self {
        if p.tiny {
            Self {
                servers: 8,
                shards: 2,
                tenants: 6,
                conns_per_tenant: 4,
                ops_per_s: 200.0,
                probe_ops: 40,
            }
        } else {
            Self {
                servers: 32,
                shards: 2,
                tenants: 16,
                conns_per_tenant: 8,
                ops_per_s: 5000.0,
                probe_ops: 4000,
            }
        }
    }
}

/// The inputs and the running service.
struct World {
    spec: ShardSpec,
    trace_cfg: ChurnTraceConfig,
    runtime: Arc<ServiceRuntime>,
    server: TcpServiceServer,
    clients: Vec<TcpTransport>,
    wal_dir: ScratchDir,
}

fn spec_and_trace(size: &Size, table: SensitivityTable) -> (ShardSpec, ChurnTraceConfig) {
    let workloads = table.iter().map(|m| m.workload.clone()).collect();
    let spec = ShardSpec {
        cfg: ControllerConfig::default(),
        table,
        topo: Topology::single_switch(size.servers, saba_sim::LINK_56G_BPS),
        flavour: Flavour::Central,
    };
    let trace_cfg = ChurnTraceConfig {
        tenants: size.tenants,
        servers: size.servers as u32,
        workloads,
        conns_per_tenant: size.conns_per_tenant,
        tenant_churn: 1e-3,
        demand_shift: 0.0,
    };
    (spec, trace_cfg)
}

fn profile(p: &Params) -> Result<SensitivityTable, String> {
    Profiler::new(ProfilerConfig {
        seed: p.seed,
        ..ProfilerConfig::default()
    })
    .profile_all(&saba_workload::catalog())
    .map_err(|e| format!("profiling: {e:?}"))
}

fn build(p: &Params, size: &Size, mut tr: Option<&mut Tracer>) -> Result<World, String> {
    let table = match tr.as_deref_mut() {
        Some(t) => t.span("core.profiler.profile", || profile(p)),
        None => profile(p),
    }?;
    let (spec, trace_cfg) = spec_and_trace(size, table);
    let wal_dir = ScratchDir::new("service-wal").map_err(|e| format!("WAL dir: {e}"))?;
    let cfg = RuntimeConfig {
        shards: size.shards,
        ..RuntimeConfig::new(wal_dir.path())
    };
    let start = || ServiceRuntime::start(spec.clone(), cfg);
    let runtime = match tr {
        Some(t) => t.span("service.runtime.start", start),
        None => start(),
    }
    .map_err(|e| format!("runtime start: {e}"))?;
    let runtime = Arc::new(runtime);
    let server = TcpServiceServer::bind(runtime.clone(), "127.0.0.1:0")
        .map_err(|e| format!("bind 127.0.0.1:0: {e}"))?;
    let clients = (0..CLIENTS)
        .map(|c| TcpTransport::connect(server.addr(), (c as u64 + 1) << 40))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    Ok(World {
        spec,
        trace_cfg,
        runtime,
        server,
        clients,
        wal_dir,
    })
}

fn to_request(op: &ChurnOp, servers: &[NodeId]) -> Result<Request, String> {
    Ok(match op {
        ChurnOp::Register { app, workload } => Request::AppRegister {
            app: AppId(*app),
            workload: workload.clone(),
        },
        ChurnOp::ConnCreate { app, src, dst, tag } => Request::ConnCreate {
            app: AppId(*app),
            src: servers[*src as usize % servers.len()],
            dst: servers[*dst as usize % servers.len()],
            tag: *tag,
        },
        ChurnOp::ConnDestroy { app, tag } => Request::ConnDestroy {
            app: AppId(*app),
            tag: *tag,
        },
        ChurnOp::Deregister { app } => Request::AppDeregister { app: AppId(*app) },
        ChurnOp::DemandShift { .. } => return Err("demand shifts are disabled".into()),
    })
}

/// What the clients saw acked: registrations and live connections.
#[derive(Debug, Default, Clone, PartialEq)]
struct Mirror {
    regs: BTreeMap<AppId, String>,
    live: BTreeMap<(AppId, u64), (NodeId, NodeId)>,
}

impl Mirror {
    fn absorb(&mut self, req: &Request) {
        match req {
            Request::AppRegister { app, workload } => {
                self.regs.insert(*app, workload.clone());
            }
            Request::ConnCreate { app, src, dst, tag } => {
                self.live.insert((*app, *tag), (*src, *dst));
            }
            Request::ConnDestroy { app, tag } => {
                self.live.remove(&(*app, *tag));
            }
            Request::AppDeregister { app } => {
                self.regs.remove(app);
                self.live.retain(|(a, _), _| a != app);
            }
            Request::MetricsDump => {}
        }
    }

    fn merge(&mut self, other: Mirror) {
        self.regs.extend(other.regs);
        self.live.extend(other.live);
    }
}

/// One client's share of a load window.
struct ClientRun {
    transport: TcpTransport,
    lat_s: Vec<f64>,
    spans: Vec<(Instant, Instant)>,
    sent: u64,
    failed: u64,
    mirror: Mirror,
    error: Option<String>,
}

fn client_loop(
    mut transport: TcpTransport,
    idx: usize,
    cfg: ChurnTraceConfig,
    seed: u64,
    servers: &[NodeId],
    count: usize,
) -> ClientRun {
    let (mut lat_s, mut spans) = (Vec::new(), Vec::new());
    let (mut sent, mut failed) = (0, 0);
    let mut mirror = Mirror::default();
    let mut error = None;
    let ops = ChurnTrace::new(cfg, seed).filter(|op| op.app() as usize % CLIENTS == idx);
    for op in ops.take(count) {
        let req = match to_request(&op, servers) {
            Ok(req) => req,
            Err(e) => {
                error = Some(e);
                break;
            }
        };
        let t0 = Instant::now();
        let resp = transport.call(req.clone());
        let t1 = Instant::now();
        sent += 1;
        match resp {
            Response::Registered { .. } | Response::Ack => {
                lat_s.push((t1 - t0).as_secs_f64());
                spans.push((t0, t1));
                mirror.absorb(&req);
            }
            _ => failed += 1,
        }
    }
    ClientRun {
        transport,
        lat_s,
        spans,
        sent,
        failed,
        mirror,
        error,
    }
}

/// One load window over both clients.
struct Load {
    lat_s: Vec<f64>,
    spans: Vec<(Instant, Instant)>,
    sent: u64,
    failed: u64,
    wall_s: f64,
    ops_per_fsync: f64,
}

/// Drives `ops` requests (half per client), then shuts the service
/// down and checks its WALs against the ack mirror.
fn drive(world: World, seed: u64, ops: usize) -> Result<Load, String> {
    let World {
        spec,
        trace_cfg,
        runtime,
        server,
        clients,
        wal_dir,
    } = world;
    let servers = spec.topo.servers().to_vec();
    let start = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(idx, t)| {
                let (cfg, servers) = (trace_cfg.clone(), &servers);
                s.spawn(move || client_loop(t, idx, cfg, seed, servers, ops / CLIENTS))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();

    let mut load = Load {
        lat_s: Vec::new(),
        spans: Vec::new(),
        sent: 0,
        failed: 0,
        wall_s,
        ops_per_fsync: 0.0,
    };
    let mut mirror = Mirror::default();
    let mut transports = Vec::new();
    for run in runs {
        if let Some(e) = run.error {
            return Err(e);
        }
        load.lat_s.extend(run.lat_s);
        load.spans.extend(run.spans);
        load.sent += run.sent;
        load.failed += run.failed;
        mirror.merge(run.mirror);
        transports.push(run.transport);
    }
    let page = transports[0]
        .dump_metrics()
        .map_err(|e| format!("metrics scrape: {e}"))?;
    let records = sum_family(&page, "wal_records_appended");
    let fsyncs = sum_family(&page, "wal_fsyncs");
    load.ops_per_fsync = if fsyncs > 0.0 { records / fsyncs } else { 0.0 };

    drop(transports);
    server.stop();
    let report = runtime.shutdown();
    let shards = runtime.cfg().shards;
    if report.workers.len() != shards || report.failovers != 0 {
        return Err(format!(
            "shutdown: {} worker reports, {} failovers",
            report.workers.len(),
            report.failovers
        ));
    }
    check_wal(wal_dir.path(), shards, &mirror)?;
    Ok(load)
}

/// Sums every sample of a gauge family on an exposition page.
fn sum_family(page: &str, family: &str) -> f64 {
    page.lines()
        .filter(|l| {
            l.strip_prefix(family)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// The durability gate: every shard's log replays, with no torn bytes,
/// to exactly the registrations and connections the clients saw acked.
fn check_wal(dir: &Path, shards: usize, mirror: &Mirror) -> Result<(), String> {
    let mut durable = Mirror::default();
    for id in 0..shards {
        let (_log, scan) = DurableLog::open(&Shard::log_path(dir, id), 1)
            .map_err(|e| format!("reopen shard {id} log: {e}"))?;
        if scan.torn_bytes != 0 {
            return Err(format!("shard {id} log has {} torn bytes", scan.torn_bytes));
        }
        let state = ReplayState::replay(&scan.records);
        durable.regs.extend(state.registrations);
        durable.live.extend(state.live_conns);
    }
    if durable.regs != mirror.regs {
        return Err(format!(
            "WAL replays {} registrations, clients saw {} acked",
            durable.regs.len(),
            mirror.regs.len()
        ));
    }
    if durable.live != mirror.live {
        return Err(format!(
            "WAL replays {} live connections, clients saw {} acked",
            durable.live.len(),
            mirror.live.len()
        ));
    }
    Ok(())
}

fn teardown(world: World) {
    drop(world.clients);
    world.server.stop();
    world.runtime.shutdown();
}

/// Requests of the churn stream, for the single-layer probes.
fn probe_requests(cfg: &ChurnTraceConfig, seed: u64, servers: &[NodeId], n: usize) -> Vec<Request> {
    ChurnTrace::new(cfg.clone(), seed)
        .take(n)
        .filter_map(|op| to_request(&op, servers).ok())
        .collect()
}

/// Single-layer probes, each on the same request stream: the RPC
/// codecs, a directly opened `Shard` fed one op per batch, and a bare
/// `DurableLog` on the same filesystem.
#[derive(Default)]
struct Probes {
    encode_s: Vec<f64>,
    decode_s: Vec<f64>,
    handle_s: Vec<f64>,
    append_s: Vec<f64>,
    sync_s: Vec<f64>,
}

fn run_probes(spec: &ShardSpec, reqs: &[Request], t: &mut Tracer) -> Result<Probes, String> {
    let mut pr = Probes::default();
    let envs: Vec<Envelope> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| Envelope::new(i as u64 + 1, r.clone()))
        .collect();
    for env in &envs {
        let id = t.begin("core.rpc.encode");
        let frame = encode_envelope(env);
        pr.encode_s.push(t.end(id));
        let id = t.begin("core.rpc.decode");
        let decoded = decode_envelope(&frame).map(|(e, _)| e);
        pr.decode_s.push(t.end(id));
        if decoded.as_ref() != Ok(env) {
            return Err(format!("envelope {} does not round-trip", env.request_id));
        }
    }

    let dir = ScratchDir::new("service-probe").map_err(|e| format!("probe dir: {e}"))?;
    let (mut shard, _) = Shard::open(0, spec.clone(), dir.path(), 32)
        .map_err(|e| format!("open probe shard: {e}"))?;
    // The shard and the bare log fsync on every op: half the stream.
    let durable = envs.len().div_ceil(2);
    for env in &envs[..durable] {
        let id = t.begin("service.shard.handle");
        let resp = shard.handle_batch(std::slice::from_ref(env));
        pr.handle_s.push(t.end(id));
        if !matches!(resp[..], [Response::Registered { .. }] | [Response::Ack]) {
            return Err(format!("probe shard refused {:?}: {resp:?}", env.request));
        }
    }
    drop(shard);

    let (mut log, _) = DurableLog::open(&dir.path().join("bare.log"), usize::MAX)
        .map_err(|e| format!("open bare log: {e}"))?;
    for req in &reqs[..durable] {
        let id = t.begin("service.wal.append");
        let r = log.append(req);
        pr.append_s.push(t.end(id));
        let id = t.begin("service.wal.sync");
        let s = log.sync();
        pr.sync_s.push(t.end(id));
        r.and(s).map_err(|e| format!("bare log write: {e}"))?;
    }
    Ok(pr)
}

/// Runs `service_churn`.
pub fn run(p: &Params) -> Result<Outcome, String> {
    let size = Size::of(p);
    let (world, setup_s) = repeat_setup(|| build(p, &size, None), teardown)?;
    let mut out = Outcome {
        setup_s,
        host: host::facts(world.wal_dir.path()),
        ..Outcome::default()
    };
    let budget = if p.trace { p.seconds * 0.4 } else { p.seconds };
    let ops = ((budget * size.ops_per_s).round() as usize).max(2 * CLIENTS);
    let plain = drive(world, p.seed, ops)?;
    out.attempted = plain.sent;
    out.failed = plain.failed;
    let lat = Summary::of(&plain.lat_s).ok_or("no acked requests")?;
    if !p.trace {
        out.ops_per_s = plain.lat_s.len() as f64 / plain.wall_s;
        out.op_p50_us = lat.p50 * 1e6;
        out.named("svc_ops_per_s", out.ops_per_s, "1/s");
        out.named("svc_latency_p50_us", lat.p50 * 1e6, "us");
        let mut sorted = plain.lat_s.clone();
        sorted.sort_by(f64::total_cmp);
        out.named(
            "svc_latency_p99_us",
            stats::percentile(&sorted, 0.99) * 1e6,
            "us",
        );
        out.named("wal_ops_per_fsync", plain.ops_per_fsync, "ratio");
        return Ok(out);
    }

    let mut t = Tracer::new();
    let root = t.begin("bench.service_churn");
    let world = build(p, &size, Some(&mut t))?;
    t.span("sim.routing.compute", || routing_probe(&world.spec.topo));
    let spec = world.spec.clone();
    let servers = spec.topo.servers().to_vec();
    let reqs = probe_requests(&world.trace_cfg, p.seed, &servers, size.probe_ops);
    let traced = drive(world, p.seed, ops)?;
    for &(a, b) in &traced.spans {
        t.record("service.client.call", a, b);
    }
    let probes = run_probes(&spec, &reqs, &mut t)?;
    t.end(root);
    let trace = t.finish();
    out.attempted += traced.sent;
    out.failed += traced.failed;
    out.spans = trace.by_name();
    out.layers = layers(&trace, &plain, &traced, &probes);
    Ok(out)
}

fn layers(trace: &Trace, plain: &Load, traced: &Load, pr: &Probes) -> Vec<Layer> {
    let client_p50 = stats::median(&traced.lat_s).unwrap_or(f64::NAN);
    let handle_p50 = stats::median(&pr.handle_s).unwrap_or(f64::NAN);
    vec![
        Layer::timing(
            "core.profiler.profile_s",
            &trace.durations("core.profiler.profile"),
            1.0,
        ),
        Layer::timing(
            "sim.routing.compute_s",
            &trace.durations("sim.routing.compute"),
            1.0,
        ),
        Layer::timing(
            "service.runtime.start_s",
            &trace.durations("service.runtime.start"),
            1.0,
        ),
        Layer::timing("core.rpc.encode_us", &pr.encode_s, 1e6),
        Layer::timing("core.rpc.decode_us", &pr.decode_s, 1e6),
        Layer::timing("service.shard.handle_us", &pr.handle_s, 1e6),
        Layer::timing("service.wal.append_us", &pr.append_s, 1e6),
        Layer::timing("service.wal.sync_us", &pr.sync_s, 1e6),
        Layer::derived(
            "service.wal.ops_per_fsync",
            traced.ops_per_fsync,
            traced.lat_s.len(),
            "records / fsyncs from the end-of-run metrics scrape",
        ),
        Layer::derived(
            "service.runtime.wait_us",
            (client_p50 - handle_p50) * 1e6,
            traced.lat_s.len(),
            &format!(
                "client p50 {:.1} us - shard handle p50 {:.1} us",
                client_p50 * 1e6,
                handle_p50 * 1e6
            ),
        ),
        overhead_layer(
            stats::median(&plain.lat_s).unwrap_or(f64::NAN),
            client_p50,
            traced.lat_s.len(),
        ),
        Layer::derived(
            "bench.trace.unaccounted_frac",
            trace.unaccounted_frac(),
            trace.spans.len(),
            "root wall not covered by a child span",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(trace: bool) -> Params {
        Params {
            seed: 3,
            seconds: 0.6,
            trace,
            tiny: true,
        }
    }

    #[test]
    fn sums_labelled_gauges() {
        let page =
            "# TYPE wal_fsyncs gauge\nwal_fsyncs{shard=\"0\"} 3\nwal_fsyncs{shard=\"1\"} 4\n\
                    wal_fsyncs_other 100\n";
        assert_eq!(sum_family(page, "wal_fsyncs"), 7.0);
        assert_eq!(sum_family(page, "wal_records_appended"), 0.0);
    }

    #[test]
    fn mirror_follows_acked_ops() {
        let (a, b) = (NodeId(1), NodeId(2));
        let mut m = Mirror::default();
        m.absorb(&Request::AppRegister {
            app: AppId(1),
            workload: "LR".into(),
        });
        m.absorb(&Request::ConnCreate {
            app: AppId(1),
            src: a,
            dst: b,
            tag: 9,
        });
        assert_eq!(m.live.len(), 1);
        m.absorb(&Request::AppDeregister { app: AppId(1) });
        assert!(m.regs.is_empty() && m.live.is_empty());
    }

    #[test]
    fn smoke_untraced() {
        let out = run(&tiny(false)).unwrap();
        assert_eq!(out.failed, 0);
        assert!(out.attempted > 0 && out.ops_per_s > 0.0 && out.op_p50_us > 0.0);
        assert_eq!(out.named.len(), 4);
    }

    #[test]
    fn smoke_traced() {
        let out = run(&tiny(true)).unwrap();
        for name in [
            "service.shard.handle_us",
            "service.wal.sync_us",
            "core.rpc.decode_us",
        ] {
            let l = out.layers.iter().find(|l| l.name == name).unwrap();
            assert!(l.n > 0 && l.value > 0.0, "{l:?}");
        }
    }

    #[test]
    fn wal_gate_rejects_a_lost_ack() {
        let dir = ScratchDir::new("gate-test").unwrap();
        let (mut log, _) = DurableLog::open(&Shard::log_path(dir.path(), 0), 1).unwrap();
        let reg = Request::AppRegister {
            app: AppId(4),
            workload: "LR".into(),
        };
        log.append(&reg).unwrap();
        log.sync().unwrap();
        drop(log);
        let mut mirror = Mirror::default();
        mirror.absorb(&reg);
        assert!(check_wal(dir.path(), 1, &mirror).is_ok());
        mirror.absorb(&Request::AppRegister {
            app: AppId(5),
            workload: "RF".into(),
        });
        assert!(check_wal(dir.path(), 1, &mirror).is_err());
    }
}
