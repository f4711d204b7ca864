//! `corun_testbed`: the fluid simulator's rate allocation inside §8.2
//! co-runs.
//!
//! Set-up profiles the Table-1 catalog in-process and draws a fixed
//! seeded set of 16-job setups on the 32-server testbed. Each setup
//! runs under the FECN baseline, Saba central and Saba distributed
//! through `cluster::run_setup`; the unit operation is one co-run.
//! Every job runs on 8 nodes at the profiled (1×) dataset: uniform
//! setups keep a run's mean co-run time steady across seeds, and one
//! setup's three co-runs take 1.5–2 seconds.
//!
//! The traced pass rebuilds each co-run from public pieces —
//! `Simulation::new` over a timing wrapper of the policy's fabric, then
//! `run_jobs` with every controller call timed in its callback — and
//! requires job completions bit-identical to `run_setup`'s.

use crate::host::{self, ScratchDir};
use crate::stats::{self, Summary};
use crate::trace::{Trace, Tracer};
use crate::{overhead_layer, repeat_setup, routing_probe, Layer, Outcome, Params};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use saba_cluster::corun::CorunConfig;
use saba_cluster::policy::AnyFabric;
use saba_cluster::{generate_setup, run_setup, ClusterSetup, JobResult, Policy, SetupConfig};
use saba_core::controller::central::CentralController;
use saba_core::controller::distributed::{DistributedController, MappingDb};
use saba_core::controller::{ControllerConfig, SwitchUpdate};
use saba_core::profiler::{Profiler, ProfilerConfig};
use saba_core::sensitivity::SensitivityTable;
use saba_sim::engine::{ActiveFlow, FabricModel, Simulation};
use saba_sim::ids::{AppId, NodeId, ServiceLevel};
use saba_sim::topology::Topology;
use saba_workload::runtime::{run_jobs, ConnEvent, JobRuntime};
use saba_workload::spec::WorkloadSpec;
use std::time::Instant;

/// Setups drawn per second of measurement budget: one setup's three
/// co-runs take 1.5–2 s on a 2-CPU x86-64 host.
const SETUPS_PER_SECOND: f64 = 0.6;

/// Shards of the distributed flavour.
const DIST_SHARDS: usize = 4;

/// The three policies every setup runs under, baseline first.
fn policies() -> [Policy; 3] {
    [
        Policy::baseline(),
        Policy::saba(),
        Policy::SabaDistributed(ControllerConfig::default(), DIST_SHARDS),
    ]
}

struct Size {
    servers: usize,
    setup: SetupConfig,
    setups: usize,
}

impl Size {
    fn of(p: &Params) -> Self {
        let budget = if p.trace { p.seconds / 2.0 } else { p.seconds };
        if p.tiny {
            return Self {
                servers: 8,
                setup: SetupConfig {
                    servers: 8,
                    jobs: 4,
                    node_choices: vec![2, 4],
                    dataset_choices: vec![0.1],
                    ..SetupConfig::default()
                },
                setups: 2,
            };
        }
        Self {
            servers: 32,
            setup: SetupConfig {
                node_choices: vec![8],
                dataset_choices: vec![1.0],
                ..SetupConfig::default()
            },
            setups: ((budget * SETUPS_PER_SECOND).round() as usize).max(2),
        }
    }
}

struct World {
    catalog: Vec<WorkloadSpec>,
    table: SensitivityTable,
    setups: Vec<ClusterSetup>,
    cfg: CorunConfig,
}

fn build(p: &Params, size: &Size, tr: Option<&mut Tracer>) -> Result<World, String> {
    let catalog = saba_workload::catalog();
    let profile = || {
        Profiler::new(ProfilerConfig {
            seed: p.seed,
            ..ProfilerConfig::default()
        })
        .profile_all(&catalog)
    };
    let table = match tr {
        Some(t) => t.span("core.profiler.profile", profile),
        None => profile(),
    }
    .map_err(|e| format!("profiling: {e:?}"))?;
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0x5ABA_C0A0);
    let setups = (0..size.setups)
        .map(|_| generate_setup(&catalog, &size.setup, &mut rng))
        .collect();
    Ok(World {
        catalog,
        table,
        setups,
        cfg: CorunConfig {
            seed: p.seed,
            ..CorunConfig::default()
        },
    })
}

/// Every job of a co-run must complete at a positive, finite time.
fn check_complete(setup: &ClusterSetup, res: &[JobResult], policy: &Policy) -> Result<(), String> {
    if res.len() != setup.jobs.len() {
        return Err(format!(
            "{}: {} of {} jobs reported",
            policy.name(),
            res.len(),
            setup.jobs.len()
        ));
    }
    match res
        .iter()
        .find(|r| !(r.completion > 0.0 && r.completion.is_finite()))
    {
        Some(r) => Err(format!("{}: job {r:?} did not complete", policy.name())),
        None => Ok(()),
    }
}

/// Untraced co-runs through `cluster::run_setup`.
struct Plain {
    /// Wall seconds per co-run, setup-major, policy-minor.
    wall_s: Vec<f64>,
    /// Completions per co-run, aligned with `wall_s`.
    completions: Vec<Vec<f64>>,
    /// Per-job baseline / Saba completion ratios, per flavour.
    speedups: [Vec<f64>; 2],
}

fn run_plain(world: &World, size: &Size) -> Result<Plain, String> {
    let mut plain = Plain {
        wall_s: Vec::new(),
        completions: Vec::new(),
        speedups: [Vec::new(), Vec::new()],
    };
    for setup in &world.setups {
        let mut results: Vec<Vec<JobResult>> = Vec::with_capacity(3);
        for policy in policies() {
            let t = Instant::now();
            let res = run_setup(
                setup,
                size.servers,
                &policy,
                &world.table,
                &world.catalog,
                &world.cfg,
            )?;
            plain.wall_s.push(t.elapsed().as_secs_f64());
            check_complete(setup, &res, &policy)?;
            plain
                .completions
                .push(res.iter().map(|r| r.completion).collect());
            results.push(res);
        }
        for (flavour, saba) in results[1..].iter().enumerate() {
            for (b, s) in results[0].iter().zip(saba) {
                plain.speedups[flavour].push(b.completion / s.completion);
            }
        }
    }
    Ok(plain)
}

/// A [`FabricModel`] that times every allocation into the tracer it
/// carries through the co-run.
struct TimedFabric {
    inner: AnyFabric,
    span: &'static str,
    tracer: Tracer,
    flows: Vec<usize>,
}

impl FabricModel for TimedFabric {
    fn allocate(&mut self, topo: &Topology, flows: &[ActiveFlow], rates: &mut Vec<f64>) {
        let id = self.tracer.begin(self.span);
        self.inner.allocate(topo, flows, rates);
        self.tracer.end(id);
        self.flows.push(flows.len());
    }
}

/// The controller in the loop, if any.
enum Ctl {
    None,
    Central(Box<CentralController>),
    Distributed(Box<DistributedController>),
}

impl Ctl {
    fn new(policy: &Policy, table: &SensitivityTable, topo: &Topology) -> Self {
        match policy {
            Policy::Saba(cfg) => Ctl::Central(Box::new(CentralController::new(
                cfg.clone(),
                table.clone(),
                topo,
            ))),
            Policy::SabaDistributed(cfg, shards) => {
                let db = MappingDb::build(table, cfg.num_pls, cfg.seed);
                Ctl::Distributed(Box::new(DistributedController::new(
                    cfg.clone(),
                    db,
                    topo,
                    *shards,
                )))
            }
            _ => Ctl::None,
        }
    }

    fn register(&mut self, app: AppId, workload: &str) -> Result<ServiceLevel, String> {
        match self {
            Ctl::None => Ok(ServiceLevel(0)),
            Ctl::Central(c) => c.register(app, workload).map_err(|e| e.to_string()),
            Ctl::Distributed(c) => c.register(app, workload).map_err(|e| e.to_string()),
        }
    }

    fn on_event(&mut self, ev: &ConnEvent) -> Result<Vec<SwitchUpdate>, String> {
        let r = match (self, ev) {
            (Ctl::None, _) => return Ok(Vec::new()),
            (Ctl::Central(c), ConnEvent::Created { app, src, dst, tag }) => {
                c.conn_create(*app, *src, *dst, *tag)
            }
            (Ctl::Central(c), ConnEvent::Destroyed { app, tag, .. }) => c.conn_destroy(*app, *tag),
            (Ctl::Central(c), ConnEvent::JobCompleted { app, .. }) => c.deregister(*app),
            (Ctl::Distributed(c), ConnEvent::Created { app, src, dst, tag }) => {
                c.conn_create(*app, *src, *dst, *tag)
            }
            (Ctl::Distributed(c), ConnEvent::Destroyed { app, tag, .. }) => {
                c.conn_destroy(*app, *tag)
            }
            (Ctl::Distributed(c), ConnEvent::JobCompleted { app, .. }) => c.deregister(*app),
        };
        r.map_err(|e| e.to_string())
    }
}

/// One co-run rebuilt from public pieces, exactly as `run_setup` plans
/// it, with the allocation, controller and enforcement calls timed.
/// Returns the job completions and the tracer handed back; appends the
/// flow count of every Saba allocation call to `saba_flows`.
fn traced_corun(
    world: &World,
    size: &Size,
    setup: &ClusterSetup,
    policy: &Policy,
    mut tracer: Tracer,
    saba_flows: &mut Vec<usize>,
) -> Result<(Vec<f64>, Tracer), String> {
    let topo = Topology::single_switch(size.servers, world.cfg.nic_rate);
    let mut ctl = Ctl::new(policy, &world.table, &topo);
    let mut runtimes = Vec::with_capacity(setup.jobs.len());
    for (i, job) in setup.jobs.iter().enumerate() {
        let spec = world
            .catalog
            .iter()
            .find(|w| w.name == job.workload)
            .ok_or_else(|| format!("workload {:?} not in catalog", job.workload))?;
        let mut rng = ChaCha8Rng::seed_from_u64(world.cfg.seed ^ (i as u64).wrapping_mul(0x9E37));
        let plan = spec
            .plan(job.dataset_scale, job.servers.len())
            .with_compute_jitter(world.cfg.compute_jitter, &mut rng);
        let nodes: Vec<NodeId> = job.servers.iter().map(|&s| topo.servers()[s]).collect();
        let app = AppId(i as u32);
        let sl = ctl.register(app, &job.workload)?;
        runtimes.push(JobRuntime::new(app, sl, nodes, plan, (i as u64) << 32));
    }
    let span = match policy {
        Policy::Baseline(_) => "baselines.fecn.allocate",
        _ => "sim.sharing.saba.allocate",
    };
    let corun = tracer.begin("sim.engine.corun");
    let fabric = TimedFabric {
        inner: policy.build_fabric(&topo),
        span,
        tracer,
        flows: Vec::new(),
    };
    let mut sim = Simulation::new(topo, fabric);
    let mut failure = None;
    let times = run_jobs(&mut sim, &mut runtimes, |sim, ev| {
        let t0 = Instant::now();
        let updates = ctl.on_event(ev);
        let t1 = Instant::now();
        sim.model_mut()
            .tracer
            .record("core.controller.corun_event", t0, t1);
        match updates {
            Ok(u) if !u.is_empty() => {
                let t0 = Instant::now();
                match &mut sim.model_mut().inner {
                    AnyFabric::Saba(f) => f.apply(u),
                    _ => unreachable!("only Saba policies emit switch updates"),
                }
                let t1 = Instant::now();
                sim.model_mut().tracer.record("core.fabric.apply", t0, t1);
            }
            Ok(_) => {}
            Err(e) => failure = failure.take().or(Some(e)),
        }
    })
    .map_err(|e| e.to_string())?;
    if let Some(e) = failure {
        return Err(format!(
            "{}: controller refused an event: {e}",
            policy.name()
        ));
    }
    let fabric = sim.model_mut();
    let mut tracer = std::mem::take(&mut fabric.tracer);
    tracer.end(corun);
    if !matches!(policy, Policy::Baseline(_)) {
        saba_flows.append(&mut fabric.flows);
    }
    Ok((times, tracer))
}

/// Runs `corun_testbed`.
pub fn run(p: &Params) -> Result<Outcome, String> {
    let size = Size::of(p);
    let scratch = ScratchDir::new("corun").map_err(|e| format!("scratch dir: {e}"))?;
    let (world, setup_s) = repeat_setup(|| build(p, &size, None), drop)?;
    let mut out = Outcome {
        setup_s,
        host: host::facts(scratch.path()),
        ..Outcome::default()
    };

    let plain = run_plain(&world, &size)?;
    out.attempted = plain.wall_s.len() as u64;
    if !p.trace {
        let walls = Summary::of(&plain.wall_s).ok_or("no co-runs")?;
        let total: f64 = plain.wall_s.iter().sum();
        out.ops_per_s = plain.wall_s.len() as f64 / total;
        out.op_p50_us = walls.p50 * 1e6;
        out.named("corun_mean_s", walls.mean, "s");
        for (flavour, name) in ["saba_speedup_geomean", "saba_dist_speedup_geomean"]
            .into_iter()
            .enumerate()
        {
            let g = stats::geomean(&plain.speedups[flavour])
                .ok_or_else(|| format!("{name}: no positive speedups"))?;
            out.named(name, g, "ratio");
        }
        return Ok(out);
    }

    // Traced pass: set-up, routing, and every co-run rebuilt and
    // checked bit-for-bit against the untraced completions.
    let mut t = Tracer::new();
    let root = t.begin("bench.corun_testbed");
    let world = build(p, &size, Some(&mut t))?;
    let topo = Topology::single_switch(size.servers, world.cfg.nic_rate);
    t.span("sim.routing.compute", || routing_probe(&topo));
    let mut saba_flows = Vec::new();
    let mut k = 0;
    for setup in &world.setups {
        for policy in policies() {
            let (completions, back) =
                traced_corun(&world, &size, setup, &policy, t, &mut saba_flows)?;
            t = back;
            let same = completions.len() == plain.completions[k].len()
                && completions
                    .iter()
                    .zip(&plain.completions[k])
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                return Err(format!(
                    "{}: traced completions {completions:?} differ from run_setup's {:?}",
                    policy.name(),
                    plain.completions[k]
                ));
            }
            k += 1;
        }
    }
    t.end(root);
    let trace = t.finish();
    out.spans = trace.by_name();
    out.layers = layers(&trace, &plain, &saba_flows);
    Ok(out)
}

fn layers(trace: &Trace, plain: &Plain, saba_flows: &[usize]) -> Vec<Layer> {
    let coruns = trace.durations("sim.engine.corun").len().max(1);
    let allocations = trace.durations("sim.sharing.saba.allocate").len()
        + trace.durations("baselines.fecn.allocate").len();
    let traced_walls = trace.durations("sim.engine.corun");
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
            "sim.sharing.saba.allocate_s",
            &trace.durations("sim.sharing.saba.allocate"),
            1.0,
        ),
        Layer::derived(
            "sim.sharing.saba.flows_per_call",
            saba_flows.iter().sum::<usize>() as f64 / saba_flows.len().max(1) as f64,
            saba_flows.len(),
            "mean active flows per Saba allocation call",
        ),
        Layer::timing(
            "baselines.fecn.allocate_s",
            &trace.durations("baselines.fecn.allocate"),
            1.0,
        ),
        Layer::timing(
            "core.controller.corun_event_us",
            &trace.durations("core.controller.corun_event"),
            1e6,
        ),
        Layer::timing(
            "core.fabric.apply_us",
            &trace.durations("core.fabric.apply"),
            1e6,
        ),
        Layer::timing(
            "sim.engine.self_s",
            &trace.self_times("sim.engine.corun"),
            1.0,
        ),
        Layer::derived(
            "sim.engine.allocations",
            allocations as f64 / coruns as f64,
            allocations,
            "allocation calls per co-run",
        ),
        overhead_layer(
            stats::median(&plain.wall_s).unwrap_or(f64::NAN),
            stats::median(&traced_walls).unwrap_or(f64::NAN),
            traced_walls.len(),
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
            seed: 5,
            seconds: 1.0,
            trace,
            tiny: true,
        }
    }

    #[test]
    fn smoke_untraced() {
        let out = run(&tiny(false)).unwrap();
        assert_eq!(out.attempted, 6);
        assert!(out.ops_per_s > 0.0 && out.op_p50_us > 0.0);
        let names: Vec<_> = out.named.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "corun_mean_s",
                "saba_speedup_geomean",
                "saba_dist_speedup_geomean"
            ]
        );
    }

    #[test]
    fn smoke_traced_is_bit_identical() {
        let out = run(&tiny(true)).unwrap();
        let alloc = out
            .layers
            .iter()
            .find(|l| l.name == "sim.sharing.saba.allocate_s")
            .unwrap();
        assert!(alloc.n > 0 && alloc.value > 0.0);
        assert!(
            out.layers.iter().all(|l| l.value.is_finite()),
            "{:?}",
            out.layers
        );
    }
}
