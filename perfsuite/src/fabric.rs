//! `fabric_churn`: the Eq. 2 solve and controller epochs on the §8.1
//! 1,944-server spine-leaf fabric.
//!
//! Set-up profiles a fixed family of 20 synthetic workloads, registers
//! 100 applications over them and loads 2,000 seeded live connections
//! into a central (preloaded) and a distributed (created) controller.
//! Timed phases: cold `recompute_all` epochs on clones made outside the
//! timed region, then one closed-loop caller sending a seeded
//! create/destroy stream to the warm central controller, then the same
//! stream to the distributed one. The unit operation is one central
//! churn event.

use crate::host::{self, ScratchDir};
use crate::stats::{self, Summary};
use crate::trace::{Trace, Tracer};
use crate::{overhead_layer, repeat_setup, require_median, Layer, Outcome, Params};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use saba_core::controller::central::CentralController;
use saba_core::controller::distributed::{DistributedController, MappingDb};
use saba_core::controller::weights::port_weights_protected;
use saba_core::controller::{ControllerConfig, SwitchUpdate};
use saba_core::profiler::{Profiler, ProfilerConfig};
use saba_core::sensitivity::SensitivityTable;
use saba_sim::ids::{AppId, LinkId, NodeId};
use saba_sim::routing::Routes;
use saba_sim::topology::{SpineLeafConfig, Topology};
use saba_workload::synthetic::{synthetic_workloads, SyntheticConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The synthetic workload family is fixed, like the Table-1 catalog of
/// the other workloads; `--seed` drives profiling noise, the live set
/// and the churn stream.
const WORKLOAD_FAMILY_SEED: u64 = 0x5ABA_0081;

/// Relative tolerance of the incremental-vs-cold gate.
const GATE_RTOL: f64 = 1e-6;

struct Size {
    fabric: SpineLeafConfig,
    conns: usize,
    apps: u32,
    models: usize,
    dist_shards: usize,
    /// Cold epochs per second of budget.
    cold_per_s: f64,
    /// Churn events (per flavour) per second of budget.
    events_per_s: f64,
}

impl Size {
    fn of(p: &Params) -> Self {
        if p.tiny {
            Self {
                fabric: SpineLeafConfig::tiny(4),
                conns: 60,
                apps: 8,
                models: 4,
                dist_shards: 2,
                cold_per_s: 4.0,
                events_per_s: 100.0,
            }
        } else {
            Self {
                fabric: SpineLeafConfig::paper(),
                conns: 2000,
                apps: 100,
                models: 20,
                dist_shards: 4,
                cold_per_s: 0.5,
                events_per_s: 800.0,
            }
        }
    }
}

/// A live connection: `(app, src, dst, tag)`.
type Conn = (u32, NodeId, NodeId, u64);

#[derive(Debug, Clone, Copy)]
enum Op {
    Create(Conn),
    Destroy(u32, u64),
}

/// The seeded churn stream: alternately destroys a random live
/// connection and creates a fresh one, so the live set stays the same
/// size. Two streams built from the same seed and live set are equal.
#[derive(Clone)]
struct Stream {
    rng: StdRng,
    live: Vec<Conn>,
    servers: Vec<NodeId>,
    apps: u32,
    next_tag: u64,
    create_next: bool,
}

impl Stream {
    fn new(seed: u64, live: &[Conn], servers: &[NodeId], apps: u32) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed ^ 0x5ABA_C4A0),
            live: live.to_vec(),
            servers: servers.to_vec(),
            apps,
            next_tag: live.len() as u64,
            create_next: false,
        }
    }

    fn next_op(&mut self) -> Op {
        self.create_next = !self.create_next;
        if !self.create_next && !self.live.is_empty() {
            let i = self.rng.gen_range(0..self.live.len());
            let (app, _, _, tag) = self.live.swap_remove(i);
            return Op::Destroy(app, tag);
        }
        let tag = self.next_tag;
        self.next_tag += 1;
        let conn = random_conn(&mut self.rng, &self.servers, self.apps, tag);
        self.live.push(conn);
        Op::Create(conn)
    }
}

fn random_conn(rng: &mut StdRng, servers: &[NodeId], apps: u32, tag: u64) -> Conn {
    let app = rng.gen_range(0..apps);
    let src = rng.gen_range(0..servers.len());
    let mut dst = rng.gen_range(0..servers.len());
    if dst == src {
        dst = (dst + 1) % servers.len();
    }
    (app, servers[src], servers[dst], tag)
}

/// The generated inputs, shared by every controller built from them.
#[derive(Clone)]
struct Inputs {
    cfg: ControllerConfig,
    table: SensitivityTable,
    names: Vec<String>,
    topo: Topology,
    live: Vec<Conn>,
    apps: u32,
    dist_shards: usize,
}

impl Inputs {
    fn workload_of(&self, app: u32) -> &str {
        &self.names[app as usize % self.names.len()]
    }

    fn central_over(&self, live: &[Conn]) -> Result<CentralController, String> {
        let mut c = CentralController::new(self.cfg.clone(), self.table.clone(), &self.topo);
        for app in 0..self.apps {
            c.register(AppId(app), self.workload_of(app))
                .map_err(|e| format!("central register {app}: {e}"))?;
        }
        for &(app, src, dst, tag) in live {
            c.preload_connection(AppId(app), src, dst, tag);
        }
        Ok(c)
    }

    fn dist_over(&self, live: &[Conn]) -> Result<DistributedController, String> {
        let db = MappingDb::build(&self.table, self.cfg.num_pls, self.cfg.seed);
        let mut d = DistributedController::new(self.cfg.clone(), db, &self.topo, self.dist_shards);
        for app in 0..self.apps {
            d.register(AppId(app), self.workload_of(app))
                .map_err(|e| format!("distributed register {app}: {e}"))?;
        }
        for &(app, src, dst, tag) in live {
            d.conn_create(AppId(app), src, dst, tag)
                .map_err(|e| format!("distributed create {tag}: {e}"))?;
        }
        Ok(d)
    }
}

/// Everything set-up builds.
#[derive(Clone)]
struct World {
    inputs: Inputs,
    central: CentralController,
    dist: DistributedController,
}

/// Builds the world, recording set-up spans when traced.
fn build(p: &Params, size: &Size, mut tr: Option<&mut Tracer>) -> Result<World, String> {
    let (specs, table) = timed(&mut tr, "core.profiler.profile", || {
        let specs = synthetic_workloads(
            &SyntheticConfig {
                count: size.models,
                ..SyntheticConfig::default()
            },
            WORKLOAD_FAMILY_SEED,
        );
        let table = Profiler::new(ProfilerConfig {
            seed: p.seed,
            ..ProfilerConfig::default()
        })
        .profile_all(&specs);
        (specs, table)
    })
    .0;
    let table = table.map_err(|e| format!("profiling: {e:?}"))?;
    let topo = Topology::spine_leaf(&size.fabric);
    let servers = topo.servers().to_vec();
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0x5ABA_F4B1);
    let live: Vec<Conn> = (0..size.conns as u64)
        .map(|tag| random_conn(&mut rng, &servers, size.apps, tag))
        .collect();
    let inputs = Inputs {
        cfg: ControllerConfig::default(),
        table,
        names: specs.into_iter().map(|w| w.name).collect(),
        topo,
        live,
        apps: size.apps,
        dist_shards: size.dist_shards,
    };
    let central = timed(&mut tr, "core.controller.preload", || {
        inputs.central_over(&inputs.live)
    })
    .0?;
    let dist = timed(&mut tr, "core.controller.dist.build", || {
        inputs.dist_over(&inputs.live)
    })
    .0?;
    Ok(World {
        inputs,
        central,
        dist,
    })
}

/// Results of one pass over the timed phases.
#[derive(Default)]
struct Pass {
    cold_s: Vec<f64>,
    warm_s: Vec<f64>,
    create_s: Vec<f64>,
    destroy_s: Vec<f64>,
    event_s: Vec<f64>,
    churn_wall_s: f64,
    dist_event_s: Vec<f64>,
    dist_create_s: Vec<f64>,
    updates: usize,
    ports_dirty: u64,
    solves: u64,
    skipped: u64,
    failed: u64,
    eq2_port_s: Vec<f64>,
    eq2_ports: usize,
}

/// Runs a timed span if traced, plain otherwise; returns the result
/// and the measured seconds.
fn timed<R>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    match tr.as_deref_mut() {
        Some(t) => {
            let id = t.begin(name);
            let r = f();
            let d = t.end(id);
            (r, d)
        }
        None => {
            let t0 = Instant::now();
            let r = f();
            (r, t0.elapsed().as_secs_f64())
        }
    }
}

/// The timed phases on `world`, a fixed amount of work sized to take
/// about `budget` seconds on a 2-CPU x86-64 host. Leaves the
/// warm central controller and the churned distributed one in `world`,
/// and returns both streams' final live sets.
fn measure(
    world: &mut World,
    size: &Size,
    seed: u64,
    budget: f64,
    mut tr: Option<&mut Tracer>,
) -> Result<(Pass, Vec<Conn>, Vec<Conn>), String> {
    let mut pass = Pass::default();
    let cold_epochs = ((budget * size.cold_per_s).round() as usize).max(2);
    let events = ((budget * size.events_per_s).round() as usize).max(20);

    // Phase 1: cold epochs. The last recomputed clone becomes the warm
    // controller the churn phase starts from.
    let mut warm = None;
    for _ in 0..cold_epochs {
        let (mut c, _) = timed(&mut tr, "bench.clone", || world.central.clone());
        let (u, d) = timed(&mut tr, "core.controller.recompute_all.cold", || {
            c.recompute_all()
        });
        black_box(u);
        pass.cold_s.push(d);
        warm = Some(c);
    }
    let mut central = warm.expect("at least one cold epoch");
    if tr.is_some() {
        // All-cache-hit recompute: the epoch's non-solve residue.
        for _ in 0..cold_epochs {
            let (mut c, _) = timed(&mut tr, "bench.clone", || central.clone());
            let (u, d) = timed(&mut tr, "core.controller.recompute_all.warm", || {
                c.recompute_all()
            });
            black_box(u);
            pass.warm_s.push(d);
        }
        eq2_probe(world, &central, &mut tr, &mut pass);
    }

    // Phase 2: closed-loop churn against the warm central controller.
    let servers = world.inputs.topo.servers().to_vec();
    let mut stream = Stream::new(seed, &world.inputs.live, &servers, world.inputs.apps);
    let dist_stream = stream.clone();
    let before = central.stats();
    let churn_start = Instant::now();
    for _ in 0..events {
        let op = stream.next_op();
        let (r, d) = match op {
            Op::Create((app, src, dst, tag)) => {
                timed(&mut tr, "core.controller.conn_create", || {
                    central.conn_create(AppId(app), src, dst, tag)
                })
            }
            Op::Destroy(app, tag) => timed(&mut tr, "core.controller.conn_destroy", || {
                central.conn_destroy(AppId(app), tag)
            }),
        };
        match r {
            Ok(u) => pass.updates += u.len(),
            Err(_) => pass.failed += 1,
        }
        pass.event_s.push(d);
        match op {
            Op::Create(_) => pass.create_s.push(d),
            Op::Destroy(..) => pass.destroy_s.push(d),
        }
    }
    pass.churn_wall_s = churn_start.elapsed().as_secs_f64();
    let after = central.stats();
    pass.ports_dirty = after.ports_dirty - before.ports_dirty;
    pass.solves = after.eq2_solves - before.eq2_solves;
    pass.skipped = after.solves_skipped - before.solves_skipped;
    let central_live = stream.live;

    // Phase 3: the same stream against the distributed controller.
    let mut stream = dist_stream;
    let dist = &mut world.dist;
    for _ in 0..events {
        let op = stream.next_op();
        let (r, d) = match op {
            Op::Create((app, src, dst, tag)) => {
                timed(&mut tr, "core.controller.dist.conn_create", || {
                    dist.conn_create(AppId(app), src, dst, tag)
                })
            }
            Op::Destroy(app, tag) => timed(&mut tr, "core.controller.dist.conn_destroy", || {
                dist.conn_destroy(AppId(app), tag)
            }),
        };
        if r.is_err() {
            pass.failed += 1;
        }
        pass.dist_event_s.push(d);
        if matches!(op, Op::Create(_)) {
            pass.dist_create_s.push(d);
        }
    }
    world.central = central;
    Ok((pass, central_live, stream.live))
}

/// Re-solves Eq. 2 from outside with the public per-port solver on
/// each occupied port's model set; times the multi-model solves.
fn eq2_probe(
    world: &World,
    central: &CentralController,
    tr: &mut Option<&mut Tracer>,
    pass: &mut Pass,
) {
    let ports: Vec<Vec<AppId>> = (0..world.inputs.topo.num_links())
        .map(|l| central.apps_at(LinkId(l as u32)))
        .filter(|apps| !apps.is_empty())
        .collect();
    pass.eq2_ports = ports.len();
    for apps in ports {
        let models: Vec<_> = apps
            .iter()
            .filter_map(|a| world.inputs.table.get(world.inputs.workload_of(a.0)))
            .collect();
        let cfg = &world.inputs.cfg;
        let (w, d) = timed(tr, "core.controller.eq2.port", || {
            port_weights_protected(&models, cfg.c_saba, cfg.min_weight, cfg.protect_fraction)
        });
        black_box(w.ok());
        // A single-model port is a trivial full share, not a solve.
        if models.len() > 1 {
            pass.eq2_port_s.push(d);
        }
    }
}

/// Checks an incremental controller's forced recompute against a cold
/// controller's over the same live set: same ports, same SL maps,
/// weights within `GATE_RTOL`.
fn diff_updates(flavour: &str, inc: &[SwitchUpdate], cold: &[SwitchUpdate]) -> Result<(), String> {
    let a: BTreeMap<u32, _> = inc.iter().map(|u| (u.link.0, &u.config)).collect();
    let b: BTreeMap<u32, _> = cold.iter().map(|u| (u.link.0, &u.config)).collect();
    if a.len() != b.len() || a.keys().ne(b.keys()) {
        return Err(format!(
            "{flavour}: incremental programs {} ports, cold {}",
            a.len(),
            b.len()
        ));
    }
    for (link, x) in &a {
        let y = b[link];
        if x.sl_to_queue != y.sl_to_queue || x.weights.len() != y.weights.len() {
            return Err(format!(
                "{flavour}: port {link} queue layout differs from cold"
            ));
        }
        for (wx, wy) in x.weights.iter().zip(&y.weights) {
            if (wx - wy).abs() > 1e-12 + GATE_RTOL * wx.abs().max(wy.abs()) {
                return Err(format!(
                    "{flavour}: port {link} weight {wx} vs cold {wy} (rtol {GATE_RTOL})"
                ));
            }
        }
    }
    Ok(())
}

/// The correctness gate: both flavours' forced recompute after the
/// stream equals a cold controller over the final live set.
fn gate(world: &mut World, central_live: &[Conn], dist_live: &[Conn]) -> Result<(), String> {
    let inc = world.central.recompute_all();
    let cold = world.inputs.central_over(central_live)?.recompute_all();
    diff_updates("central", &inc, &cold)?;
    let inc = world.dist.recompute_all();
    let cold = world.inputs.dist_over(dist_live)?.recompute_all();
    diff_updates("distributed", &inc, &cold)
}

fn p99(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    stats::percentile(&sorted, 0.99)
}

fn rate(events: usize, wall: f64) -> f64 {
    events as f64 / wall
}

/// Runs `fabric_churn`.
pub fn run(p: &Params) -> Result<Outcome, String> {
    let size = Size::of(p);
    let scratch = ScratchDir::new("fabric").map_err(|e| format!("scratch dir: {e}"))?;
    let (mut world, setup_s) = repeat_setup(|| build(p, &size, None), drop)?;
    let mut out = Outcome {
        setup_s,
        host: host::facts(scratch.path()),
        ..Outcome::default()
    };

    if !p.trace {
        let (pass, central_live, dist_live) = measure(&mut world, &size, p.seed, p.seconds, None)?;
        gate(&mut world, &central_live, &dist_live)?;
        let events = Summary::of(&pass.event_s).ok_or("no churn events")?;
        out.attempted = (pass.cold_s.len() + pass.event_s.len() + pass.dist_event_s.len()) as u64;
        out.failed = pass.failed;
        out.ops_per_s = rate(pass.event_s.len(), pass.churn_wall_s);
        out.op_p50_us = events.p50 * 1e6;
        out.named(
            "cold_epoch_s",
            require_median(&pass.cold_s, "cold epochs")?,
            "s",
        );
        out.named("churn_event_p50_us", events.p50 * 1e6, "us");
        out.named("churn_event_p99_us", p99(&pass.event_s) * 1e6, "us");
        out.named("churn_events_per_s", out.ops_per_s, "1/s");
        out.named(
            "dist_churn_event_p50_us",
            require_median(&pass.dist_event_s, "distributed events")? * 1e6,
            "us",
        );
        return Ok(out);
    }

    // Traced run: an untraced pass for the overhead baseline, then the
    // traced pass (set-up included) on a fresh build.
    let (plain, c_live, d_live) = measure(&mut world, &size, p.seed, p.seconds / 2.0, None)?;
    gate(&mut world, &c_live, &d_live)?;
    drop(world);

    let mut t = Tracer::new();
    let root = t.begin("bench.fabric_churn");
    let mut world = build(p, &size, Some(&mut t))?;
    live_routing_probe(&world, &mut t);
    let (pass, central_live, dist_live) =
        measure(&mut world, &size, p.seed, p.seconds / 2.0, Some(&mut t))?;
    t.end(root);
    let trace = t.finish();
    gate(&mut world, &central_live, &dist_live)?;

    out.attempted = (pass.cold_s.len() + pass.event_s.len() + pass.dist_event_s.len()) as u64;
    out.failed = pass.failed;
    out.spans = trace.by_name();
    out.layers = layers(&trace, &pass, &plain);
    Ok(out)
}

/// Routing from outside: the forwarding tables plus every live path.
fn live_routing_probe(world: &World, t: &mut Tracer) {
    let id = t.begin("sim.routing.compute");
    let routes = Routes::compute(&world.inputs.topo);
    for &(_, src, dst, tag) in &world.inputs.live {
        black_box(routes.path(&world.inputs.topo, src, dst, tag));
    }
    t.end(id);
}

fn layers(trace: &Trace, pass: &Pass, plain: &Pass) -> Vec<Layer> {
    let events = pass.event_s.len().max(1) as f64;
    let cold = stats::median(&pass.cold_s).unwrap_or(0.0);
    let warm = stats::median(&pass.warm_s).unwrap_or(0.0);
    let lookups = pass.solves + pass.skipped;
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
            "core.controller.preload_s",
            &trace.durations("core.controller.preload"),
            1.0,
        ),
        Layer::derived(
            "core.controller.cold.solve_s",
            cold - warm,
            pass.cold_s.len(),
            &format!("cold p50 {cold:.6} s - warm p50 {warm:.6} s"),
        ),
        Layer::timing("core.controller.cold.residue_s", &pass.warm_s, 1.0),
        Layer::timing("core.controller.eq2.port_us", &pass.eq2_port_s, 1e6),
        Layer::derived(
            "core.controller.eq2.ports",
            pass.eq2_ports as f64,
            pass.eq2_ports,
            &format!(
                "occupied ports of the warm controller, {} with more than one model",
                pass.eq2_port_s.len()
            ),
        ),
        Layer::timing("core.controller.conn_create_us", &pass.create_s, 1e6),
        Layer::timing("core.controller.conn_destroy_us", &pass.destroy_s, 1e6),
        Layer::timing(
            "core.controller.dist.conn_create_us",
            &pass.dist_create_s,
            1e6,
        ),
        Layer::derived(
            "core.controller.updates_per_event",
            pass.updates as f64 / events,
            pass.event_s.len(),
            "switch updates emitted / central churn events",
        ),
        Layer::derived(
            "core.controller.ports_dirty_per_event",
            pass.ports_dirty as f64 / events,
            pass.event_s.len(),
            "stats().ports_dirty delta / central churn events",
        ),
        Layer::derived(
            "core.controller.solve_hit_ratio",
            if lookups > 0 {
                pass.skipped as f64 / lookups as f64
            } else {
                0.0
            },
            lookups as usize,
            &format!(
                "skipped {} / (solves {} + skipped)",
                pass.skipped, pass.solves
            ),
        ),
        overhead_layer(
            stats::median(&plain.event_s).unwrap_or(f64::NAN),
            stats::median(&pass.event_s).unwrap_or(f64::NAN),
            pass.event_s.len(),
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
            seed: 7,
            seconds: 0.5,
            trace,
            tiny: true,
        }
    }

    #[test]
    fn streams_replay_identically() {
        let servers: Vec<NodeId> = (0..6).map(NodeId).collect();
        let live = vec![(0, servers[0], servers[1], 0)];
        let mut a = Stream::new(3, &live, &servers, 4);
        let mut b = a.clone();
        for _ in 0..100 {
            assert_eq!(format!("{:?}", a.next_op()), format!("{:?}", b.next_op()));
        }
        assert_eq!(a.live, b.live);
        assert!((1..=2).contains(&a.live.len()));
    }

    #[test]
    fn smoke_untraced() {
        let out = run(&tiny(false)).unwrap();
        assert_eq!(out.failed, 0);
        assert!(out.ops_per_s > 0.0 && out.op_p50_us > 0.0 && out.setup_s > 0.0);
        let names: Vec<_> = out.named.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "cold_epoch_s",
                "churn_event_p50_us",
                "churn_event_p99_us",
                "churn_events_per_s",
                "dist_churn_event_p50_us"
            ]
        );
    }

    #[test]
    fn smoke_traced() {
        let out = run(&tiny(true)).unwrap();
        let eq2 = out
            .layers
            .iter()
            .find(|l| l.name == "core.controller.eq2.port_us")
            .unwrap();
        assert!(eq2.n > 0 && eq2.value > 0.0);
        assert!(
            out.layers.iter().all(|l| l.value.is_finite()),
            "{:?}",
            out.layers
        );
    }

    #[test]
    fn gate_catches_a_perturbed_weight() {
        let p = tiny(false);
        let size = Size::of(&p);
        let world = build(&p, &size, None).unwrap();
        let mut c = world.central.clone();
        let good = c.recompute_all();
        let mut bad = good.clone();
        let w = &mut bad
            .iter_mut()
            .find(|u| u.config.weights.len() > 1)
            .unwrap()
            .config;
        w.weights[0] *= 1.0 + 1e-4;
        assert!(diff_updates("central", &good, &good).is_ok());
        assert!(diff_updates("central", &good, &bad).is_err());
        assert!(diff_updates("central", &good, &good[1..]).is_err());
    }
}
