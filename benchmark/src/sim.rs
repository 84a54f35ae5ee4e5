//! The `sim_mesh` phase: the RSFQ event engine on an NPE mesh (16 dies at
//! paper scale) with dense, staggered per-die stimulus (the `sim_engine`
//! bench's partitioned-mesh case, scaled up), run sequentially (`seq`) and partitioned over
//! `nproc` workers (`part`), plus `BatchRunner` fan-out over many short
//! single-NPE stimuli (`batch`).
//!
//! `seq` and `part` must produce identical outcomes (event counts, probe
//! traces, violations); every batch must equal the sequential batch
//! reference; both digests are pinned per seed.

use std::time::Instant;

use sushi_arch::scaleout::npe_mesh;
use sushi_cells::{CellLibrary, Ps};
use sushi_sim::{
    BatchRunner, Netlist, PartitionPlan, SimConfig, SimOutcome, Simulator, Stimulus,
    StimulusBuilder,
};

use crate::trace::Tracer;
use crate::{median, pins, secs, timed_setup, Digest, Report, Rng, RunCfg, Size, SETUP_REPS};

struct Shape {
    dies: usize,
    scs: usize,
    pulses: usize,
    batch_items: usize,
    batch_pulses: u64,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Paper => Shape {
            dies: 16,
            scs: 16,
            pulses: 16_384,
            batch_items: 64,
            batch_pulses: 400,
        },
        Size::Small => Shape {
            dies: 4,
            scs: 16,
            pulses: 4_096,
            batch_items: 64,
            batch_pulses: 100,
        },
    }
}

/// Spacing of each die's local pulse train, as in the `sim_engine` bench.
const SPACING_PS: Ps = 120.0;
/// Share of each round spent on the mesh runs; the rest goes to `batch`.
const MESH_SHARE: f64 = 0.7;

/// Per-die pulse trains: every die's train starts at a seeded offset so
/// link overflows interleave with local pulses in the merge buffers.
fn mesh_stimulus(sh: &Shape, seed: u64) -> Vec<Vec<Ps>> {
    let mut rng = Rng::new(seed, 3);
    (0..sh.dies)
        .map(|_| {
            let start = 500.0 + rng.below(100) as Ps;
            (0..sh.pulses)
                .map(|k| start + k as Ps * SPACING_PS)
                .collect()
        })
        .collect()
}

fn build_sim<'a>(
    netlist: &'a Netlist,
    lib: &'a CellLibrary,
    sh: &Shape,
    stim: &[Vec<Ps>],
) -> Simulator<'a> {
    let mut sim = SimConfig::new().build(netlist, lib);
    for (i, train) in stim.iter().enumerate() {
        for b in 0..sh.scs {
            sim.inject(&format!("npe{i}_set1_{b}"), &[0.0])
                .expect("mesh exposes every SC's set1 input");
        }
        sim.inject(&format!("in{i}"), train)
            .expect("mesh exposes every die's input");
    }
    sim
}

/// Seeded short stimuli for one NPE: ripple-counter configuration, then
/// a train of a seeded length.
fn batch_items(sh: &Shape, seed: u64) -> Vec<Stimulus> {
    let mut rng = Rng::new(seed, 4);
    (0..sh.batch_items)
        .map(|_| {
            let mut b = StimulusBuilder::new();
            for s in 0..sh.scs {
                b = b
                    .pulse(&format!("npe0_set1_{s}"), 0.0)
                    .expect("one pulse per channel");
            }
            let n = sh.batch_pulses / 2 + rng.below(sh.batch_pulses);
            for k in 0..n {
                b = b
                    .pulse("in0", 100.0 + k as Ps * SPACING_PS)
                    .expect("monotonic pulses above the safe interval");
            }
            b.build()
        })
        .collect()
}

fn outcome_digest(d: &mut Digest, o: &SimOutcome) {
    d.u64(o.stats.events_delivered);
    d.u64(o.stats.pulses_emitted);
    d.u64(o.stats.pulses_dropped);
    d.f64(o.stats.final_time_ps);
    for (kind, n) in &o.stats.switch_events {
        d.bytes(format!("{kind:?}").as_bytes());
        d.u64(*n);
    }
    for (name, times) in &o.traces {
        d.bytes(name.as_bytes());
        for &t in times {
            d.f64(t);
        }
    }
    for v in &o.violations {
        d.bytes(format!("{v:?}").as_bytes());
    }
}

fn digest_all(outs: &[SimOutcome]) -> u64 {
    let mut d = Digest::default();
    for o in outs {
        outcome_digest(&mut d, o);
    }
    d.value()
}

/// The phase's state across rounds.
pub struct Sim {
    sh: Shape,
    lib: CellLibrary,
    stim: Vec<Vec<Ps>>,
    netlist: Netlist,
    plan: Option<PartitionPlan>,
    plan_s: f64,
    build_ms: Vec<f64>,
    inject_ms: Vec<f64>,
    seq_s: Vec<f64>,
    part_s: Vec<f64>,
    /// The first `seq` outcome and its digest.
    reference: Option<(u64, SimOutcome)>,
    small: Netlist,
    items: Vec<Stimulus>,
    /// Digest of `run_sequential` over the batch, `None` if it failed.
    batch_reference: Option<u64>,
    batch_rates: Vec<f64>,
}

impl Sim {
    pub fn setup(cfg: &RunCfg, tracer: &mut Tracer, report: &mut Report) -> Self {
        let sh = shape(cfg.size);
        let lib = CellLibrary::nb03();
        let stim = mesh_stimulus(&sh, cfg.seed);

        // Set-up: build the mesh netlist and inject the stimulus.
        let mut build_ms = Vec::new();
        let mut inject_ms = Vec::new();
        let (netlist, setup_s) = tracer.span("bench.setup", |t| {
            timed_setup(SETUP_REPS, || {
                let (netlist, b) = t.span("arch.npe_mesh", |_| {
                    secs(|| npe_mesh(sh.dies, sh.scs).expect("mesh wiring is valid"))
                });
                let (sim, i) = t.span("sim.inject", |_| {
                    secs(|| build_sim(&netlist, &lib, &sh, &stim))
                });
                drop(std::hint::black_box(sim));
                build_ms.push(b * 1e3);
                inject_ms.push(i * 1e3);
                netlist
            })
        });
        report.setup_s = setup_s;
        let (plan, plan_s) = tracer.span("sim.plan", |_| {
            secs(|| PartitionPlan::plan(&netlist, cfg.cpus))
        });

        // The batch reference: many short single-NPE stimuli run one by
        // one.
        let small = npe_mesh(1, sh.scs).expect("single-NPE wiring is valid");
        let items = batch_items(&sh, cfg.seed);
        let batch_reference = match BatchRunner::new(&small, &lib).run_sequential(&items) {
            Ok(outs) => Some(digest_all(&outs)),
            Err(e) => {
                report.notes.push(format!("batch reference failed: {e:?}"));
                report.op(false);
                None
            }
        };
        Self {
            sh,
            lib,
            stim,
            netlist,
            plan,
            plan_s,
            build_ms,
            inject_ms,
            seq_s: Vec::new(),
            part_s: Vec::new(),
            reference: None,
            small,
            items,
            batch_reference,
            batch_rates: Vec::new(),
        }
    }

    /// Alternating `seq` and `part` runs for `MESH_SHARE` of `seconds`
    /// (at least one of each), then batches for the rest (at least one).
    pub fn round(&mut self, cfg: &RunCfg, seconds: f64, tracer: &mut Tracer, report: &mut Report) {
        let t0 = Instant::now();
        loop {
            for partitioned in [false, true] {
                self.mesh_run(cfg, partitioned, tracer, report);
            }
            if t0.elapsed().as_secs_f64() >= seconds * MESH_SHARE {
                break;
            }
        }
        // Batch: many short single-NPE stimuli on the host-sized worker
        // pool, checked against the sequential reference.
        let Some(batch_reference) = self.batch_reference else {
            return;
        };
        let runner = BatchRunner::new(&self.small, &self.lib);
        let items = &self.items;
        loop {
            let (res, dt) = tracer.span("sim.batch_run", |_| secs(|| runner.run(items)));
            for _ in 0..items.len() {
                report.op(res.is_ok());
            }
            let ok = res.as_ref().is_ok_and(|o| digest_all(o) == batch_reference);
            report.check("sim.batch_equals_sequential", ok);
            self.batch_rates.push(items.len() as f64 / dt);
            if t0.elapsed().as_secs_f64() >= seconds {
                return;
            }
        }
    }

    /// One mesh run; every outcome must equal the first `seq` outcome.
    fn mesh_run(
        &mut self,
        cfg: &RunCfg,
        partitioned: bool,
        tracer: &mut Tracer,
        report: &mut Report,
    ) {
        let (netlist, lib, sh, stim) = (&self.netlist, &self.lib, &self.sh, &self.stim);
        let mut sim = tracer.span("sim.inject", |_| build_sim(netlist, lib, sh, stim));
        let (res, dt) = if partitioned {
            tracer.span("sim.run_partitioned", |_| {
                secs(|| sim.run_partitioned(cfg.cpus))
            })
        } else {
            tracer.span("sim.run_to_completion", |_| {
                secs(|| sim.run_to_completion())
            })
        };
        let ok = res.is_ok();
        report.op(ok);
        if !ok {
            report.notes.push(format!("sim run failed: {res:?}"));
            return;
        }
        let out = sim.take_outcome();
        let d = digest_all(std::slice::from_ref(&out));
        if let Some((want, _)) = &self.reference {
            report.check("sim.part_equals_seq", d == *want);
        } else {
            self.reference = Some((d, out));
        }
        if partitioned {
            self.part_s.push(dt);
        } else {
            self.seq_s.push(dt);
        }
    }

    pub fn finish(self, cfg: &RunCfg, tracer: &mut Tracer, report: &mut Report) {
        let (Some((reference_digest, reference)), Some(batch_reference)) =
            (self.reference, self.batch_reference)
        else {
            return;
        };
        let (seq_s, part_s, rates) = (&self.seq_s, &self.part_s, &self.batch_rates);
        let events = reference.stats.events_delivered as f64;
        report.notes.push(format!(
            "sim: {} seq runs, {} part runs, {} batches",
            seq_s.len(),
            part_s.len(),
            rates.len()
        ));
        let seq = median(seq_s);
        let part = median(part_s);
        report.e2e("sim_seq_mev_per_s", events / seq / 1e6, "Mev/s");
        report.e2e("sim_part_mev_per_s", events / part / 1e6, "Mev/s");
        report.overhead_basis = seq;
        report.e2e("sim_batch_items_per_s", median(rates), "items/s");

        let mut pin = Digest::default();
        pin.u64(reference_digest);
        pin.u64(batch_reference);
        let got = pins::SimPin {
            seed: cfg.seed,
            events_delivered: reference.stats.events_delivered,
            violations: reference.violations.len() as u64,
            digest: pin.value(),
        };
        report.notes.push(format!(
            "sim: {} cells, {} events, {} violations; pin {got:?}",
            self.netlist.cell_count(),
            reference.stats.events_delivered,
            reference.violations.len()
        ));
        if let Some(want) = pins::sim(cfg.size, cfg.seed) {
            report.check("sim.pinned", want == got);
        }

        if tracer.on() {
            let runner = BatchRunner::new(&self.small, &self.lib);
            let util = tracer.span("sim.batch_run_with_report", |_| {
                match runner.run_with_report(&self.items, 0) {
                    Ok((outs, rep)) => {
                        report.check(
                            "sim.batch_equals_sequential",
                            digest_all(&outs) == batch_reference,
                        );
                        rep.utilization
                    }
                    Err(e) => {
                        report.notes.push(format!("batch report failed: {e:?}"));
                        report.op(false);
                        0.0
                    }
                }
            });
            let plan = &self.plan;
            report.layer("sim.build_ms", median(&self.build_ms), "ms");
            report.layer("sim.inject_ms", median(&self.inject_ms), "ms");
            report.layer("sim.plan_ms", self.plan_s * 1e3, "ms");
            report.layer("sim.seq_ns_per_event", seq * 1e9 / events, "ns");
            report.layer("sim.part_ns_per_event", part * 1e9 / events, "ns");
            report.layer("sim.part_speedup", seq / part, "ratio");
            report.layer("sim.batch_worker_utilization", util, "ratio");
            let st = &reference.stats;
            report.layer("sim.events_delivered", st.events_delivered as f64, "count");
            report.layer(
                "sim.switch_events",
                st.total_switch_events() as f64,
                "count",
            );
            report.layer("sim.violations", reference.violations.len() as f64, "count");
            report.layer("sim.final_time_ps", st.final_time_ps, "ps");
            report.layer(
                "sim.plan_parts",
                plan.as_ref().map_or(1.0, |p| f64::from(p.parts)),
                "count",
            );
            report.layer(
                "sim.cut_wires",
                plan.as_ref().map_or(0.0, |p| p.cut_wires as f64),
                "count",
            );
            report.layer(
                "sim.lookahead_ps",
                plan.as_ref().map_or(0.0, |p| p.lookahead_ps),
                "ps",
            );
        }
    }
}
