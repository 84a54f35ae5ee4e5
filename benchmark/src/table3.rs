//! The `table3` phase: the paper's Table 3 pipeline on `synth_digits` with
//! an 80/20 split — train, float reference, compile, chip evaluation — and
//! bitplane batch inference over the chip's own encoded test frames,
//! timed in slices after each repetition of the pipeline.
//!
//! The traced pass adds replays built from the same public calls: one
//! training epoch split into encode / forward / backward / Adam, the
//! chip executor per sample, and the bitplane layers per lane group.

use std::time::{Duration, Instant};

use sushi_core::{ChipEvaluation, SushiChip};
use sushi_sim::EvalOptions;
use sushi_snn::data::{synth_digits, Dataset};
use sushi_snn::metrics::{accuracy, consistency};
use sushi_snn::tensor::Matrix;
use sushi_snn::train::{TrainConfig, Trainer};
use sushi_snn::{Adam, PoissonEncoder, SnnMlp, TrainScratch};
use sushi_ssnn::compiler::{ChipProgram, Compiler, CompilerConfig};
use sushi_ssnn::{argmax_low, BitplaneBatch, ExecStats, PackedFrames, PackedSnn, PredictScratch};

use crate::trace::Tracer;
use crate::{
    median, percentile, pins, secs, timed_setup, Digest, Report, RunCfg, Size, SETUP_REPS,
};

/// Test samples the per-sample chip replay covers.
const CHIP_REPLAY: usize = 64;
/// Most repetitions of phases 1-4 per pass.
const MAX_REPS: usize = 64;
/// Share of the phase's time given to bitplane inference.
const BITPLANE_SHARE: f64 = 0.15;
/// Sample-id sets the test images are encoded under for bitplane
/// inference (set 0 is the chip evaluation's own encoding).
const POOL_ID_SETS: usize = 4;

struct Shape {
    samples: usize,
    hidden: usize,
    epochs: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Paper => Shape {
            samples: 2500,
            hidden: 800,
            epochs: 3,
        },
        Size::Small => Shape {
            samples: 1000,
            hidden: 100,
            epochs: 3,
        },
    }
}

fn train_config(sh: &Shape) -> TrainConfig {
    let mut tc = TrainConfig::paper();
    tc.hidden = vec![sh.hidden];
    tc.epochs = sh.epochs;
    tc.lr = 5e-3;
    tc
}

/// The phase's state across rounds.
pub struct Table3 {
    epochs: usize,
    tc: TrainConfig,
    train: Dataset,
    test: Dataset,
    chip: SushiChip,
    walls: Vec<f64>,
    train_rates: Vec<f64>,
    eval_rates: Vec<f64>,
    first: Option<(pins::Table3Pin, Column)>,
    bitplane: Option<Bitplane>,
}

impl Table3 {
    pub fn setup(cfg: &RunCfg, tracer: &mut Tracer, report: &mut Report) -> Self {
        let sh = shape(cfg.size);
        let ((train, test), setup_s) = tracer.span("bench.setup", |t| {
            timed_setup(SETUP_REPS, || {
                t.span("snn.synth_digits", |_| {
                    synth_digits(sh.samples, cfg.seed).split(0.8)
                })
            })
        });
        report.setup_s = setup_s;
        Self {
            epochs: sh.epochs,
            tc: train_config(&sh),
            train,
            test,
            chip: SushiChip::paper(),
            walls: Vec::new(),
            train_rates: Vec::new(),
            eval_rates: Vec::new(),
            first: None,
            bitplane: None,
        }
    }

    /// Repetitions of phases 1-4, each followed by a slice of phase 5,
    /// while `seconds` allows; at least one.
    pub fn round(&mut self, cfg: &RunCfg, seconds: f64, tracer: &mut Tracer, report: &mut Report) {
        let t0 = Instant::now();
        loop {
            let wall = self.column(cfg, tracer, report);
            // Phase 5 runs in slices after each repetition, so its passes
            // sample the host over the whole run rather than over its
            // last seconds.
            let slice = wall * BITPLANE_SHARE / (1.0 - BITPLANE_SHARE);
            let until = Instant::now() + Duration::from_secs_f64(slice);
            if let Some(bp) = self.bitplane.as_mut() {
                tracer.span("bench.bitplane", |t| bp.passes(until, report, t));
            }
            let next = median(&self.walls) / (1.0 - BITPLANE_SHARE);
            if self.walls.len() >= MAX_REPS || t0.elapsed().as_secs_f64() + next > seconds {
                return;
            }
        }
    }

    /// One repetition of phases 1-4, the Table 3 column; returns its wall
    /// time. Every repetition must reproduce the first bit for bit.
    fn column(&mut self, cfg: &RunCfg, tracer: &mut Tracer, report: &mut Report) -> f64 {
        let (tc, train, test, chip) = (&self.tc, &self.train, &self.test, &self.chip);
        // Default options; the traced pass also asks for the worker report.
        let opts = EvalOptions::default().report(tracer.on());
        let wall0 = Instant::now();
        let (model, train_s) =
            tracer.span("snn.fit", |_| secs(|| Trainer::new(tc.clone()).fit(train)));
        let (float_preds, float_s) =
            tracer.span("snn.predict_all", |_| secs(|| model.predict_all(test)));
        let (program, compile_s) = tracer.span("ssnn.compile", |_| {
            secs(|| Compiler::new(CompilerConfig::paper()).compile(&model))
        });
        let (eval, eval_s) = tracer.span("core.evaluate", |_| {
            secs(|| chip.evaluate(&program, test, &opts))
        });
        let wall = wall0.elapsed().as_secs_f64();
        self.walls.push(wall);
        self.train_rates
            .push((self.epochs * train.len()) as f64 / train_s);
        self.eval_rates.push(test.len() as f64 / eval_s);
        for _ in 0..test.len() {
            report.op(true);
        }
        let got = pin_of(cfg.seed, &float_preds, &eval.predictions, &eval.stats, test);
        match pins::table3(cfg.size, cfg.seed) {
            Some(want) => report.check("table3.pinned", want == got),
            None => {
                // Unpinned seed: the pipeline must still learn the task
                // (chance is 10 %).
                let n = test.len() / 2;
                report.check(
                    "table3.accuracy_floor",
                    got.reference_correct >= n && got.chip_correct >= n && got.consistent >= n,
                );
            }
        }
        if self.bitplane.is_none() {
            self.bitplane =
                Some(tracer.span("bench.bitplane_setup", |t| Bitplane::new(&program, test, t)));
        }
        match &self.first {
            Some((pin, _)) => report.check("table3.repeat_equals_first", *pin == got),
            None => {
                report.notes.push(format!(
                    "table3: reference {:.2}% chip {:.2}% consistency {:.2}% (n={}); pin {got:?}",
                    100.0 * accuracy(&float_preds, &test.labels),
                    100.0 * eval.accuracy,
                    100.0 * consistency(&float_preds, &eval.predictions),
                    test.len()
                ));
                self.first = Some((
                    got,
                    Column {
                        program,
                        eval,
                        float_s,
                        compile_s,
                    },
                ));
            }
        }
        wall
    }

    pub fn finish(self, tracer: &mut Tracer, report: &mut Report) {
        let (Some((_, col)), Some(bp)) = (self.first, self.bitplane) else {
            return;
        };
        let (walls, train_rates, eval_rates) = (&self.walls, &self.train_rates, &self.eval_rates);
        let (tc, train, test) = (&self.tc, &self.train, &self.test);
        report.notes.push(format!(
            "table3: {} repetitions, wall s min {:.3} median {:.3} max {:.3}",
            walls.len(),
            walls.iter().copied().fold(f64::INFINITY, f64::min),
            median(walls),
            walls.iter().copied().fold(0.0, f64::max)
        ));
        let wall = median(walls);
        report.e2e("table3_wall_s", wall, "s");
        report.e2e("train_samples_per_s", median(train_rates), "samples/s");
        report.e2e("chip_eval_samples_per_s", median(eval_rates), "samples/s");
        report.overhead_basis = wall;

        if tracer.on() {
            epoch_replay(report, tc, train, tracer);
            chip_replay(report, &col.program, test, &col.eval.predictions, tracer);
            report.layer("snn.float_predict_s", col.float_s, "s");
            report.layer("ssnn.compile_s", col.compile_s, "s");
            report.layer(
                "core.eval_utilization",
                col.eval.report.as_ref().map_or(0.0, |r| r.utilization),
                "ratio",
            );
            let st = col.eval.stats;
            report.layer("ssnn.synops", st.synops as f64, "count");
            report.layer(
                "ssnn.polarity_switches",
                st.polarity_switches as f64,
                "count",
            );
            report.layer("ssnn.premature_fires", st.premature_fires as f64, "count");
            report.layer("ssnn.underflows", st.underflows as f64, "count");
            report.layer("ssnn.neuron_steps", st.neuron_steps as f64, "count");
        }

        let agree = bp
            .reference
            .iter()
            .zip(&col.eval.predictions)
            .filter(|(a, b)| a == b)
            .count();
        report.notes.push(format!(
            "table3: packed and chip predictions agree on {agree} of {}",
            test.len()
        ));
        let mut sweeps = SweepTotals::default();
        if tracer.on() {
            let replayed = tracer.span("bench.bitplane_replay", |t| {
                bitplane_replay(&bp.packed, &bp.items, &mut sweeps, t)
            });
            report.check(
                "table3.bitplane_replay_equals_batch",
                replayed == bp.reference,
            );
        }
        // The fast end of the passes: other guests on a shared host slow this
        // one down for stretches of one to tens of seconds (passes drop from
        // about 94 k to 60-76 k img/s), so the slow passes measure the host,
        // while the fastest ones measure the code and move when it does. The
        // 99th percentile rather than the maximum, so one mistimed pass
        // cannot set the figure.
        let rates = &bp.rates;
        report.e2e("infer_images_per_s", percentile(rates, 0.99), "img/s");
        report.notes.push(format!(
            "table3: {} bitplane passes of {} images, img/s p10 {:.0} p50 {:.0} p90 {:.0} p99 {:.0}",
            rates.len(),
            bp.items.len(),
            percentile(rates, 0.10),
            percentile(rates, 0.50),
            percentile(rates, 0.90),
            percentile(rates, 0.99)
        ));
        if tracer.on() {
            let imgs = sweeps.images.max(1) as f64;
            report.layer("ssnn.bitplane_pack_us", sweeps.pack_s * 1e6 / imgs, "us");
            report.layer("ssnn.layer1_sweep_us", sweeps.layer1_s * 1e6 / imgs, "us");
            report.layer("ssnn.layer2_sweep_us", sweeps.layer2_s * 1e6 / imgs, "us");
            report.layer(
                "ssnn.lane_fill",
                sweeps.lanes as f64 / (64 * sweeps.groups.max(1)) as f64,
                "ratio",
            );
            report.layer(
                "ssnn.hidden_spike_density",
                sweeps.hidden_spikes as f64 / sweeps.hidden_slots.max(1) as f64,
                "ratio",
            );
        }
    }
}

/// Phase 5: bitplane batch inference over the chip's own encoded test
/// frames, re-encoded under `POOL_ID_SETS` sample-id sets so one timed
/// pass is long enough to read. Every pass must equal per-image packed
/// inference item by item.
struct Bitplane {
    packed: PackedSnn,
    items: Vec<PackedFrames>,
    reference: Vec<usize>,
    rates: Vec<f64>,
}

impl Bitplane {
    fn new(program: &ChipProgram, test: &Dataset, t: &mut Tracer) -> Self {
        let packed = PackedSnn::from_network(&program.net);
        let width = packed.input_width();
        let items: Vec<PackedFrames> = t.span("ssnn.encode_input", |_| {
            (0..POOL_ID_SETS * test.len())
                .map(|id| {
                    let img = &test.images[id % test.len()];
                    PackedFrames::from_bool_frames(width, &program.encode_input(img, id as u64))
                })
                .collect()
        });
        let reference = t.span("ssnn.predict_packed_with", |_| {
            let mut scratch = PredictScratch::new();
            items
                .iter()
                .map(|it| packed.predict_packed_with(it, &mut scratch))
                .collect()
        });
        Self {
            packed,
            items,
            reference,
            rates: Vec::new(),
        }
    }

    /// Timed passes until `until`, at least one.
    fn passes(&mut self, until: Instant, report: &mut Report, t: &mut Tracer) {
        loop {
            let (preds, dt) = t.span("ssnn.predict_batch_bitplane_packed", |_| {
                secs(|| {
                    self.packed
                        .predict_batch_bitplane_packed(std::hint::black_box(&self.items), 1)
                })
            });
            self.rates.push(self.items.len() as f64 / dt);
            for (p, r) in preds.iter().zip(&self.reference) {
                report.op(true);
                report.check("table3.bitplane_equals_packed", p == r);
            }
            if Instant::now() >= until {
                return;
            }
        }
    }
}

/// The first repetition's outputs that the replays reuse.
struct Column {
    program: ChipProgram,
    eval: ChipEvaluation,
    float_s: f64,
    compile_s: f64,
}

/// The pinned view of one pipeline repetition: correct counts, agreement,
/// and a digest of both prediction vectors and the exact executor counts.
fn pin_of(
    seed: u64,
    float_preds: &[usize],
    chip_preds: &[usize],
    st: &ExecStats,
    test: &Dataset,
) -> pins::Table3Pin {
    let mut d = Digest::default();
    for &p in float_preds.iter().chain(chip_preds) {
        d.u64(p as u64);
    }
    for v in [
        st.synops,
        st.polarity_switches,
        st.premature_fires,
        st.underflows,
        st.neuron_steps,
    ] {
        d.u64(v);
    }
    pins::Table3Pin {
        seed,
        reference_correct: count_correct(float_preds, test),
        chip_correct: count_correct(chip_preds, test),
        consistent: float_preds
            .iter()
            .zip(chip_preds)
            .filter(|(a, b)| a == b)
            .count(),
        digest: d.value(),
    }
}

fn count_correct(preds: &[usize], data: &Dataset) -> usize {
    preds
        .iter()
        .zip(&data.labels)
        .filter(|(&p, &l)| p == usize::from(l))
        .count()
}

/// One training epoch rebuilt from the public calls `Trainer::fit` makes,
/// with each call timed.
fn epoch_replay(report: &mut Report, tc: &TrainConfig, train: &Dataset, tracer: &mut Tracer) {
    let (mut enc_s, mut fwd_s, mut bwd_s, mut adam_s) = (0.0, 0.0, 0.0, 0.0);
    tracer.span("bench.epoch_replay", |t| {
        let mut mlp = SnnMlp::new(&tc.layer_sizes(), tc.seed)
            .with_binary_weights(tc.binary_weights)
            .with_stateless(tc.stateless);
        let mut opt = Adam::new(tc.lr);
        let enc = PoissonEncoder::new(tc.seed);
        let mut ws = TrainScratch::new();
        let mut frames: Vec<Matrix> = Vec::new();
        let mut targets = Matrix::default();
        let order = train.shuffled_indices(tc.seed);
        let mut step_id: u64 = 1 << 32;
        for (b, chunk) in order.chunks(tc.batch).enumerate() {
            // The trainer alternates stateless and residual batches.
            mlp = mlp.with_stateless(b % 2 == 1);
            let samples: Vec<&[f32]> = chunk.iter().map(|&i| train.images[i].as_slice()).collect();
            let ids: Vec<u64> = (0..samples.len() as u64).map(|k| step_id + k).collect();
            step_id += samples.len() as u64;
            enc_s += t.span("snn.encode_batch_into", |_| {
                secs(|| enc.encode_batch_into(&samples, tc.time_steps, &ids, &mut frames)).1
            });
            targets.reset_to(samples.len(), tc.classes);
            for (r, &i) in chunk.iter().enumerate() {
                targets[(r, usize::from(train.labels[i]))] = 1.0;
            }
            fwd_s += t.span("snn.forward_record_with", |_| {
                secs(|| mlp.forward_record_with(&frames, &mut ws)).1
            });
            bwd_s += t.span("snn.backward_with", |_| {
                secs(|| mlp.backward_with(&frames, &targets, &mut ws)).1
            });
            adam_s += t.span("snn.adam_step_clamped", |_| {
                secs(|| opt.step_clamped(mlp.weights_mut(), ws.grads(), Some((-1.0, 1.0)))).1
            });
        }
        std::hint::black_box(&mlp);
    });
    report.layer("snn.encode_s", enc_s, "s");
    report.layer("snn.forward_s", fwd_s, "s");
    report.layer("snn.backward_s", bwd_s, "s");
    report.layer("snn.adam_s", adam_s, "s");
}

/// The chip executor per sample on one thread: encode and execute timed
/// apart, predictions checked against the parallel evaluation.
fn chip_replay(
    report: &mut Report,
    program: &ChipProgram,
    test: &Dataset,
    chip_preds: &[usize],
    tracer: &mut Tracer,
) {
    let (mut enc_s, mut exec_s, mut synops, mut n) = (0.0, 0.0, 0u64, 0usize);
    tracer.span("bench.chip_replay", |t| {
        let exec = program.executor();
        for (i, img) in test.images.iter().take(CHIP_REPLAY).enumerate() {
            let (frames, e) = t.span("ssnn.encode_input", |_| {
                secs(|| program.encode_input(img, i as u64))
            });
            let ((counts, stats), x) = t.span("ssnn.forward_counts", |_| {
                secs(|| exec.forward_counts(&frames))
            });
            enc_s += e;
            exec_s += x;
            synops += stats.synops;
            n += 1;
            report.check(
                "table3.chip_replay_equals_evaluate",
                argmax_low(&counts) == chip_preds[i],
            );
        }
    });
    let n = n.max(1) as f64;
    report.layer("ssnn.chip_encode_us", enc_s * 1e6 / n, "us");
    report.layer("ssnn.chip_exec_us", exec_s * 1e6 / n, "us");
    report.layer(
        "ssnn.chip_synops_per_s",
        if exec_s > 0.0 {
            synops as f64 / exec_s
        } else {
            0.0
        },
        "1/s",
    );
}

#[derive(Debug, Default)]
struct SweepTotals {
    images: usize,
    groups: usize,
    lanes: usize,
    pack_s: f64,
    layer1_s: f64,
    layer2_s: f64,
    hidden_spikes: u64,
    hidden_slots: u64,
}

/// The bitplane path rebuilt from `fill_from_lane_words` and
/// `PackedLayer::batch_step_into`, one span per pack and per layer sweep;
/// returns the predictions so they can be checked against the batch call.
fn bitplane_replay(
    packed: &PackedSnn,
    items: &[PackedFrames],
    tot: &mut SweepTotals,
    t: &mut Tracer,
) -> Vec<usize> {
    let layers = packed.layers();
    assert_eq!(layers.len(), 2, "the replay mirrors a two-layer network");
    let width = packed.input_width();
    let classes = packed.classes();
    let (mut x, mut h, mut o) = (
        BitplaneBatch::default(),
        BitplaneBatch::default(),
        BitplaneBatch::default(),
    );
    let mut xm = Vec::new();
    let mut preds = Vec::with_capacity(items.len());
    for group in items.chunks(64) {
        tot.groups += 1;
        tot.lanes += group.len();
        tot.images += group.len();
        let mut counts = vec![vec![0u32; classes]; group.len()];
        let steps = group.iter().map(PackedFrames::len).max().unwrap_or(0);
        for step in 0..steps {
            tot.pack_s += t.span("ssnn.fill_from_lane_words", |_| {
                secs(|| {
                    x.fill_from_lane_words(
                        width,
                        group
                            .iter()
                            .map(|it| (it.len() > step).then(|| it.frame(step))),
                    );
                })
                .1
            });
            tot.layer1_s += t.span("ssnn.layer1_batch_step_into", |_| {
                secs(|| layers[0].batch_step_into(&x, &mut h, &mut xm)).1
            });
            tot.hidden_spikes += h
                .planes()
                .iter()
                .map(|p| u64::from(p.count_ones()))
                .sum::<u64>();
            tot.hidden_slots += (h.bits() * group.len()) as u64;
            tot.layer2_s += t.span("ssnn.layer2_batch_step_into", |_| {
                secs(|| layers[1].batch_step_into(&h, &mut o, &mut xm)).1
            });
            for (j, &plane) in o.planes()[..classes].iter().enumerate() {
                for (l, c) in counts.iter_mut().enumerate() {
                    c[j] += u32::from(plane >> l & 1 == 1 && group[l].len() > step);
                }
            }
        }
        preds.extend(counts.iter().map(|c| argmax_low(c)));
    }
    preds
}
