//! The observability drill-down behind `sushi-bench -- bench`: metrics
//! tables for the instrumented fig16 cell-accurate run, an end-to-end
//! evaluation, the three inference engines, the serving pipeline and
//! the training kernels. `scripts/check.sh` greps its headings.

use std::time::Instant;
use sushi_core::experiments::{fig16_with_report, Scale};
use sushi_core::report::{batch_worker_table, eval_worker_table, hot_cell_table};
use sushi_core::SushiChip;
use sushi_serve::{ServeConfig, Server};
use sushi_sim::EvalOptions;
use sushi_snn::data::synth_digits;
use sushi_snn::train::Trainer;
use sushi_ssnn::compiler::{Compiler, CompilerConfig};
use sushi_ssnn::{InferenceBackend, PackedFrames, PackedSnn, ScalarBackend};

/// The observability drill-down behind `sushi-bench -- bench`: the Fig 16
/// cell-accurate run with the worker pool instrumented (hot cells,
/// per-worker throughput) plus an end-to-end behavioural evaluation with
/// its throughput report, each rendered as tables and as one JSON line.
pub fn bench_metrics(scale: Scale) -> String {
    let mut out = String::new();

    // Cell-accurate path: fig16's batched column-block runs, instrumented.
    let (result, report, _) = fig16_with_report(true);
    let report = report.expect("fig16 batch path carries a report");
    out.push_str(&format!(
        "## Bench: fig16 cell-accurate run (instrumented)\n\
         jobs {} | events delivered {} | sim time {:.0} ps | {:.1} jobs/s | utilization {:.0}%\n\
         waveforms match: {} | violations: {}\n\nhot cells:\n{}\nworkers:\n{}\njson: {}\n",
        report.items,
        report.events_delivered,
        report.sim_time_ps,
        report.items_per_s,
        report.utilization * 100.0,
        result.waveforms_match(),
        result.violations,
        hot_cell_table(&report.hot_cells),
        batch_worker_table(&report),
        report.to_json(),
    ));

    // Behavioural path: train quickly, evaluate end to end with a report.
    let data = synth_digits(scale.samples.min(400), 4);
    let (train, test) = data.split(0.8);
    let mut cfg = scale.config();
    cfg.hidden = vec![scale.hidden.min(64)];
    let model = Trainer::new(cfg).fit(&train);
    let program = Compiler::new(CompilerConfig::paper()).compile(&model);
    let chip = SushiChip::paper();
    let eval = chip.evaluate(&program, &test, &EvalOptions::new().report(true));
    let er = eval.report.expect("report requested");
    out.push_str(&format!(
        "\n## Bench: end-to-end behavioural evaluation\n\
         samples {} | {:.1} samples/s | wall {:.3} s | utilization {:.0}% | accuracy {:.1}%\n\nworkers:\n{}\njson: {}\n",
        er.samples,
        er.samples_per_s,
        er.wall_s,
        er.utilization * 100.0,
        eval.accuracy * 100.0,
        eval_worker_table(&er),
        er.to_json(),
    ));

    // Engine drill-down: the three engines raced by name on the binarized
    // network the compiler just built — the scalar oracle, the per-image
    // packed engine, and the 64-lane bitplane batch engine. Each takes
    // bool images and packs them itself inside the timed loop.
    let packed = PackedSnn::from_network(&program.net);
    let width = packed.input_width();
    let frames: Vec<Vec<Vec<bool>>> = test
        .images
        .iter()
        .take(32)
        .enumerate()
        .map(|(i, img)| program.encode_input(img, i as u64))
        .collect();
    let pack = |frames: &[Vec<Vec<bool>>]| -> Vec<PackedFrames> {
        frames
            .iter()
            .map(|img| PackedFrames::from_bool_frames(width, img))
            .collect()
    };
    let engines: [&dyn Fn() -> Vec<usize>; 3] = [
        &|| ScalarBackend(&program.net).predict_batch(&frames, 1),
        &|| packed.predict_batch_packed(&pack(&frames), 1),
        &|| packed.predict_batch_bitplane_packed(&pack(&frames), 1),
    ];
    let reps = 5;
    let mut rates = [0.0f64; 3];
    let mut preds: Vec<Vec<usize>> = Vec::new();
    for (rate, engine) in rates.iter_mut().zip(engines) {
        let t = Instant::now();
        let mut p = Vec::new();
        for _ in 0..reps {
            p = engine();
        }
        *rate = (reps * frames.len()) as f64 / t.elapsed().as_secs_f64().max(1e-9);
        preds.push(p);
    }
    let [scalar_rate, packed_rate, bitplane_rate] = rates;
    let agree = preds.windows(2).all(|w| w[0] == w[1]);
    out.push_str(&format!(
        "\n## Bench: packed SSNN engine (XNOR/popcount)\n\
         images {} x{} reps | packed {:.0} images/s | scalar {:.0} images/s | speedup {:.2}x | predictions agree: {}\n\
         bitplane batch engine: {:.0} images/s | {:.2}x over packed\n",
        frames.len(),
        reps,
        packed_rate,
        scalar_rate,
        packed_rate / scalar_rate.max(1e-9),
        agree,
        bitplane_rate,
        bitplane_rate / packed_rate.max(1e-9),
    ));

    // Serving drill-down: the same packed network behind the sharded
    // micro-batching pipeline — concurrent pre-packed clients, served
    // classes checked bitwise against the offline packed predictions.
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let shards = host_cpus.min(4);
    let server = Server::start(
        packed.clone(),
        ServeConfig::new()
            .max_batch(8)
            .max_delay(std::time::Duration::from_millis(1))
            .shards(shards)
            .executors(host_cpus),
    );
    let offline = &preds[1];
    let clients = host_cpus.min(4);
    let serve_reps = 5;
    let t = Instant::now();
    let served_match = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let handle = server.handle().with_affinity(c);
                let frames = &frames;
                scope.spawn(move || {
                    let mut requests = pack(frames);
                    let mut ok = true;
                    for _ in 0..serve_reps {
                        for (req, &want) in requests.iter_mut().zip(offline) {
                            let got = handle.predict_packed(req).expect("serve ok");
                            ok &= got.class == want;
                        }
                    }
                    ok
                })
            })
            .collect();
        handles.into_iter().all(|h| h.join().expect("serve client"))
    });
    let serve_rate =
        (clients * serve_reps * frames.len()) as f64 / t.elapsed().as_secs_f64().max(1e-9);
    let serve_stats = server.stats();
    drop(server);
    out.push_str(&format!(
        "\n## Bench: serving pipeline (sharded micro-batching)\n\
         shards {} | executors {} | clients {} | {:.0} images/s | mean batch {:.1} | \
         stolen batches {} | served classes match offline: {}\n",
        shards,
        host_cpus,
        clients,
        serve_rate,
        serve_stats.mean_batch_size(),
        serve_stats.stolen_batches,
        served_match,
    ));

    // Training-kernel drill-down: the allocation-free BPTT hot path
    // (SIMD matmul tiers + persistent worker pool) on a scaled-down
    // network, measured exactly as `Trainer::fit` drives it.
    let tcfg = scale.config();
    let tmlp = sushi_snn::SnnMlp::new(&tcfg.layer_sizes(), tcfg.seed)
        .with_binary_weights(tcfg.binary_weights)
        .with_stateless(tcfg.stateless);
    let enc = sushi_snn::PoissonEncoder::new(tcfg.seed);
    let tdata = synth_digits(tcfg.batch, 12);
    let samples: Vec<&[f32]> = tdata.images.iter().map(Vec::as_slice).collect();
    let ids: Vec<u64> = (0..samples.len() as u64).collect();
    let frames = enc.encode_batch(&samples, tcfg.time_steps, &ids);
    let mut targets = sushi_snn::Matrix::zeros(samples.len(), tcfg.classes);
    for (r, &label) in tdata.labels.iter().enumerate() {
        targets[(r, label as usize)] = 1.0;
    }
    let mut ws = sushi_snn::TrainScratch::new();
    let treps = 20;
    let t = Instant::now();
    for _ in 0..treps {
        tmlp.forward_record_with(&frames, &mut ws);
    }
    let fwd_rate = (treps * samples.len()) as f64 / t.elapsed().as_secs_f64().max(1e-9);
    let t = Instant::now();
    for _ in 0..treps {
        tmlp.backward_with(&frames, &targets, &mut ws);
    }
    let bwd_rate = (treps * samples.len()) as f64 / t.elapsed().as_secs_f64().max(1e-9);
    out.push_str(&format!(
        "\n## Bench: training kernels (SIMD + pooled BPTT)\n\
         batch {} x{} reps | forward {:.0} samples/s | backward {:.0} samples/s | \
         simd tier: {} | pool workers: {}\n",
        samples.len(),
        treps,
        fwd_rate,
        bwd_rate,
        sushi_snn::tensor::simd_tier(),
        sushi_snn::WorkerPool::shared().workers(),
    ));
    out
}
