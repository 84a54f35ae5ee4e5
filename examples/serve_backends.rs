//! Backend selection: one network, three bitwise-identical engines.
//!
//! 1. Run the same images through the scalar oracle, the per-image
//!    packed engine and the 64-lane bitplane batch engine via the
//!    `InferenceBackend` trait, and check they agree.
//! 2. Serve the network with `ServeConfig::backend` so deep micro-batches
//!    take the bitplane path automatically while shallow ones fall back
//!    to the per-image packed path.
//!
//! Run with: `cargo run --release --example serve_backends`

use std::time::Duration;

use sushi_serve::{ServeConfig, Server};
use sushi_ssnn::{Backend, BinarizedSnn, BinaryLayer, InferenceBackend, PackedSnn};

fn main() {
    // --- A small deterministic 64-32-10 network ----------------------
    let mut st = 0x5E_EDu64;
    let mut next = move || {
        st ^= st << 13;
        st ^= st >> 7;
        st ^= st << 17;
        st
    };
    let mut layer = |ins: usize, outs: usize| {
        let signs: Vec<i8> = (0..ins * outs)
            .map(|_| match next() % 5 {
                0 => 0,
                1 | 2 => -1,
                _ => 1,
            })
            .collect();
        let thresholds: Vec<i64> = (0..outs).map(|_| 1 + (next() % 6) as i64).collect();
        BinaryLayer::from_signs(signs, ins, outs, thresholds)
    };
    let net = BinarizedSnn::from_layers(vec![layer(64, 32), layer(32, 10)]);
    let packed = PackedSnn::from_network(&net);
    let images: Vec<Vec<Vec<bool>>> = (0..96)
        .map(|_| {
            (0..6)
                .map(|_| (0..64).map(|_| next() % 4 == 0).collect())
                .collect()
        })
        .collect();

    // --- 1. The InferenceBackend seam --------------------------------
    println!("offline: one dataset, every backend");
    let reference = Backend::Scalar
        .select(&net, &packed)
        .predict_batch(&images, 1);
    for backend in Backend::ALL {
        let engine = backend.select(&net, &packed);
        let preds = engine.predict_batch(&images, 1);
        assert_eq!(preds, reference, "backends are bitwise identical");
        println!("  {backend:<9} first 8 classes: {:?}", &preds[..8]);
    }

    // --- 2. Backend selection in the serving layer --------------------
    // Default config: Bitplane backend, engaged once a micro-batch has
    // coalesced at least `bitplane_min_batch` requests.
    let cfg = ServeConfig::new()
        .max_batch(32)
        .max_delay(Duration::from_millis(1))
        .executors(1)
        .backend(Backend::Bitplane)
        .bitplane_min_batch(4);
    let server = Server::start(packed, cfg);
    let handle = server.handle();
    let served: Vec<usize> = std::thread::scope(|scope| {
        let clients: Vec<_> = images
            .chunks(12)
            .map(|chunk| {
                let h = handle.clone();
                scope.spawn(move || -> Vec<usize> {
                    chunk
                        .iter()
                        .map(|img| h.predict(img.clone()).expect("served").class)
                        .collect()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    assert_eq!(served, reference, "served == offline, backend-independent");
    let stats = server.stats();
    println!(
        "served {} images in {} micro-batches ({} on the bitplane path)",
        stats.served, stats.batches, stats.bitplane_batches
    );
}
