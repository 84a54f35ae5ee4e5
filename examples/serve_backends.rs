//! One network, three bitwise-identical engines, no engine setting.
//!
//! 1. Run the same images through the scalar oracle, the per-image
//!    packed engine and the 64-lane bitplane batch engine, each called
//!    by name, and check they agree.
//! 2. Serve the network with the default `ServeConfig`: the batch
//!    planner sends deep micro-batches down the bitplane path and
//!    shallow ones down the per-image path, and the served classes
//!    equal the scalar oracle's.
//!
//! Run with: `cargo run --release --example serve_backends`

use sushi_serve::{ServeConfig, Server};
use sushi_ssnn::{
    BinarizedSnn, BinaryLayer, InferenceBackend, PackedFrames, PackedSnn, ScalarBackend,
    BITPLANE_MIN_BATCH,
};

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

    // --- 1. Three engines, one answer --------------------------------
    println!("offline: one dataset, every engine");
    let reference = ScalarBackend(&net).predict_batch(&images, 1);
    let packed_items: Vec<PackedFrames> = images
        .iter()
        .map(|img| PackedFrames::from_bool_frames(64, img))
        .collect();
    for (name, preds) in [
        ("scalar", reference.clone()),
        ("packed", packed.predict_batch_packed(&packed_items, 1)),
        (
            "bitplane",
            packed.predict_batch_bitplane_packed(&packed_items, 1),
        ),
    ] {
        assert_eq!(preds, reference, "engines are bitwise identical");
        println!("  {name:<9} first 8 classes: {:?}", &preds[..8]);
    }

    // --- 2. Serving: the batch size picks the engine ----------------
    // The default config has no engine setting: each micro-batch goes
    // through `PackedSnn::classify_into`, which runs lane groups of at
    // least BITPLANE_MIN_BATCH requests on the bitplane path and
    // smaller ones per image.
    let server = Server::start(packed, ServeConfig::new());
    let handle = server.handle();
    let served: Vec<usize> = std::thread::scope(|scope| {
        let clients: Vec<_> = images
            .chunks(4)
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
    assert_eq!(served, reference, "served == scalar oracle");
    let stats = server.stats();
    println!(
        "served {} images in {} micro-batches ({} on the bitplane path, from {BITPLANE_MIN_BATCH} requests)",
        stats.served, stats.batches, stats.bitplane_batches
    );
}
