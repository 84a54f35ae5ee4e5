//! The unified inference entry-point API: one [`InferenceBackend`] trait
//! over the bitwise-identical engines.
//!
//! The scalar `Vec<i8>` × `Vec<bool>` oracle ([`ScalarBackend`]), the
//! per-image bit-packed XNOR/popcount path ([`crate::packed`]) and the
//! 64-image bitplane batch path ([`crate::batchplane`]) compute the same
//! classes. The trait is the bool-frame edge the oracle shares with the
//! packed engine, so tests and benches can compare them through one
//! interface. Nobody picks between the fast engines by hand:
//! [`PackedSnn::classify_into`] chooses per-image or bitplane from the
//! batch size, and the explicit engines stay callable by name
//! ([`PackedSnn::predict_batch_packed`],
//! [`PackedSnn::predict_batch_bitplane_packed`]).
//!
//! # Examples
//!
//! ```
//! use sushi_ssnn::backend::{InferenceBackend, ScalarBackend};
//! use sushi_ssnn::binarize::{BinaryLayer, BinarizedSnn};
//! use sushi_ssnn::packed::{PackedFrames, PackedSnn};
//!
//! let l = BinaryLayer::from_signs(vec![1, -1, 1, 1], 2, 2, vec![1, 2]);
//! let net = BinarizedSnn::from_layers(vec![l]);
//! let packed = PackedSnn::from_network(&net);
//! let items = vec![vec![vec![true, true]], vec![vec![false, true]]];
//! let reference = ScalarBackend(&net).predict_batch(&items, 1);
//! assert_eq!(packed.predict_batch(&items, 1), reference);
//! let packed_items: Vec<PackedFrames> = items
//!     .iter()
//!     .map(|it| PackedFrames::from_bool_frames(2, it))
//!     .collect();
//! assert_eq!(packed.predict_batch_bitplane_packed(&packed_items, 1), reference);
//! ```

use crate::binarize::BinarizedSnn;
use crate::packed::{PackedFrames, PackedSnn};

/// Argmax with ties to the lowest index, matching the float reference —
/// the one prediction rule shared by every backend (previously
/// duplicated privately in `binarize` and `packed`). Public so callers
/// that keep their own count buffers (e.g. a serving executor reusing
/// scratch across batches) apply the exact same rule as the engines.
///
/// # Panics
///
/// Panics if `counts` is empty.
pub fn argmax_low(counts: &[u32]) -> usize {
    counts
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(i, _)| i)
        .expect("at least one class")
}

/// A ready-to-call inference engine: per-class spike counts, single-item
/// prediction, and deterministic parallel batch prediction.
///
/// Implementations must be bitwise identical for the same network — the
/// scalar path is the oracle; `predict` must equal the argmax (ties low)
/// of `forward_counts`, and `predict_batch` must be input-ordered and
/// worker-count invariant.
pub trait InferenceBackend: Sync {
    /// Number of output classes.
    fn classes(&self) -> usize;

    /// Per-class spike counts over one item's frames.
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch.
    fn forward_counts(&self, frames: &[Vec<bool>]) -> Vec<u32>;

    /// Predicted class for one item (argmax of spike counts, ties to the
    /// lowest index).
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch.
    fn predict(&self, frames: &[Vec<bool>]) -> usize {
        argmax_low(&self.forward_counts(frames))
    }

    /// Predicts every item of a dataset on at most `workers` scoped
    /// threads, input-ordered and worker-count invariant
    /// (`workers <= 1` runs on the calling thread).
    ///
    /// The default splits items into contiguous near-equal chunks and
    /// calls [`InferenceBackend::predict`] per item; engines with
    /// cheaper batch strategies override it.
    ///
    /// # Panics
    ///
    /// Panics on input-width mismatch or if a worker thread panics.
    fn predict_batch<I>(&self, items: &[I], workers: usize) -> Vec<usize>
    where
        I: AsRef<[Vec<bool>]> + Sync,
        Self: Sized,
    {
        let mut preds = vec![0usize; items.len()];
        sushi_par::fan_out(items, &mut preds, workers, 1, |_, items, out| {
            for (item, slot) in items.iter().zip(out.iter_mut()) {
                *slot = self.predict(item.as_ref());
            }
        });
        preds
    }
}

/// The packed per-image engine as a backend: bool items are packed at
/// the edge and run through the scratch-reusing parallel
/// [`PackedSnn::predict_batch_packed`].
impl InferenceBackend for PackedSnn {
    fn classes(&self) -> usize {
        PackedSnn::classes(self)
    }

    fn forward_counts(&self, frames: &[Vec<bool>]) -> Vec<u32> {
        PackedSnn::forward_counts(self, frames)
    }

    fn predict(&self, frames: &[Vec<bool>]) -> usize {
        PackedSnn::predict(self, frames)
    }

    fn predict_batch<I>(&self, items: &[I], workers: usize) -> Vec<usize>
    where
        I: AsRef<[Vec<bool>]> + Sync,
    {
        let items: Vec<PackedFrames> = items
            .iter()
            .map(|it| PackedFrames::from_bool_frames(self.input_width(), it.as_ref()))
            .collect();
        self.predict_batch_packed(&items, workers)
    }
}

/// A [`BinarizedSnn`] as a backend: its inherent entry points, which run
/// the packed fast path of its embedded [`crate::PackedLayer`]s.
impl InferenceBackend for BinarizedSnn {
    fn classes(&self) -> usize {
        BinarizedSnn::classes(self)
    }

    fn forward_counts(&self, frames: &[Vec<bool>]) -> Vec<u32> {
        BinarizedSnn::forward_counts(self, frames)
    }

    fn predict(&self, frames: &[Vec<bool>]) -> usize {
        BinarizedSnn::predict(self, frames)
    }
}

/// The scalar oracle as a backend: byte-wise `Vec<i8>` × `Vec<bool>`
/// inner loops, no packing anywhere. What every fast path is tested
/// against.
#[derive(Debug, Clone, Copy)]
pub struct ScalarBackend<'a>(pub &'a BinarizedSnn);

impl InferenceBackend for ScalarBackend<'_> {
    fn classes(&self) -> usize {
        self.0.classes()
    }

    fn forward_counts(&self, frames: &[Vec<bool>]) -> Vec<u32> {
        self.0.forward_counts_scalar_impl(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binarize::BinaryLayer;

    fn fixture() -> (BinarizedSnn, PackedSnn) {
        let mut st = 0x600Du64;
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
            let thresholds: Vec<i64> = (0..outs).map(|_| 1 + (next() % 4) as i64).collect();
            BinaryLayer::from_signs(signs, ins, outs, thresholds)
        };
        let net = BinarizedSnn::from_layers(vec![layer(70, 20), layer(20, 6)]);
        let packed = PackedSnn::from_network(&net);
        (net, packed)
    }

    fn items(seed: u64, count: usize) -> Vec<Vec<Vec<bool>>> {
        let mut st = seed | 1;
        let mut next = move || {
            st ^= st << 13;
            st ^= st >> 7;
            st ^= st << 17;
            st
        };
        (0..count)
            .map(|_| {
                (0..3)
                    .map(|_| (0..70).map(|_| next() % 4 == 0).collect())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn all_backends_agree_on_every_trait_method() {
        let (net, packed) = fixture();
        let data = items(0xA11, 70);
        let oracle = ScalarBackend(&net);
        let want_counts: Vec<Vec<u32>> = data.iter().map(|it| oracle.forward_counts(it)).collect();
        let want_preds = oracle.predict_batch(&data, 1);
        fn check<B: InferenceBackend>(
            name: &str,
            b: &B,
            data: &[Vec<Vec<bool>>],
            want_counts: &[Vec<u32>],
            want_preds: &[usize],
        ) {
            assert_eq!(b.classes(), 6, "{name} classes");
            for (it, want) in data.iter().zip(want_counts) {
                assert_eq!(&b.forward_counts(it), want, "{name} counts");
            }
            for workers in [1usize, 3] {
                assert_eq!(b.predict_batch(data, workers), want_preds, "{name} batch");
            }
        }
        check("scalar", &oracle, &data, &want_counts, &want_preds);
        check("packed", &packed, &data, &want_counts, &want_preds);
        check("binarized", &net, &data, &want_counts, &want_preds);
        let packed_items: Vec<PackedFrames> = data
            .iter()
            .map(|it| PackedFrames::from_bool_frames(70, it))
            .collect();
        for workers in [1usize, 3] {
            let got = packed.predict_batch_bitplane_packed(&packed_items, workers);
            assert_eq!(got, want_preds, "bitplane batch");
        }
    }

    #[test]
    fn binarized_snn_implements_the_trait_directly() {
        let (net, packed) = fixture();
        let data = items(0xB0B, 9);
        // The default (chunked per-item) batch path agrees too.
        assert_eq!(
            InferenceBackend::predict_batch(&net, &data, 4),
            InferenceBackend::predict_batch(&packed, &data, 4),
        );
        assert_eq!(
            InferenceBackend::forward_counts(&net, &data[0]),
            packed.forward_counts(&data[0]),
        );
    }
}
