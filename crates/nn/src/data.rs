//! In-memory supervised datasets and mini-batching.

use neurfill_tensor::{NdArray, Result, TensorError};
use rand::seq::SliceRandom;
use rand::Rng;

/// A supervised regression dataset of `(input, target)` NCHW samples.
///
/// Samples are stored individually (shape `[C, H, W]`); batching stacks
/// them into `[B, C, H, W]` arrays.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    inputs: Vec<NdArray>,
    targets: Vec<NdArray>,
}

impl Dataset {
    /// Creates an empty dataset.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Iterates over `(input, target)` pairs in storage order — the same
    /// consumption shape streaming shard readers expose, so code can be
    /// written against either source.
    pub fn iter(&self) -> impl Iterator<Item = (&NdArray, &NdArray)> {
        self.inputs.iter().zip(self.targets.iter())
    }

    /// Appends every pair from `pairs`, validating shapes like
    /// [`Dataset::push`].
    ///
    /// # Errors
    ///
    /// Returns an error on the first shape mismatch; pairs before it are
    /// kept.
    pub fn extend_pairs(&mut self, pairs: impl IntoIterator<Item = (NdArray, NdArray)>) -> Result<()> {
        let pairs = pairs.into_iter();
        let (additional, _) = pairs.size_hint();
        self.inputs.reserve(additional);
        self.targets.reserve(additional);
        for (input, target) in pairs {
            self.push(input, target)?;
        }
        Ok(())
    }

    /// Adds one `(input, target)` pair.
    ///
    /// # Errors
    ///
    /// Returns an error when the sample shapes disagree with already stored
    /// samples.
    pub fn push(&mut self, input: NdArray, target: NdArray) -> Result<()> {
        if let (Some(i0), Some(t0)) = (self.inputs.first(), self.targets.first()) {
            if input.shape() != i0.shape() || target.shape() != t0.shape() {
                return Err(TensorError::ShapeMismatch {
                    lhs: input.shape().to_vec(),
                    rhs: i0.shape().to_vec(),
                    op: "dataset push",
                });
            }
        }
        self.inputs.push(input);
        self.targets.push(target);
        Ok(())
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether the dataset holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Borrow of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn sample(&self, i: usize) -> (&NdArray, &NdArray) {
        (&self.inputs[i], &self.targets[i])
    }

    /// Splits off the last `n` samples into a separate dataset (e.g. a
    /// validation split).
    ///
    /// # Panics
    ///
    /// Panics when `n` exceeds the dataset size.
    #[must_use]
    pub fn split_off(&mut self, n: usize) -> Dataset {
        assert!(n <= self.len());
        let at = self.len() - n;
        Dataset { inputs: self.inputs.split_off(at), targets: self.targets.split_off(at) }
    }

    /// Stacks samples `indices` into a `[B, C, H, W]` input batch and the
    /// matching target batch.
    ///
    /// # Panics
    ///
    /// Panics when `indices` is empty or out of range.
    #[must_use]
    // The stacked buffer is sized from the shape it is checked against, so
    // `from_vec` cannot fail — the expect asserts an internal invariant.
    #[allow(clippy::expect_used)]
    pub fn batch(&self, indices: &[usize]) -> (NdArray, NdArray) {
        assert!(!indices.is_empty());
        let stack = |items: &[NdArray]| {
            let sample_shape = items[indices[0]].shape().to_vec();
            let mut shape = vec![indices.len()];
            shape.extend(&sample_shape);
            let mut data = Vec::with_capacity(indices.len() * items[indices[0]].numel());
            for &i in indices {
                data.extend_from_slice(items[i].as_slice());
            }
            NdArray::from_vec(data, &shape).expect("stacked shapes agree")
        };
        (stack(&self.inputs), stack(&self.targets))
    }

    /// Yields shuffled mini-batch index lists covering the dataset once.
    #[must_use]
    pub fn shuffled_batches(&self, batch_size: usize, rng: &mut impl Rng) -> Vec<Vec<usize>> {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        idx.chunks(batch_size.max(1)).map(<[usize]>::to_vec).collect()
    }
}

/// Moves the `(input, target)` pairs out in storage order, so one dataset
/// can be appended to another with [`Dataset::extend_pairs`] without
/// copying a sample.
impl IntoIterator for Dataset {
    type Item = (NdArray, NdArray);
    type IntoIter = std::iter::Zip<std::vec::IntoIter<NdArray>, std::vec::IntoIter<NdArray>>;

    fn into_iter(self) -> Self::IntoIter {
        self.inputs.into_iter().zip(self.targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tiny() -> Dataset {
        let mut ds = Dataset::new();
        for i in 0..5 {
            ds.push(NdArray::full(&[1, 2, 2], i as f32), NdArray::full(&[1, 2, 2], -(i as f32)))
                .unwrap();
        }
        ds
    }

    #[test]
    fn push_rejects_mismatched_shapes() {
        let mut ds = tiny();
        assert!(ds.push(NdArray::zeros(&[2, 2, 2]), NdArray::zeros(&[1, 2, 2])).is_err());
    }

    #[test]
    fn batch_stacks_in_order() {
        let ds = tiny();
        let (x, y) = ds.batch(&[2, 0]);
        assert_eq!(x.shape(), &[2, 1, 2, 2]);
        assert_eq!(x.as_slice()[0], 2.0);
        assert_eq!(x.as_slice()[4], 0.0);
        assert_eq!(y.as_slice()[0], -2.0);
    }

    #[test]
    fn shuffled_batches_cover_everything() {
        let ds = tiny();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let batches = ds.shuffled_batches(2, &mut rng);
        let mut seen: Vec<usize> = batches.concat();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn iter_yields_pairs_in_order() {
        let ds = tiny();
        let pairs: Vec<_> = ds.iter().collect();
        assert_eq!(pairs.len(), 5);
        for (i, (x, y)) in pairs.iter().enumerate() {
            assert_eq!(x.as_slice()[0], i as f32);
            assert_eq!(y.as_slice()[0], -(i as f32));
        }
    }

    #[test]
    fn extend_pairs_appends_and_keeps_pairs_before_an_error() {
        let mut ds = Dataset::new();
        ds.extend_pairs(
            (0..4).map(|i| {
                (NdArray::full(&[1, 2, 2], i as f32), NdArray::full(&[1, 2, 2], i as f32 + 0.5))
            }),
        )
        .unwrap();
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.sample(3).1.as_slice()[0], 3.5);
        // Mismatched pair errors; earlier pairs are kept.
        let err = ds.extend_pairs([(NdArray::zeros(&[2, 2, 2]), NdArray::zeros(&[1, 2, 2]))]);
        assert!(err.is_err());
        assert_eq!(ds.len(), 4);
    }

    #[test]
    fn split_off_takes_tail() {
        let mut ds = tiny();
        let val = ds.split_off(2);
        assert_eq!(ds.len(), 3);
        assert_eq!(val.len(), 2);
        assert_eq!(val.sample(0).0.as_slice()[0], 3.0);
    }
}
