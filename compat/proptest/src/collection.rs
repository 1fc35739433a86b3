//! Collection strategies.

use crate::strategy::Strategy;
use crate::TestRng;
use std::ops::Range;

/// Strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.size.generate(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// A `Vec` whose length is drawn from `size` and whose elements come from
/// `element`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    assert!(size.start < size.end, "empty length range");
    VecStrategy { element, size }
}
