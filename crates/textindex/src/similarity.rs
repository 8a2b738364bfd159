//! Vector and set similarity measures.

/// Cosine similarity between two equal-length vectors.  Returns 0 when either
/// vector is all-zero or the lengths differ.
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() || a.is_empty() {
        return 0.0;
    }
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na.sqrt() * nb.sqrt())
}

/// Jaccard similarity between two sets given as slices (duplicates ignored).
pub fn jaccard<T: Eq + std::hash::Hash + Copy>(a: &[T], b: &[T]) -> f64 {
    let sa: std::collections::HashSet<T> = a.iter().copied().collect();
    let sb: std::collections::HashSet<T> = b.iter().copied().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let intersection = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    intersection / union
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_of_identical_vectors_is_one() {
        let v = vec![1.0, 2.0, 3.0];
        assert!((cosine(&v, &v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_orthogonal_vectors_is_zero() {
        assert_eq!(cosine(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
    }

    #[test]
    fn cosine_handles_degenerate_inputs() {
        assert_eq!(cosine(&[], &[]), 0.0);
        assert_eq!(cosine(&[1.0], &[1.0, 2.0]), 0.0);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn jaccard_counts_overlap() {
        assert!((jaccard(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard::<u32>(&[], &[]), 1.0);
        assert_eq!(jaccard(&[1], &[2]), 0.0);
        // Duplicates do not change the result.
        assert_eq!(jaccard(&[1, 1, 2], &[1, 2, 2]), 1.0);
    }
}

#[cfg(all(test, feature = "proptests"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Cosine similarity is symmetric and within [-1, 1].
        #[test]
        fn cosine_symmetric_bounded(
            pairs in prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 1..20),
        ) {
            let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let ab = cosine(&a, &b);
            let ba = cosine(&b, &a);
            prop_assert!((ab - ba).abs() < 1e-9);
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&ab));
        }

        /// Jaccard is within [0, 1] and symmetric.
        #[test]
        fn set_similarities_bounded(
            a in prop::collection::vec(0u32..30, 0..25),
            b in prop::collection::vec(0u32..30, 0..25),
        ) {
            let j = jaccard(&a, &b);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&j));
            prop_assert_eq!(j, jaccard(&b, &a));
        }
    }
}
