//! SVM kernel functions.

/// A kernel function over dense feature vectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// The inner product `⟨x, z⟩`.
    Linear,
    /// The Gaussian radial basis function `exp(−γ ‖x − z‖²)`.
    Rbf {
        /// The width parameter γ (> 0).
        gamma: f64,
    },
}

impl Kernel {
    /// RBF kernel with sklearn's `gamma = "scale"` heuristic:
    /// `γ = 1 / (n_features · Var[X])` where `Var[X]` is the variance of
    /// all feature values pooled together.
    ///
    /// Falls back to `γ = 1 / n_features` for (near-)constant data.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or has empty rows.
    pub fn rbf_scale(xs: &[Vec<f64>]) -> Kernel {
        assert!(!xs.is_empty(), "cannot scale gamma on an empty dataset");
        let d = xs[0].len();
        assert!(d > 0, "feature vectors must be non-empty");
        let all: Vec<f64> = xs.iter().flatten().copied().collect();
        let var = fadewich_stats::descriptive::variance(&all);
        let gamma = if var > 1e-12 { 1.0 / (d as f64 * var) } else { 1.0 / d as f64 };
        Kernel::Rbf { gamma }
    }

    /// Evaluates the kernel on two vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn eval(&self, x: &[f64], z: &[f64]) -> f64 {
        assert_eq!(x.len(), z.len(), "kernel arguments must have equal dimension");
        match *self {
            Kernel::Linear => x.iter().zip(z).map(|(a, b)| a * b).sum(),
            Kernel::Rbf { gamma } => {
                let sq: f64 = x.iter().zip(z).map(|(a, b)| (a - b) * (a - b)).sum();
                (-gamma * sq).exp()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_is_dot_product() {
        let k = Kernel::Linear;
        assert_eq!(k.eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(k.eval(&[0.0], &[5.0]), 0.0);
    }

    #[test]
    fn rbf_identity_and_decay() {
        let k = Kernel::Rbf { gamma: 0.5 };
        assert_eq!(k.eval(&[1.0, 2.0], &[1.0, 2.0]), 1.0);
        let near = k.eval(&[0.0, 0.0], &[0.1, 0.0]);
        let far = k.eval(&[0.0, 0.0], &[2.0, 0.0]);
        assert!(near > far);
        assert!(far > 0.0 && far < 0.2);
    }

    #[test]
    fn rbf_symmetry() {
        let k = Kernel::Rbf { gamma: 1.3 };
        let a = [0.2, -1.0, 3.0];
        let b = [1.0, 0.5, -0.5];
        assert_eq!(k.eval(&a, &b), k.eval(&b, &a));
    }

    #[test]
    fn scale_heuristic() {
        let xs = vec![vec![0.0, 0.0], vec![2.0, 2.0]];
        // Pooled variance of {0,0,2,2} is 1.0, d = 2 -> gamma = 0.5.
        match Kernel::rbf_scale(&xs) {
            Kernel::Rbf { gamma } => assert!((gamma - 0.5).abs() < 1e-12),
            k => panic!("expected RBF, got {k:?}"),
        }
    }

    #[test]
    fn scale_heuristic_constant_data() {
        let xs = vec![vec![3.0; 4]; 5];
        match Kernel::rbf_scale(&xs) {
            Kernel::Rbf { gamma } => assert!((gamma - 0.25).abs() < 1e-12),
            k => panic!("expected RBF, got {k:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "equal dimension")]
    fn dimension_mismatch_panics() {
        Kernel::Linear.eval(&[1.0], &[1.0, 2.0]);
    }
}
