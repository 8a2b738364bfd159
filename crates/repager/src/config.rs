//! Configuration of the RePaGer pipeline and the NEWST model.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A validation error for a [`RepagerConfig`] field.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A cost-function constant is out of range (non-finite, negative where
    /// positivity is required, ...).
    InvalidConstant {
        /// The parameter name as written in the paper (`alpha`, `beta`, ...).
        name: &'static str,
        /// The offending value.
        value: f64,
        /// What the constraint is.
        requirement: &'static str,
    },
    /// A count parameter that must be at least 1 was zero.
    ZeroCount {
        /// The parameter name.
        name: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InvalidConstant {
                name,
                value,
                requirement,
            } => {
                write!(f, "{name} must be {requirement}, got {value}")
            }
            ConfigError::ZeroCount { name } => write!(f, "{name} must be at least 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// All tunable parameters of RePaGer.
///
/// The cost-function constants default to the values reported in the paper's
/// experimental setup: `{α, β, γ, a, b} = {3, 2, 5, 0.7, 0.3}`, 30 initial
/// seed papers, and 1st/2nd-order neighbourhood expansion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RepagerConfig {
    /// `α` in Eq. (2): numerator of the edge cost.
    pub alpha: f64,
    /// `β` in Eq. (2): exponent applied to the connection count.
    pub beta: f64,
    /// `γ` in Eq. (3): numerator of the node weight.
    pub gamma: f64,
    /// `a` in Eq. (3): weight of the (normalised) PageRank score.
    pub a: f64,
    /// `b` in Eq. (3): weight of the venue score.
    pub b: f64,
    /// Number of initial seed papers requested from the search engine
    /// (Step 1).
    pub seed_count: usize,
    /// Neighbourhood expansion depth when building the sub-citation graph
    /// (Step 3); the paper uses 1st- and 2nd-order neighbours.
    pub expansion_hops: u8,
    /// Minimum number of initial seeds that must cite a paper for it to be
    /// selected as a reallocated seed (Step 4).
    pub cooccurrence_threshold: usize,
    /// Upper bound on the number of compulsory terminals handed to the
    /// Steiner stage.  Keeping this below the evaluation K means part of the
    /// reading list comes from the tree's connector papers rather than from
    /// co-occurrence ranking alone, which is what distinguishes the full
    /// model from the NEWST-C ablation; it also keeps the Steiner instance
    /// tractable and the rendered path readable.
    pub max_terminals: usize,
    /// Whether node weights participate in the Steiner objective (disabled by
    /// the NEWST-N ablation).
    pub use_node_weights: bool,
    /// Whether edge costs participate in the Steiner objective (disabled by
    /// the NEWST-E ablation; edges then cost a uniform constant).
    pub use_edge_weights: bool,
}

impl Default for RepagerConfig {
    fn default() -> Self {
        RepagerConfig {
            alpha: 3.0,
            beta: 2.0,
            gamma: 5.0,
            a: 0.7,
            b: 0.3,
            seed_count: 30,
            expansion_hops: 2,
            cooccurrence_threshold: 2,
            max_terminals: 25,
            use_node_weights: true,
            use_edge_weights: true,
        }
    }
}

impl RepagerConfig {
    /// A copy with a different number of initial seeds (Table II sweeps 10–50).
    pub fn with_seed_count(self, seed_count: usize) -> Self {
        RepagerConfig { seed_count, ..self }
    }

    /// Validates the configuration, returning the first problem found as a
    /// typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.alpha <= 0.0 || !self.alpha.is_finite() {
            return Err(ConfigError::InvalidConstant {
                name: "alpha",
                value: self.alpha,
                requirement: "positive and finite",
            });
        }
        if self.beta < 0.0 || !self.beta.is_finite() {
            return Err(ConfigError::InvalidConstant {
                name: "beta",
                value: self.beta,
                requirement: "non-negative and finite",
            });
        }
        if self.gamma <= 0.0 || !self.gamma.is_finite() {
            return Err(ConfigError::InvalidConstant {
                name: "gamma",
                value: self.gamma,
                requirement: "positive and finite",
            });
        }
        let a_bad = self.a.is_nan() || self.a < 0.0;
        let b_bad = self.b.is_nan() || self.b < 0.0;
        if a_bad || b_bad {
            let (name, value) = if a_bad { ("a", self.a) } else { ("b", self.b) };
            return Err(ConfigError::InvalidConstant {
                name,
                value,
                requirement: "non-negative",
            });
        }
        if self.a + self.b <= 0.0 {
            return Err(ConfigError::InvalidConstant {
                name: "a + b",
                value: self.a + self.b,
                requirement: "positive",
            });
        }
        if self.seed_count == 0 {
            return Err(ConfigError::ZeroCount { name: "seed_count" });
        }
        if self.expansion_hops == 0 {
            return Err(ConfigError::ZeroCount {
                name: "expansion_hops",
            });
        }
        if self.max_terminals == 0 {
            return Err(ConfigError::ZeroCount {
                name: "max_terminals",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = RepagerConfig::default();
        assert_eq!(c.alpha, 3.0);
        assert_eq!(c.beta, 2.0);
        assert_eq!(c.gamma, 5.0);
        assert_eq!(c.a, 0.7);
        assert_eq!(c.b, 0.3);
        assert_eq!(c.seed_count, 30);
        assert_eq!(c.expansion_hops, 2);
    }

    #[test]
    fn default_config_is_valid() {
        assert!(RepagerConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(RepagerConfig {
            alpha: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(RepagerConfig {
            beta: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(RepagerConfig {
            gamma: f64::NAN,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(RepagerConfig {
            a: 0.0,
            b: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(RepagerConfig {
            seed_count: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(RepagerConfig {
            expansion_hops: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(RepagerConfig {
            max_terminals: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn validation_errors_are_typed_and_std_errors() {
        let err = RepagerConfig {
            alpha: 0.0,
            ..Default::default()
        }
        .validate()
        .unwrap_err();
        assert!(matches!(
            err,
            ConfigError::InvalidConstant { name: "alpha", .. }
        ));
        let err = RepagerConfig {
            seed_count: 0,
            ..Default::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err, ConfigError::ZeroCount { name: "seed_count" });
        // The error type plugs into the std error machinery and renders the
        // offending field.
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(boxed.to_string().contains("seed_count"));
    }

    #[test]
    fn nan_blend_weights_are_rejected_and_blame_the_right_field() {
        let err = RepagerConfig {
            a: f64::NAN,
            ..Default::default()
        }
        .validate()
        .unwrap_err();
        assert!(
            matches!(err, ConfigError::InvalidConstant { name: "a", .. }),
            "NaN `a` must be blamed on `a`, got {err}"
        );
        let err = RepagerConfig {
            b: f64::NAN,
            ..Default::default()
        }
        .validate()
        .unwrap_err();
        assert!(
            matches!(err, ConfigError::InvalidConstant { name: "b", .. }),
            "NaN `b` must be blamed on `b`, got {err}"
        );
    }

    #[test]
    fn with_seed_count_only_changes_seed_count() {
        let base = RepagerConfig::default();
        let modified = base.with_seed_count(50);
        assert_eq!(modified.seed_count, 50);
        assert_eq!(modified.alpha, base.alpha);
        assert_eq!(modified.expansion_hops, base.expansion_hops);
    }
}
