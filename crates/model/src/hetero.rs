//! Heterogeneous cost model — the general form the paper's Section III-C
//! relates to the rectilinear Steiner arborescence problem.
//!
//! The DP_Greedy paper works under homogeneous costs, but defines its
//! hardness by reference to the heterogeneous problem of \[7\]: per-server
//! caching rates `μ_s` and per-pair transfer costs `λ_{st}`. This module
//! supplies that model as a first-class citizen so the workspace can (a)
//! check that every homogeneous algorithm is the uniform special case of
//! a heterogeneous one, and (b) host the exact/heuristic heterogeneous
//! solvers of `mcs-offline::hetero`.

use crate::error::ModelError;
use crate::ids::ServerId;

/// Per-server, per-link cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroCostModel {
    /// `μ_s` — caching rate per copy per unit time at each server.
    mu: Vec<f64>,
    /// `λ_{st}` — symmetric transfer cost matrix with zero diagonal,
    /// row-major `m×m`.
    lambda: Vec<f64>,
    /// Package discount factor `α ∈ (0, 1]` (kept for parity with the
    /// homogeneous model; the heterogeneous solvers here are single-item).
    alpha: f64,
    servers: u32,
}

crate::impl_json!(HeteroCostModel {
    mu,
    lambda,
    alpha,
    servers
});

impl HeteroCostModel {
    /// Validates and builds a heterogeneous model.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidCostModel`] when any rate is non-finite or
    /// non-positive, the matrix is misshapen/asymmetric, a diagonal entry
    /// is non-zero, or `α ∉ (0, 1]`.
    pub fn new(mu: Vec<f64>, lambda: Vec<f64>, alpha: f64) -> Result<Self, ModelError> {
        let m = mu.len();
        if m == 0 {
            return Err(ModelError::InvalidCostModel {
                what: "need at least one server",
            });
        }
        if lambda.len() != m * m {
            return Err(ModelError::InvalidCostModel {
                what: "λ matrix must be m×m",
            });
        }
        for &r in &mu {
            if !(r.is_finite() && r > 0.0) {
                return Err(ModelError::InvalidCostModel {
                    what: "every μ_s must be finite and positive",
                });
            }
        }
        for i in 0..m {
            for j in 0..m {
                let v = lambda[i * m + j];
                if i == j {
                    if v != 0.0 {
                        return Err(ModelError::InvalidCostModel {
                            what: "λ diagonal must be zero",
                        });
                    }
                } else {
                    if !(v.is_finite() && v > 0.0) {
                        return Err(ModelError::InvalidCostModel {
                            what: "every off-diagonal λ must be finite and positive",
                        });
                    }
                    if (v - lambda[j * m + i]).abs() > crate::time::EPSILON {
                        return Err(ModelError::InvalidCostModel {
                            what: "λ matrix must be symmetric",
                        });
                    }
                }
            }
        }
        if !(alpha.is_finite() && alpha > 0.0 && alpha <= 1.0) {
            return Err(ModelError::InvalidCostModel {
                what: "α must lie in (0, 1]",
            });
        }
        Ok(HeteroCostModel {
            mu,
            lambda,
            alpha,
            servers: m as u32,
        })
    }

    /// Embeds a homogeneous model over `m` servers (all `μ_s = μ`, all
    /// `λ_{st} = λ`).
    pub fn uniform(m: u32, mu: f64, lambda: f64, alpha: f64) -> Result<Self, ModelError> {
        let msize = m as usize;
        let mut lam = vec![lambda; msize * msize];
        for i in 0..msize {
            lam[i * msize + i] = 0.0;
        }
        Self::new(vec![mu; msize], lam, alpha)
    }

    /// Number of servers `m`.
    #[inline]
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// Caching rate at `s`.
    #[inline]
    pub fn mu(&self, s: ServerId) -> f64 {
        self.mu[s.index()]
    }

    /// Transfer cost between `a` and `b` (zero when equal).
    #[inline]
    pub fn lambda(&self, a: ServerId, b: ServerId) -> f64 {
        self.lambda[a.index() * self.servers as usize + b.index()]
    }

    /// Discount factor.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The raw per-server rate vector, indexed by server.
    #[inline]
    pub fn mu_rates(&self) -> &[f64] {
        &self.mu
    }

    /// The raw row-major `m×m` transfer matrix.
    #[inline]
    pub fn lambda_matrix(&self) -> &[f64] {
        &self.lambda
    }

    /// Recovers the homogeneous [`crate::CostModel`] when this model is
    /// exactly a [`Self::uniform`] embedding: all `μ_s` *bitwise* equal
    /// and all off-diagonal `λ_{st}` bitwise equal. Bitwise (not
    /// approximate) equality is what makes the collapse a byte-identity
    /// guarantee rather than a numerical coincidence. A single-server
    /// model never collapses (it has no off-diagonal λ to recover).
    pub fn collapse_uniform(&self) -> Option<crate::CostModel> {
        let m = self.servers as usize;
        if m < 2 {
            return None;
        }
        let mu = self.mu[0];
        if !self.mu.iter().all(|&r| r.to_bits() == mu.to_bits()) {
            return None;
        }
        let lambda = self.lambda[1];
        for i in 0..m {
            for j in 0..m {
                if i != j && self.lambda[i * m + j].to_bits() != lambda.to_bits() {
                    return None;
                }
            }
        }
        crate::CostModel::new(mu, lambda, self.alpha).ok()
    }

    /// True if the transfer matrix satisfies the triangle inequality
    /// (metric networks; relays never pay off within a single instant).
    pub fn is_metric(&self) -> bool {
        let m = self.servers as usize;
        for i in 0..m {
            for j in 0..m {
                for k in 0..m {
                    if self.lambda[i * m + j]
                        > self.lambda[i * m + k] + self.lambda[k * m + j] + crate::time::EPSILON
                    {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Fluent builder for [`HeteroCostModel`] — the per-server counterpart of
/// [`crate::CostModelBuilder`], so sweeps construct heterogeneous models
/// the same way as the homogeneous path (including the Fig.-12
/// [`Self::from_rho`] parameterisation).
#[derive(Debug, Clone)]
pub struct HeteroCostModelBuilder {
    mu: Vec<f64>,
    lambda: Vec<f64>,
    alpha: f64,
    servers: usize,
}

impl HeteroCostModelBuilder {
    /// Starts from a uniform embedding of the defaults `μ = λ = 1`,
    /// `α = 0.8` over `m` servers.
    pub fn new(m: u32) -> Self {
        let servers = m as usize;
        let mut lambda = vec![1.0; servers * servers];
        for i in 0..servers {
            lambda[i * servers + i] = 0.0;
        }
        HeteroCostModelBuilder {
            mu: vec![1.0; servers],
            lambda,
            alpha: 0.8,
            servers,
        }
    }

    /// Sets every `μ_s` and every off-diagonal `λ_{st}` uniformly.
    pub fn uniform_rates(mut self, mu: f64, lambda: f64) -> Self {
        self.mu.fill(mu);
        for i in 0..self.servers {
            for j in 0..self.servers {
                self.lambda[i * self.servers + j] = if i == j { 0.0 } else { lambda };
            }
        }
        self
    }

    /// Sets uniform rates from the ratio `ρ = λ/μ` under the Fig.-12
    /// constraint `λ + μ = sum` — the same parameterisation as
    /// [`crate::CostModelBuilder::from_rho`].
    pub fn from_rho(self, rho: f64, sum: f64) -> Self {
        let mu = sum / (1.0 + rho);
        let lambda = sum * rho / (1.0 + rho);
        self.uniform_rates(mu, lambda)
    }

    /// Overrides one server's caching rate.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn mu_at(mut self, s: ServerId, mu: f64) -> Self {
        self.mu[s.index()] = mu;
        self
    }

    /// Overrides one link's transfer cost (kept symmetric).
    ///
    /// # Panics
    ///
    /// Panics if either server is out of range.
    pub fn lambda_between(mut self, a: ServerId, b: ServerId, lambda: f64) -> Self {
        self.lambda[a.index() * self.servers + b.index()] = lambda;
        self.lambda[b.index() * self.servers + a.index()] = lambda;
        self
    }

    /// Sets the discount factor `α`.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Builds the validated model.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError::InvalidCostModel`] from
    /// [`HeteroCostModel::new`].
    pub fn build(self) -> Result<HeteroCostModel, ModelError> {
        HeteroCostModel::new(self.mu, self.lambda, self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_embedding_round_trips() {
        let h = HeteroCostModel::uniform(3, 2.0, 5.0, 0.8).unwrap();
        assert_eq!(h.servers(), 3);
        assert_eq!(h.mu(ServerId(1)), 2.0);
        assert_eq!(h.lambda(ServerId(0), ServerId(2)), 5.0);
        assert_eq!(h.lambda(ServerId(2), ServerId(2)), 0.0);
        assert!(h.is_metric());
    }

    #[test]
    fn rejects_malformed_models() {
        assert!(HeteroCostModel::new(vec![], vec![], 0.8).is_err());
        assert!(HeteroCostModel::new(vec![1.0], vec![0.0, 1.0], 0.8).is_err());
        assert!(HeteroCostModel::new(vec![0.0], vec![0.0], 0.8).is_err());
        // Asymmetric.
        assert!(HeteroCostModel::new(vec![1.0, 1.0], vec![0.0, 2.0, 3.0, 0.0], 0.8).is_err());
        // Non-zero diagonal.
        assert!(HeteroCostModel::new(vec![1.0, 1.0], vec![1.0, 2.0, 2.0, 0.0], 0.8).is_err());
        // Bad alpha.
        assert!(HeteroCostModel::uniform(2, 1.0, 1.0, 0.0).is_err());
    }

    #[test]
    fn metric_detection() {
        // A violating matrix: going around (0→2→1 = 1+1) is cheaper than
        // direct (0→1 = 5).
        let h = HeteroCostModel::new(
            vec![1.0, 1.0, 1.0],
            vec![
                0.0, 5.0, 1.0, //
                5.0, 0.0, 1.0, //
                1.0, 1.0, 0.0,
            ],
            0.8,
        )
        .unwrap();
        assert!(!h.is_metric());
    }

    #[test]
    fn json_round_trip() {
        use crate::json::{parse, FromJson, ToJson};
        let h = HeteroCostModel::uniform(2, 1.5, 2.5, 0.7).unwrap();
        let j = h.to_json().to_string();
        let back = HeteroCostModel::from_json(&parse(&j).unwrap()).unwrap();
        assert_eq!(h, back);
    }

    #[test]
    fn uniform_models_collapse_bitwise_and_spreads_do_not() {
        let h = HeteroCostModel::uniform(3, 1.2, 2.3, 0.8).unwrap();
        let c = h.collapse_uniform().unwrap();
        assert_eq!(c.mu().to_bits(), 1.2f64.to_bits());
        assert_eq!(c.lambda().to_bits(), 2.3f64.to_bits());
        assert_eq!(c.alpha().to_bits(), 0.8f64.to_bits());
        // A spread in μ or λ breaks the collapse.
        let spread = HeteroCostModelBuilder::new(3)
            .uniform_rates(1.2, 2.3)
            .mu_at(ServerId(2), 1.3)
            .build()
            .unwrap();
        assert!(spread.collapse_uniform().is_none());
        let asym = HeteroCostModelBuilder::new(3)
            .uniform_rates(1.2, 2.3)
            .lambda_between(ServerId(0), ServerId(2), 9.0)
            .build()
            .unwrap();
        assert!(asym.collapse_uniform().is_none());
        // One server has no λ to recover.
        assert!(HeteroCostModel::uniform(1, 1.0, 1.0, 0.8)
            .unwrap()
            .collapse_uniform()
            .is_none());
    }

    #[test]
    fn builder_matches_the_homogeneous_parameterisation() {
        use crate::CostModelBuilder;
        let homo = CostModelBuilder::new().from_rho(2.0, 6.0).build().unwrap();
        let het = HeteroCostModelBuilder::new(4)
            .from_rho(2.0, 6.0)
            .build()
            .unwrap();
        let collapsed = het.collapse_uniform().unwrap();
        assert_eq!(collapsed.mu().to_bits(), homo.mu().to_bits());
        assert_eq!(collapsed.lambda().to_bits(), homo.lambda().to_bits());
        // Per-server / per-link overrides land where they should.
        let h = HeteroCostModelBuilder::new(3)
            .uniform_rates(2.0, 4.0)
            .mu_at(ServerId(1), 0.5)
            .lambda_between(ServerId(1), ServerId(2), 7.0)
            .alpha(0.9)
            .build()
            .unwrap();
        assert_eq!(h.mu(ServerId(1)), 0.5);
        assert_eq!(h.mu(ServerId(0)), 2.0);
        assert_eq!(h.lambda(ServerId(2), ServerId(1)), 7.0);
        assert_eq!(h.lambda(ServerId(0), ServerId(1)), 4.0);
        assert_eq!(h.alpha(), 0.9);
    }
}
