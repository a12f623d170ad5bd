//! The availability planner: which exact tier answers a facility's
//! steady-state availability, and the one function that runs it. Cheapest
//! exact tier first:
//!
//! 1. **joint-solve** — product of the per-group quotients ≤
//!    [`MAX_OPERATOR_PRODUCT`] states: the genuine joint chain solved
//!    matrix-free ([`FacilityAnalysis::matrix_free_steady_state_availability`]),
//!    certified by the Kronecker-sum balance residual;
//! 2. **orbit-enumeration** — orbit bound ≤ [`ORBIT_ENUMERATION_CAP`]: the
//!    sorted-tuple orbits walked under the stationary product measure
//!    ([`FacilityAnalysis::orbit_availability`]), certified by the total mass;
//! 3. **product-form** — `1 − Π P(group down)`, uncertified.
//!
//! No tier materialises the joint chain. The CLI tables,
//! [`crate::FacilityMeasure::JointSteadyStateAvailability`] and the analysis
//! daemon all run [`FacilityAnalysis::planned_availability`], so the tier,
//! solver, iterations and certificate they report come from the code path
//! that ran.

use crate::error::ArcadeError;
use crate::facility::{FacilityAnalysis, FacilityStats};

/// Largest orbit bound the orbit-enumeration tier walks (`facility/ded^4`'s
/// 3,764,376 fits; `ded^8`'s `C(103, 8) ≈ 3.2 × 10¹¹` does not).
pub const ORBIT_ENUMERATION_CAP: usize = 8_000_000;

/// Largest per-group quotient product the joint-solve tier accepts: the
/// operator solver holds a handful of product-length vectors, never the
/// product's transition matrix.
pub const MAX_OPERATOR_PRODUCT: usize = 8_000_000;

/// The evaluation tier of a facility availability (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AvailabilityTier {
    /// Matrix-free solve of the genuine joint chain.
    JointSolve,
    /// Lazy walk over the sorted-tuple orbit representatives.
    OrbitEnumeration,
    /// The product form over independent groups.
    ProductForm,
}

impl AvailabilityTier {
    /// Stable identifier used in tables, JSON reports and daemon replies.
    pub fn name(self) -> &'static str {
        match self {
            AvailabilityTier::JointSolve => "joint-solve",
            AvailabilityTier::OrbitEnumeration => "orbit-enumeration",
            AvailabilityTier::ProductForm => "product-form",
        }
    }
}

/// What [`FacilityAnalysis::planned_availability`] will run, decided from
/// state counts alone (nothing is solved to make the plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AvailabilityPlan {
    /// The tier that will answer.
    pub tier: AvailabilityTier,
    /// States the tier solves on: joint product states, the orbit bound, or
    /// the per-group chain states summed.
    pub states: usize,
}

/// A facility availability together with how it was produced.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedAvailability {
    /// The tier that ran.
    pub tier: AvailabilityTier,
    /// Probability that at least one line is fully operational.
    pub availability: f64,
    /// States of the unreduced joint product (saturating).
    pub joint_states: usize,
    /// States the tier actually solved on (orbits visited for the
    /// enumeration).
    pub solved_states: usize,
    /// The Kronecker-sum balance residual (joint-solve) or `|total mass − 1|`
    /// (orbit-enumeration); `None` for the product form.
    pub certificate: Option<f64>,
    /// The joint solver that ran (`krylov-operator` / `jacobi-operator`);
    /// `None` outside the joint-solve tier.
    pub solver: Option<String>,
    /// Operator applies of the joint solve; `None` outside the joint-solve
    /// tier.
    pub iterations: Option<usize>,
}

impl PlannedAvailability {
    /// The solver name when a joint solver ran, the tier name otherwise.
    pub fn solver_or_tier(&self) -> &str {
        self.solver.as_deref().unwrap_or(self.tier.name())
    }
}

impl FacilityAnalysis<'_> {
    /// The cheapest exact tier for this facility's availability.
    pub fn availability_plan(&self) -> AvailabilityPlan {
        self.plan_for(&self.stats())
    }

    fn plan_for(&self, stats: &FacilityStats) -> AvailabilityPlan {
        let orbits = stats
            .orbit_blocks
            .filter(|&bound| bound <= ORBIT_ENUMERATION_CAP);
        let (tier, states) = if stats.joint_blocks <= MAX_OPERATOR_PRODUCT {
            (AvailabilityTier::JointSolve, stats.joint_blocks)
        } else if let Some(orbits) = orbits {
            (AvailabilityTier::OrbitEnumeration, orbits)
        } else {
            let groups = self.model().composition_tree().groups.len();
            let states = (0..groups).map(|g| self.group_chain(g).num_states()).sum();
            (AvailabilityTier::ProductForm, states)
        };
        AvailabilityPlan { tier, states }
    }

    /// Executes [`FacilityAnalysis::availability_plan`].
    ///
    /// # Errors
    ///
    /// Propagates product-construction and solver errors.
    pub fn planned_availability(&self) -> Result<PlannedAvailability, ArcadeError> {
        let stats = self.stats();
        let plan = self.plan_for(&stats);
        let mut planned = PlannedAvailability {
            tier: plan.tier,
            availability: f64::NAN,
            joint_states: stats.joint_blocks,
            solved_states: plan.states,
            certificate: None,
            solver: None,
            iterations: None,
        };
        match plan.tier {
            AvailabilityTier::JointSolve => {
                let joint = self.matrix_free_steady_state_availability()?;
                planned.availability = joint.availability;
                planned.solved_states = joint.solved_states;
                planned.certificate = Some(joint.residual);
                planned.solver = Some(joint.solver_tier);
                planned.iterations = Some(joint.iterations);
            }
            AvailabilityTier::OrbitEnumeration => {
                let orbit = self.orbit_availability(ORBIT_ENUMERATION_CAP)?;
                planned.availability = orbit.availability;
                planned.solved_states = orbit.orbits_explored;
                planned.certificate = Some((orbit.total_mass - 1.0).abs());
            }
            AvailabilityTier::ProductForm => {
                planned.availability = self.steady_state_availability()?;
            }
        }
        Ok(planned)
    }
}
