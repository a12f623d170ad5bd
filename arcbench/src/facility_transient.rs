//! `facility-transient`: the paper's Line 1 × Line 2 facility pairs and the
//! k-line banks, each at a seeded rate scale, through `FacilityAnalysis`
//! serially.
//!
//! One op is one measure call: the joint steady state (matrix-free, the CLI
//! default), the orbit enumeration for banks, both survivability service
//! levels and both cost curves after the facility-wide all-pumps disaster.
//! Building the analysis and materialising the joint chain are timed into
//! the pass and traced, but are not ops. All three curve measures run on the
//! same four joint chains (15,360 to 115,393 blocks), so their per-step
//! times compare. The 281,349-block FRF-2 pair is solved and materialised
//! in every pass; its curves (a cost curve takes seconds there, whatever the
//! grid) run once, in the traced run's probe, so a pass stays short enough
//! to repeat several times in a run.

use arcade_core::{ArcadeError, ComposerOptions, FacilityAnalysis, FacilityModel};
use watertreatment::experiments::{service_levels, MAX_OPERATOR_PRODUCT, ORBIT_ENUMERATION_CAP};
use watertreatment::facility::FACILITY_DISASTER_ALL_PUMPS;
use watertreatment::ModelSpec;

use crate::harness::{timed, Config, Metric, OpRecord, Outcome};
use crate::layers;
use crate::rng::Rng;
use crate::trace;
use crate::workload::Workload;

pub struct FacilityTransient;

/// What a pass runs on a facility besides its steady state and, for banks,
/// the orbit enumeration.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Curves {
    /// Materialise the joint chain and run every curve measure on it.
    All,
    /// Materialise the joint chain only.
    Materialise,
    /// Neither: the product is solved matrix-free or by orbits.
    None,
}

/// Pairs span 15,360 to 281,349 joint blocks; banks fold under factor
/// symmetry.
const FACILITIES: [(&str, Curves); 8] = [
    ("facility/ded+ded", Curves::All),
    ("facility/frf-1+frf-1", Curves::All),
    ("facility/frf-2+frf-2", Curves::Materialise),
    ("facility/ded^2", Curves::All),
    ("facility/frf-1^2", Curves::All),
    ("facility/ded^3", Curves::None),
    ("facility/ded^4", Curves::None),
    ("facility/frf-1^3", Curves::None),
];

/// The facility of the traced run's per-step probe.
const PROBE: &str = "facility/frf-2+frf-2";

/// Tolerance of the product-form and certificate gates.
const TOLERANCE: f64 = 1e-9;

/// Curve grids: 4 points from 0 to `end`. Recovery curves run to 1.5 h and
/// accumulated cost to 3 h, the first third of the windows of Figs. 4–7:
/// the cost curves' time grows with both the points and the horizon, and
/// these keep a pass short enough to repeat within a run.
fn grid(end: f64) -> Vec<f64> {
    (0..=3).map(|i| end * f64::from(i) / 3.0).collect()
}

pub struct Facility {
    spec: ModelSpec,
    curves: Curves,
    model: FacilityModel,
}

/// The seeded facility specs: fixed list, one rate scale each.
fn specs(seed: u64) -> Vec<(String, Curves)> {
    let mut rng = Rng::stream(seed, "facility-transient");
    FACILITIES
        .iter()
        .map(|&(base, curves)| (format!("{base}@{}", rng.rate_scale()), curves))
        .collect()
}

/// Records one call: a failed check becomes a gate entry, and a measure
/// call an op.
fn record(
    out: &mut Outcome,
    label: String,
    latency_ms: f64,
    measure: bool,
    result: Result<(), String>,
) {
    let failed = result.is_err();
    if let Err(reason) = result {
        out.gate("op", false, format!("{label}: {reason}"));
    }
    if measure {
        out.ops.push(OpRecord { latency_ms, failed });
    }
}

fn probability_curve(curve: &[(f64, f64)]) -> Result<(), String> {
    let in_range = curve
        .iter()
        .all(|&(_, p)| (-1e-9..=1.0 + 1e-9).contains(&p));
    let monotone = curve.windows(2).all(|w| w[1].1 >= w[0].1 - 1e-9);
    if in_range && monotone {
        Ok(())
    } else {
        Err("survivability leaves [0, 1] or decreases".to_string())
    }
}

fn cost_curve(curve: &[(f64, f64)]) -> Result<(), String> {
    if curve.iter().all(|&(_, c)| c.is_finite() && c >= -1e-9) {
        Ok(())
    } else {
        Err("a cost is negative or not finite".to_string())
    }
}

/// Every op on one facility.
fn run_facility(f: &Facility, cfg: &Config, out: &mut Outcome, next_op: &mut u64) {
    let name = f.spec.canonical();
    let mut call = |out: &mut Outcome, what: &str, body: &mut dyn FnMut() -> Result<(), String>| {
        *next_op += 1;
        let _span = trace::op_span(*next_op);
        let (result, ms) = timed(body);
        let measure = !matches!(what, "analysis" | "materialise");
        record(out, format!("{what} {name}"), ms, measure, result);
    };
    let options = ComposerOptions {
        exec: cfg.exec(),
        ..ComposerOptions::default()
    };
    let mut analysis = None;
    call(out, "analysis", &mut || {
        let _span = trace::span("facility.analysis");
        analysis =
            Some(FacilityAnalysis::with_options(&f.model, options).map_err(|e| e.to_string())?);
        Ok(())
    });
    let Some(analysis) = analysis else {
        return;
    };
    let stats = analysis.stats();
    if stats.joint_blocks <= MAX_OPERATOR_PRODUCT {
        call(out, "steady", &mut || {
            let mut span = trace::span("ctmc.solve");
            let product = analysis
                .steady_state_availability()
                .map_err(|e| e.to_string())?;
            let joint = analysis
                .matrix_free_steady_state_availability()
                .map_err(|e| e.to_string())?;
            span.set("iters", joint.iterations as f64);
            span.set("states", joint.solved_states as f64);
            let tier = match joint.solver_tier.as_str() {
                "krylov-operator" => "krylov",
                "jacobi-operator" => "jacobi",
                _ => "gs",
            };
            span.set(tier, 1.0);
            let gap = (product - joint.availability).abs();
            if gap <= TOLERANCE && joint.residual <= TOLERANCE {
                Ok(())
            } else {
                Err(format!(
                    "product form vs joint {gap:e}, residual {:e}",
                    joint.residual
                ))
            }
        });
    }
    if stats.orbit_blocks.is_some() {
        call(out, "orbit", &mut || {
            let mut span = trace::span("symmetry.orbit");
            let orbit = analysis
                .orbit_availability(ORBIT_ENUMERATION_CAP)
                .map_err(|e| e.to_string())?;
            span.set("orbits", orbit.orbits_explored as f64);
            drop(span);
            let product = analysis
                .steady_state_availability()
                .map_err(|e| e.to_string())?;
            let gap = (product - orbit.availability).abs();
            let mass = (orbit.total_mass - 1.0).abs();
            if gap <= TOLERANCE && mass <= TOLERANCE && orbit.orbits_explored == orbit.orbit_bound {
                Ok(())
            } else {
                Err(format!(
                    "orbit vs product form {gap:e}, mass defect {mass:e}"
                ))
            }
        });
    }
    if f.curves == Curves::None || stats.joint_blocks > ModelSpec::MAX_MATERIALISED_PRODUCT {
        return;
    }
    let mut states = 0;
    call(out, "materialise", &mut || {
        let _span = trace::span("core.materialise");
        states = analysis
            .compiled_quotient()
            .map_err(|e| e.to_string())?
            .num_states();
        Ok(())
    });
    if f.curves != Curves::All {
        return;
    }
    let recovery = grid(1.5);
    for (what, level) in [("surv-full", 1.0), ("surv-x1", service_levels::LINE1_X1)] {
        call(out, what, &mut || {
            let curve = layers::transient("ctmc.transient_surv", states, recovery.len(), || {
                analysis.survivability_curve(FACILITY_DISASTER_ALL_PUMPS, level, &recovery)
            })
            .map_err(|e| e.to_string())?;
            probability_curve(&curve)
        });
    }
    call(out, "inst-cost", &mut || {
        let curve = layers::transient("ctmc.transient_inst_cost", states, recovery.len(), || {
            analysis.instantaneous_cost_curve(Some(FACILITY_DISASTER_ALL_PUMPS), &recovery)
        })
        .map_err(|e| e.to_string())?;
        cost_curve(&curve)
    });
    let accumulation = grid(3.0);
    call(out, "acc-cost", &mut || {
        let curve = layers::transient(
            "ctmc.transient_acc_cost",
            states,
            accumulation.len(),
            || analysis.accumulated_cost_curve(Some(FACILITY_DISASTER_ALL_PUMPS), &accumulation),
        )
        .map_err(|e| e.to_string())?;
        cost_curve(&curve)?;
        if curve.windows(2).all(|w| w[1].1 >= w[0].1) {
            Ok(())
        } else {
            Err("accumulated cost decreases".to_string())
        }
    });
}

/// Times one checked curve call: (ms, µs per uniformisation step). The step
/// count comes from the program's `transient` spans, read outside the
/// timing.
fn per_step(call: impl FnOnce() -> Result<(), String>) -> Result<(f64, f64), String> {
    let before = layers::program_steps();
    let (checked, ms) = timed(call);
    checked?;
    let steps = layers::program_steps() - before;
    Ok((ms, layers::ratio(ms * 1e3, steps)))
}

/// The traced run's probe: each curve measure once on the 281,349-block
/// FRF-2 pair, on the pass's grids. It runs after the traced passes, with
/// the benchmark's spans off and the program's recorder still on.
fn probe(cfg: &Config, state: &[Facility]) -> Result<Vec<Metric>, String> {
    let f = state
        .iter()
        .find(|f| f.spec.canonical().starts_with(PROBE))
        .ok_or("the probe facility is not in the workload")?;
    let options = ComposerOptions {
        exec: cfg.exec(),
        ..ComposerOptions::default()
    };
    let analysis = FacilityAnalysis::with_options(&f.model, options).map_err(|e| e.to_string())?;
    let blocks = analysis
        .compiled_quotient()
        .map_err(|e| e.to_string())?
        .num_states();
    let (recovery, accumulation) = (grid(1.5), grid(3.0));
    let disaster = Some(FACILITY_DISASTER_ALL_PUMPS);
    let err = |e: ArcadeError| e.to_string();
    let measures = [
        (
            "surv",
            per_step(|| {
                probability_curve(
                    &analysis
                        .survivability_curve(FACILITY_DISASTER_ALL_PUMPS, 1.0, &recovery)
                        .map_err(err)?,
                )
            })?,
        ),
        (
            "inst_cost",
            per_step(|| {
                cost_curve(
                    &analysis
                        .instantaneous_cost_curve(disaster, &recovery)
                        .map_err(err)?,
                )
            })?,
        ),
        (
            "acc_cost",
            per_step(|| {
                cost_curve(
                    &analysis
                        .accumulated_cost_curve(disaster, &accumulation)
                        .map_err(err)?,
                )
            })?,
        ),
    ];
    let name = f.spec.canonical();
    Ok(measures
        .into_iter()
        .flat_map(|(measure, (ms, us_per_step))| {
            [
                Metric::new(format!("ctmc.probe_{measure}_ms"), ms, "ms")
                    .note(format!("one call on {name}, {blocks} blocks")),
                Metric::new(
                    format!("ctmc.probe_{measure}_us_per_step"),
                    us_per_step,
                    "us",
                )
                .note(format!(
                    "one call on {name}, {blocks} blocks → op_p50_ms on facility-transient"
                )),
            ]
        })
        .collect())
}

impl Workload for FacilityTransient {
    type State = Vec<Facility>;

    const NAME: &'static str = "facility-transient";
    const NOMINAL_PASS_S: f64 = 3.0;
    const WHY: &'static str = "curves on four joint chains of 15,360 to 115,393 blocks take \
        ~62-66% of a traced pass, two thirds to three quarters of that inside the \
        uniformisation loop; materialising the joint chains (up to 281,349 blocks) takes \
        ~20-24%, steady-state solves, analyses and orbit enumeration ~13%";

    fn setup(&self, cfg: &Config) -> Result<Vec<Facility>, String> {
        specs(cfg.seed)
            .into_iter()
            .map(|(spec, curves)| {
                let _span = trace::span("watertreatment.model_build");
                let spec = ModelSpec::parse(&spec).map_err(|e| e.to_string())?;
                let model = spec
                    .facility_model()
                    .map_err(|e| e.to_string())?
                    .ok_or_else(|| format!("{spec} is not a facility"))?;
                Ok(Facility {
                    spec,
                    curves,
                    model,
                })
            })
            .collect()
    }

    fn pass(&self, cfg: &Config, state: &mut Vec<Facility>, index: usize, out: &mut Outcome) {
        // Op ids stay distinct across passes (a pass has fewer than 1000 ops).
        let mut next_op = index as u64 * 1000;
        for facility in state.iter() {
            run_facility(facility, cfg, out, &mut next_op);
        }
    }

    fn finish(&self, cfg: &Config, state: &mut Vec<Facility>, out: &mut Outcome) {
        out.gate(
            "facility-checks",
            out.failed_ops() == 0,
            "product form vs joint chain ≤ 1e-9, residual ≤ 1e-9, orbit mass = 1 ± 1e-9, \
             curves in range",
        );
        if cfg.trace {
            match probe(cfg, state) {
                Ok(metrics) => out.layers.extend(metrics),
                Err(e) => out.gate("probe", false, e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_scales_but_not_structure() {
        let (a, b) = (specs(5), specs(6));
        assert_eq!(a.len(), FACILITIES.len());
        assert_ne!(a, b);
        for ((sa, ca), (sb, cb)) in a.iter().zip(&b) {
            assert_eq!(sa.split('@').next(), sb.split('@').next());
            assert_eq!(ca, cb);
        }
    }
}
