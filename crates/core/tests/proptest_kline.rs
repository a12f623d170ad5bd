//! Property tests of the k-line facility product layer (k > 2).
//!
//! For *coupling-free* k-line facilities (every line with its own repair
//! unit) the product-form availability must equal the scalar inclusion–
//! exclusion closed form `A = 1 − Π_i (1 − A_i)`: the per-group chains are
//! independent, so "every line down" factorises. The k = 3 case is small
//! enough to confirm against the genuine joint chain as well.

use arcade_core::{
    ArcadeModel, BasicComponent, ExecOptions, FacilityAnalysis, FacilityModel, RepairStrategy,
    RepairUnit,
};
use ctmc::SteadyStateSolver;
use fault_tree::{StructureNode, SystemStructure};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct LineSpec {
    mttfs: Vec<f64>,
    mttrs: Vec<f64>,
    strategy: RepairStrategy,
    crews: usize,
}

fn arbitrary_line() -> impl Strategy<Value = LineSpec> {
    (
        proptest::collection::vec((10.0f64..500.0, 0.5f64..20.0), 1..=2),
        prop_oneof![
            Just(RepairStrategy::Dedicated),
            Just(RepairStrategy::FirstComeFirstServe),
            Just(RepairStrategy::FastestRepairFirst),
        ],
        1usize..=2,
    )
        .prop_map(|(rates, strategy, crews)| LineSpec {
            mttfs: rates.iter().map(|r| r.0).collect(),
            mttrs: rates.iter().map(|r| r.1).collect(),
            strategy,
            crews,
        })
}

/// A redundant-group line whose components all hang off one repair unit.
fn line_model(spec: &LineSpec, unit_name: &str) -> ArcadeModel {
    let names: Vec<String> = (0..spec.mttfs.len()).map(|i| format!("c{i}")).collect();
    let structure = SystemStructure::new(StructureNode::redundant(
        names
            .iter()
            .map(|n| StructureNode::component(n.clone()))
            .collect(),
    ));
    let mut builder = ArcadeModel::builder("line", structure);
    for (name, (&mttf, &mttr)) in names.iter().zip(spec.mttfs.iter().zip(spec.mttrs.iter())) {
        builder = builder.component(BasicComponent::from_mttf_mttr(name, mttf, mttr).unwrap());
    }
    builder
        .repair_unit(
            RepairUnit::new(unit_name, spec.strategy.clone(), spec.crews)
                .unwrap()
                .responsible_for(names),
        )
        .build()
        .unwrap()
}

/// A coupling-free k-line bank: each line gets its own repair unit.
fn bank(lines: &[LineSpec]) -> FacilityModel {
    let mut builder = FacilityModel::builder("random-k-bank");
    for (i, spec) in lines.iter().enumerate() {
        builder = builder.line(format!("l{i}"), line_model(spec, &format!("ru{i}")));
    }
    builder.build().unwrap()
}

/// `1 − Π_i (1 − A_i)` from the per-line availabilities.
fn inclusion_exclusion(analysis: &FacilityAnalysis) -> f64 {
    let k = analysis.stats().lines.len();
    let all_down: f64 = (0..k)
        .map(|i| 1.0 - analysis.line_availability(i).unwrap())
        .product();
    1.0 - all_down
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn three_line_product_availability_matches_the_closed_form(
        lines in proptest::collection::vec(arbitrary_line(), 3),
    ) {
        let facility = bank(&lines);
        prop_assert_eq!(facility.composition_tree().groups.len(), 3);
        let analysis = FacilityAnalysis::new(&facility).unwrap();
        let formula = inclusion_exclusion(&analysis);
        let product_form = analysis.steady_state_availability().unwrap();
        prop_assert!(
            (product_form - formula).abs() <= 1e-9,
            "product form {product_form} vs closed form {formula}"
        );
        // k = 3 stays small enough for the genuine joint chain to confirm,
        // materialised and Gauss–Seidel solved.
        let quotient = analysis.compiled_quotient().unwrap();
        let (pi, _) = quotient
            .stationary_counted(None, ExecOptions::default())
            .unwrap();
        let joint = quotient.availability_of(&pi);
        prop_assert!(
            (joint - formula).abs() <= 1e-9,
            "joint {joint} vs closed form {formula}"
        );
        let residual = SteadyStateSolver::new(quotient.chain())
            .balance_residual(&pi)
            .unwrap();
        prop_assert!(residual < 1e-9, "residual {residual}");
    }

    #[test]
    fn four_line_product_availability_matches_the_closed_form(
        lines in proptest::collection::vec(arbitrary_line(), 4),
    ) {
        let facility = bank(&lines);
        prop_assert_eq!(facility.composition_tree().groups.len(), 4);
        let analysis = FacilityAnalysis::new(&facility).unwrap();
        let formula = inclusion_exclusion(&analysis);
        let product_form = analysis.steady_state_availability().unwrap();
        prop_assert!(
            (product_form - formula).abs() <= 1e-9,
            "product form {product_form} vs closed form {formula}"
        );
    }
}
