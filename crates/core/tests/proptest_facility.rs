//! Property tests of the facility product layer.
//!
//! * For *coupling-free* facilities (every line with its own repair unit)
//!   the product-chain availability must equal the paper's scalar formula
//!   `A = A1 + A2 − A1·A2`, and the genuine joint chain must agree.
//! * A *shared* repair unit must trigger the joint-exploration fallback, and
//!   the resulting measures must match a hand-merged joint model.

use arcade_core::{
    ArcadeModel, BasicComponent, ExecOptions, FacilityAnalysis, FacilityModel, RepairStrategy,
    RepairUnit,
};
use ctmc::SteadyStateSolver;
use fault_tree::{StructureNode, SystemStructure};
use proptest::prelude::*;

/// The materialised reference: Gauss–Seidel on the cached joint chain, as
/// (availability, balance residual on that chain).
fn materialised(analysis: &FacilityAnalysis) -> (f64, f64) {
    let quotient = analysis.compiled_quotient().unwrap();
    let (pi, _) = quotient
        .stationary_counted(None, ExecOptions::default())
        .unwrap();
    let residual = SteadyStateSolver::new(quotient.chain())
        .balance_residual(&pi)
        .unwrap();
    (quotient.availability_of(&pi), residual)
}

#[derive(Debug, Clone)]
struct LineSpec {
    mttfs: Vec<f64>,
    mttrs: Vec<f64>,
    strategy: RepairStrategy,
    crews: usize,
}

fn arbitrary_line() -> impl Strategy<Value = LineSpec> {
    (
        proptest::collection::vec((10.0f64..500.0, 0.5f64..20.0), 1..=3),
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

/// Builds a redundant-group line whose components all hang off one repair
/// unit with the given name.
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
        builder = builder.component(
            BasicComponent::from_mttf_mttr(name, mttf, mttr)
                .unwrap()
                .with_failed_cost(3.0),
        );
    }
    builder
        .repair_unit(
            RepairUnit::new(unit_name, spec.strategy.clone(), spec.crews)
                .unwrap()
                .responsible_for(names)
                .with_idle_cost(1.0),
        )
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn coupling_free_product_availability_matches_the_scalar_formula(
        line1 in arbitrary_line(),
        line2 in arbitrary_line(),
    ) {
        let facility = FacilityModel::builder("random-facility")
            .line("l1", line_model(&line1, "ru1"))
            .line("l2", line_model(&line2, "ru2"))
            .build()
            .unwrap();
        prop_assert_eq!(facility.composition_tree().groups.len(), 2);

        let analysis = FacilityAnalysis::new(&facility).unwrap();
        let a1 = analysis.line_availability(0).unwrap();
        let a2 = analysis.line_availability(1).unwrap();
        let formula = a1 + a2 - a1 * a2;
        let product_form = analysis.steady_state_availability().unwrap();
        prop_assert!(
            (product_form - formula).abs() <= 1e-9,
            "product form {product_form} vs formula {formula}"
        );
        let (joint, residual) = materialised(&analysis);
        prop_assert!(
            (joint - formula).abs() <= 1e-9,
            "joint {joint} vs formula {formula}"
        );
        prop_assert!(residual < 1e-9, "residual {residual}");
    }

    #[test]
    fn shared_repair_unit_falls_back_to_joint_exploration(
        line1 in arbitrary_line(),
        line2 in arbitrary_line(),
    ) {
        // Same unit name in both lines: one physical crew pool. The two
        // occurrences must agree on configuration, so line 2 reuses line 1's
        // strategy and crew count.
        let mut aligned = line2.clone();
        aligned.strategy = line1.strategy.clone();
        aligned.crews = line1.crews;
        let facility = FacilityModel::builder("coupled-facility")
            .line("l1", line_model(&line1, "shared"))
            .line("l2", line_model(&aligned, "shared"))
            .build()
            .unwrap();
        let tree = facility.composition_tree();
        prop_assert_eq!(tree.groups.len(), 1, "shared unit must merge the lines");
        prop_assert!(tree.groups[0].is_joint());
        prop_assert_eq!(&tree.groups[0].shared_units, &vec!["shared".to_string()]);

        // The joint exploration must agree with a hand-merged single model:
        // all components under one unit, lines as two redundant groups.
        let analysis = FacilityAnalysis::new(&facility).unwrap();
        let coupled = analysis.steady_state_availability().unwrap();

        let mut names = Vec::new();
        let mut builder_components = Vec::new();
        for (prefix, spec) in [("l1", &line1), ("l2", &aligned)] {
            for (i, (&mttf, &mttr)) in spec.mttfs.iter().zip(spec.mttrs.iter()).enumerate() {
                let name = format!("{prefix}/c{i}");
                builder_components.push(
                    BasicComponent::from_mttf_mttr(&name, mttf, mttr)
                        .unwrap()
                        .with_failed_cost(3.0),
                );
                names.push(name);
            }
        }
        let group = |prefix: &str, spec: &LineSpec| {
            StructureNode::redundant(
                (0..spec.mttfs.len())
                    .map(|i| StructureNode::component(format!("{prefix}/c{i}")))
                    .collect(),
            )
        };
        let structure = SystemStructure::new(StructureNode::redundant(vec![
            group("l1", &line1),
            group("l2", &aligned),
        ]));
        let mut builder = ArcadeModel::builder("merged-by-hand", structure);
        for component in builder_components {
            builder = builder.component(component);
        }
        let merged = builder
            .repair_unit(
                RepairUnit::new("shared", line1.strategy.clone(), line1.crews)
                    .unwrap()
                    .responsible_for(names)
                    .with_idle_cost(1.0),
            )
            .build()
            .unwrap();

        // With a single group the facility's "genuine joint chain" IS the
        // group chain, so both paths must coincide bit-for-tolerance.
        let (joint, _) = materialised(&analysis);
        prop_assert!((joint - coupled).abs() <= 1e-9);

        // The joint group explores the merged namespace, not the per-line
        // product: its state count matches the hand-merged model's count.
        let merged_states = arcade_core::CompiledModel::compile(&merged)
            .unwrap()
            .stats()
            .num_states;
        prop_assert_eq!(analysis.stats().lines[0].stats.num_states, merged_states);
    }
}
