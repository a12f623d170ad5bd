//! The daemon answers facility availability with the availability planner.
//! On every registry facility spec it serves — the paper's Line 1 × Line 2
//! pairs and the `ded^2`, `ded^3`, `frf-1^2` banks — the reply is
//! bit-identical to the in-process plan with the same tier, within 1e-12 of
//! Gauss–Seidel on the materialised joint chain, and bit-identical at 1, 2,
//! 4 and 8 worker threads. `facility/ded^4`, too large to materialise, is
//! answered on the orbit-enumeration tier.

use std::sync::Arc;

use arcade_core::{ComposerOptions, ExecOptions, FacilityAnalysis, PlannedAvailability};
use arcade_server::{server, AnalysisService, Client, Json, Request, Response};
use ctmc::SteadyStateSolver;
use watertreatment::experiments::paired_strategies;
use watertreatment::ModelSpec;

fn options(threads: usize) -> ComposerOptions {
    ComposerOptions {
        exec: ExecOptions::with_threads(threads),
        ..ComposerOptions::default()
    }
}

fn in_process_plan(spec: &ModelSpec, threads: usize) -> PlannedAvailability {
    let model = spec.facility_model().unwrap().unwrap();
    let analysis = FacilityAnalysis::with_options(&model, options(threads)).unwrap();
    analysis.planned_availability().unwrap()
}

fn served(service: &AnalysisService, spec: &str) -> Json {
    let request = Request::Availability {
        model: spec.to_string(),
    };
    match service.handle(&request) {
        Response::Ok(payload) => payload,
        Response::Err(err) => panic!("{spec}: {err}"),
    }
}

#[test]
fn daemon_facility_availability_is_the_plan_on_every_registry_spec() {
    let daemon_service = Arc::new(AnalysisService::new(ExecOptions::with_threads(2)));
    let daemon = server::spawn("127.0.0.1:0", Arc::clone(&daemon_service)).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let services =
        [1usize, 4, 8].map(|threads| AnalysisService::new(ExecOptions::with_threads(threads)));
    let paper_pairs = paired_strategies()
        .into_iter()
        .map(|(line1, line2)| format!("facility/{}+{}", line1.label, line2.label).to_lowercase());
    let banks = ["facility/ded^2", "facility/ded^3", "facility/frf-1^2"].map(String::from);

    for spec_text in paper_pairs.chain(banks) {
        let spec = ModelSpec::parse(&spec_text).unwrap();
        let planned = in_process_plan(&spec, 1);
        assert_eq!(planned.tier.name(), "joint-solve", "{spec_text}");

        // Over TCP at 2 threads: the in-process plan's bits, tier and solver.
        let reply = client.availability(&spec_text).unwrap();
        assert_eq!(
            reply.availability.to_bits(),
            planned.availability.to_bits(),
            "{spec_text}"
        );
        assert_eq!(
            reply.tier.as_deref(),
            Some(planned.tier.name()),
            "{spec_text}"
        );
        assert_eq!(reply.solver_tier, planned.solver_or_tier(), "{spec_text}");
        assert_eq!(
            (reply.states, reply.source_states),
            (planned.solved_states, planned.joint_states)
        );
        // In-process at 1, 4 and 8 threads: the same bits and tier.
        for service in &services {
            let payload = served(service, &spec_text);
            let availability = payload.get("availability").and_then(Json::as_f64).unwrap();
            assert_eq!(
                availability.to_bits(),
                planned.availability.to_bits(),
                "{spec_text}"
            );
            assert_eq!(
                payload.get("tier").and_then(Json::as_str),
                Some(planned.tier.name())
            );
        }

        // The materialised reference: Gauss–Seidel on the joint chain the
        // transient queries run on, converged well below the bound.
        let quotient = spec.build_quotient(options(1)).unwrap();
        let solver = SteadyStateSolver::new(quotient.chain()).tolerance(1e-14);
        let materialised = quotient.availability_of(&solver.solve().unwrap());
        assert!(
            (planned.availability - materialised).abs() <= 1e-12,
            "{spec_text}: planned {} vs materialised {materialised}",
            planned.availability
        );
    }
    daemon.shutdown();
}

#[test]
fn ded4_bank_is_answered_on_the_orbit_enumeration_tier() {
    let spec = ModelSpec::parse("facility/ded^4").unwrap();
    assert!(
        spec.build_quotient(options(1)).is_err(),
        "too large to materialise"
    );
    let service = AnalysisService::new(ExecOptions::with_threads(2));
    let payload = served(&service, "facility/ded^4");
    let planned = in_process_plan(&spec, 2);
    assert_eq!(planned.tier.name(), "orbit-enumeration");
    for field in ["tier", "solver_tier"] {
        assert_eq!(
            payload.get(field).and_then(Json::as_str),
            Some("orbit-enumeration")
        );
    }
    let availability = payload.get("availability").and_then(Json::as_f64).unwrap();
    assert_eq!(availability.to_bits(), planned.availability.to_bits());
    // C(99, 4) sorted 4-tuples of the 96-block DED quotient.
    assert_eq!(
        payload.get("states").and_then(Json::as_usize),
        Some(3_764_376)
    );
    assert!(planned.certificate.unwrap() < 1e-9);
    assert_eq!(service.cache().num_artifacts(), 0, "nothing materialised");
}
