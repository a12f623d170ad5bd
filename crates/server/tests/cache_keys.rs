//! Cache-key hardening regression: a forced presentation-code collision
//! (two *different* chains interned under the same 64-bit code) must keep
//! both artifacts separate — sharing happens only after
//! [`arcade_core::CompiledQuotient::identical`] confirms exact equality, so
//! a hash collision can never poison the cache. The warm-start donor is
//! deterministic: the earliest-inserted solved sibling.

use std::sync::Arc;

use arcade_core::{CompiledQuotient, ComposerOptions, ExecOptions};
use arcade_server::{AnalysisService, QuotientCache, Request, Response};
use watertreatment::ModelSpec;

fn quotient_of(spec: &str) -> CompiledQuotient {
    ModelSpec::parse(spec)
        .unwrap()
        .build_quotient(ComposerOptions::default())
        .unwrap()
}

#[test]
fn colliding_codes_keep_distinct_artifacts_separate() {
    let line1 = quotient_of("line1/ded");
    let line2 = quotient_of("line2/ded");
    assert!(
        !line1.identical(&line2),
        "the regression needs two genuinely different chains"
    );

    // Force both under one code, as a 64-bit hash collision would.
    let forced = 0xdead_beef_u64;
    let cache = QuotientCache::new();
    let (first, first_shared) = cache.intern_with_code("line1/ded", "line1/ded", forced, line1);
    let (second, second_shared) = cache.intern_with_code("line2/ded", "line2/ded", forced, line2);
    assert!(!first_shared);
    assert!(
        !second_shared,
        "a code collision must not be treated as artifact identity"
    );
    assert!(
        !Arc::ptr_eq(&first, &second),
        "colliding-but-different artifacts live side by side"
    );
    assert_eq!(cache.num_artifacts(), 2);
    assert_eq!(cache.num_specs(), 2);

    // Each spec still resolves to its own chain …
    let resolved_line1 = cache.get("line1/ded").unwrap();
    let resolved_line2 = cache.get("line2/ded").unwrap();
    assert!(resolved_line1
        .quotient()
        .identical(&quotient_of("line1/ded")));
    assert!(resolved_line2
        .quotient()
        .identical(&quotient_of("line2/ded")));

    // … and solve state never leaks across the collision: memoising a
    // stationary vector on one entry must not surface on the other.
    let fake_pi = Arc::new(vec![1.0; first.quotient().num_states()]);
    first.set_stationary(Arc::clone(&fake_pi));
    assert!(first.stationary().is_some());
    assert!(
        second.stationary().is_none(),
        "a collision neighbour must not inherit the other chain's solution"
    );
}

#[test]
fn identical_artifacts_share_one_entry_even_under_a_forced_code() {
    let cache = QuotientCache::new();
    let forced = 42_u64;
    let (first, first_shared) =
        cache.intern_with_code("line2/ded", "line2/ded", forced, quotient_of("line2/ded"));
    assert!(!first_shared);

    // A second, independently compiled but exactly equal artifact interns
    // onto the existing entry (the equality confirm passes).
    let (second, second_shared) =
        cache.intern_with_code("line2/ded@1", "line2/ded", forced, quotient_of("line2/ded"));
    assert!(second_shared, "identical artifacts are stored once");
    assert!(Arc::ptr_eq(&first, &second));
    assert_eq!(cache.num_artifacts(), 1);
    assert_eq!(cache.num_specs(), 2, "both specs point at the one artifact");
}

#[test]
fn bounded_cache_evicts_the_least_recently_used_spec() {
    let cache = QuotientCache::with_capacity(2);
    assert_eq!(cache.capacity(), Some(2));
    cache.insert("line2/ded", "line2/ded", quotient_of("line2/ded"));
    let (victim, _) = cache.insert("line1/ded", "line1/ded", quotient_of("line1/ded"));
    let states = victim.quotient().num_states();
    victim.set_stationary(Arc::new(vec![0.25; states]));
    assert_eq!(cache.num_specs(), 2);
    assert_eq!(cache.evictions(), 0);

    // Touch the oldest spec so the *other* one becomes the LRU victim.
    assert!(cache.get("line2/ded").is_some());
    cache.insert("line2/frf-1", "line2/frf-1", quotient_of("line2/frf-1"));
    assert_eq!(cache.num_specs(), 2);
    assert_eq!(cache.evictions(), 1);
    assert!(cache.get("line1/ded").is_none(), "LRU victim is gone");
    assert!(
        cache.get("line2/ded").is_some(),
        "the touched spec survives"
    );
    assert!(cache.get("line2/frf-1").is_some());

    // The evicted spec's artifact (and its memoised stationary vector) was
    // garbage-collected with it, so the warm-donor scan can never hand out
    // vectors of evicted entries.
    assert_eq!(cache.num_artifacts(), 2);
    assert!(cache.warm_donor("line1/ded", states, 0).is_none());

    // Re-inserting the evicted spec works and evicts the new LRU.
    cache.insert("line1/ded", "line1/ded", quotient_of("line1/ded"));
    assert_eq!(cache.num_specs(), 2);
    assert_eq!(cache.evictions(), 2);
}

#[test]
fn warm_donor_skips_the_asking_code_and_foreign_families() {
    let cache = QuotientCache::new();
    let nominal = quotient_of("line2/ded");
    let states = nominal.num_states();
    let (entry, _) = cache.intern_with_code("line2/ded", "line2/ded", 1, nominal);
    entry.set_stationary(Arc::new(vec![0.5; states]));

    // The entry's own code is excluded (it cannot donate to itself) …
    assert!(cache.warm_donor("line2/ded", states, 1).is_none());
    // … a different family never donates …
    assert!(cache.warm_donor("line1/ded", states, 2).is_none());
    // … and a same-family sibling with a different code does.
    assert!(cache.warm_donor("line2/ded", states, 2).is_some());
    // Dimension mismatches are filtered out before the guess can misfit.
    assert!(cache.warm_donor("line2/ded", states + 1, 2).is_none());
}

#[test]
fn warm_donor_is_the_earliest_inserted_solved_sibling_in_any_solve_order() {
    // Three same-family siblings inserted in one order, solved in two
    // different orders: once the nominal entry (inserted first) is solved,
    // it is the donor either way.
    let specs = ["line2/ded", "line2/ded@1.02", "line2/ded@0.98"];
    let donors: Vec<f64> = [[2usize, 0, 1], [1, 2, 0]]
        .iter()
        .map(|solve_order| {
            let cache = QuotientCache::new();
            let entries: Vec<_> = specs
                .iter()
                .map(|spec| cache.insert(spec, "line2/ded", quotient_of(spec)).0)
                .collect();
            let states = entries[0].quotient().num_states();
            for &i in solve_order {
                entries[i].set_stationary(Arc::new(vec![i as f64 + 1.0; states]));
            }
            cache.warm_donor("line2/ded", states, u64::MAX).unwrap()[0]
        })
        .collect();
    assert_eq!(donors, [1.0, 1.0], "the nominal entry donates either way");
}

#[test]
fn replies_are_bit_identical_whatever_order_the_siblings_were_solved_in() {
    let last_reply = |order: [&str; 4]| {
        let service = AnalysisService::new(ExecOptions::serial());
        let mut replies: Vec<Response> = order
            .iter()
            .map(|spec| {
                service.handle(&Request::Availability {
                    model: spec.to_string(),
                })
            })
            .collect();
        assert!(replies.iter().all(|reply| matches!(reply, Response::Ok(_))));
        replies.pop()
    };
    assert_eq!(
        last_reply([
            "line2/frf-1",
            "line2/frf-1@1.02",
            "line2/frf-1@0.97",
            "line2/frf-1@1.05"
        ]),
        last_reply([
            "line2/frf-1",
            "line2/frf-1@0.97",
            "line2/frf-1@1.02",
            "line2/frf-1@1.05"
        ])
    );
}
