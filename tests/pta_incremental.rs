//! Incremental extension equals a fresh solve: hints added to the solved
//! baseline (`Pta::new → solve → extend`) give exactly what hints added
//! before any solve give (`Pta::new → extend`) — the same call graph,
//! the same solver statistics, the same number of applied hints — under
//! every hint configuration, over the whole population and over random
//! generator configurations.
//!
//! Both orders run the same code. The one rule that is not a plain added
//! fact is the `require` model, which reads module hints when `require`
//! first reaches a site; `plugin-host` and `i18n-app` are the population
//! projects whose results depend on re-wiring those sites.

use aji_approx::{approximate_interpret_parsed, ApproxOptions, Hints};
use aji_ast::Project;
use aji_corpus::GenConfig;
use aji_pta::{Analysis, AnalysisOptions, Pta};
use aji_support::check::{property, TestCase};

fn configs() -> [(&'static str, AnalysisOptions); 3] {
    [
        ("extended", AnalysisOptions::extended()),
        ("nonrelational", AnalysisOptions::nonrelational()),
        ("with_proxy_reads", AnalysisOptions::with_proxy_reads()),
    ]
}

fn hints_of(project: &Project, parsed: &aji_parser::ParsedProject) -> Hints {
    approximate_interpret_parsed(project, parsed, &ApproxOptions::default()).hints
}

/// Where the two orders first disagree, if they do.
fn mismatch(fresh: &Analysis, incremental: &Analysis) -> Option<String> {
    let (a, b) = (&fresh.call_graph, &incremental.call_graph);
    if a.edges != b.edges {
        return Some(format!("edges {} vs {}", a.edges.len(), b.edges.len()));
    }
    if a.site_targets != b.site_targets {
        return Some("site targets".into());
    }
    if a.reachable_functions != b.reachable_functions {
        return Some("reachable functions".into());
    }
    if a.reachable_modules != b.reachable_modules {
        return Some("reachable modules".into());
    }
    if a.all_functions != b.all_functions {
        return Some("function tables".into());
    }
    if fresh.solver_stats != incremental.solver_stats {
        return Some(format!(
            "solver stats {:?} vs {:?}",
            fresh.solver_stats, incremental.solver_stats
        ));
    }
    if fresh.hints_applied != incremental.hints_applied {
        return Some(format!(
            "hints applied {} vs {}",
            fresh.hints_applied, incremental.hints_applied
        ));
    }
    None
}

/// Every configuration's mismatch on one project, as `"project/config:
/// what"` lines.
fn mismatches(project: &Project) -> Vec<String> {
    let parsed = aji_parser::parse_project(project).expect("project parses");
    let hints = hints_of(project, &parsed);
    let mut solved = Pta::new(project, &parsed);
    solved.solve();
    configs()
        .iter()
        .filter_map(|(name, opts)| {
            let fresh = Pta::new(project, &parsed).extend(&hints, opts);
            let incremental = solved.clone().extend(&hints, opts);
            mismatch(&fresh, &incremental).map(|m| format!("{}/{name}: {m}", project.name))
        })
        .collect()
}

#[test]
fn extending_the_solved_baseline_matches_a_fresh_solve_on_the_population() {
    let population = aji_corpus::full_population();
    assert_eq!(population.len(), 141);
    let bad: Vec<String> = population.iter().flat_map(mismatches).collect();
    assert!(
        bad.is_empty(),
        "incremental extension diverged:\n{}",
        bad.join("\n")
    );
}

/// The two projects whose module hints name `require` sites the baseline
/// already resolved: without re-wiring them, the extension misses the
/// hinted modules.
#[test]
fn late_module_hints_rewire_resolved_require_sites() {
    let population = aji_corpus::full_population();
    for name in ["plugin-host", "i18n-app"] {
        let project = population
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("{name} is in the population"));
        let parsed = aji_parser::parse_project(project).unwrap();
        let hints = hints_of(project, &parsed);
        assert!(!hints.modules.is_empty(), "{name} has module hints");
        assert_eq!(mismatches(project), Vec::<String>::new());

        // The module hints matter here: without them the extension
        // reaches a smaller fixpoint.
        let mut solved = Pta::new(project, &parsed);
        solved.solve();
        let without = AnalysisOptions {
            use_module_hints: false,
            ..AnalysisOptions::extended()
        };
        let partial = solved.clone().extend(&hints, &without);
        let full = solved.extend(&hints, &AnalysisOptions::extended());
        assert!(
            full.solver_stats.propagations > partial.solver_stats.propagations,
            "{name}: module hints add points-to facts"
        );
    }
}

fn config(tc: &mut TestCase) -> GenConfig {
    let seed = tc.int_in(0u64..1_000_000);
    GenConfig {
        name: format!("incremental-{seed}"),
        seed,
        libs: tc.int_in(1usize..4),
        methods_per_lib: tc.int_in(2usize..8),
        dynamic_fraction: tc.int_in(0u8..11) as f64 / 10.0,
        app_modules: tc.int_in(1usize..4),
        calls_per_module: tc.int_in(1usize..5),
        use_mixin: tc.bool(),
        use_emitter: tc.bool(),
        driver_coverage: tc.int_in(0u8..11) as f64 / 10.0,
        vulns: 1,
        hard_dispatch_fraction: tc.int_in(0u8..6) as f64 / 10.0,
        computed_writes: tc.int_in(0usize..3),
        accessor_methods: tc.int_in(0usize..3),
        typo_injections: tc.int_in(0usize..2),
    }
}

#[test]
fn extending_the_solved_baseline_matches_a_fresh_solve_on_generated_projects() {
    property("extending_the_solved_baseline_matches_a_fresh_solve_on_generated_projects")
        .cases(24)
        .run(|tc| {
            let project = aji_corpus::generate(&config(tc));
            let bad = mismatches(&project);
            if bad.is_empty() {
                Ok(())
            } else {
                Err(bad.join("; "))
            }
        });
}
