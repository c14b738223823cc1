//! Dispatch-elimination check for the dycore execution graph.
//!
//! The dace-mini dycore frozen into an `ExecGraph` replays its certified
//! pipeline as one dispatch (the CPU analog of the paper's CUDA graphs,
//! §5.1). The static cost model predicts the dispatched-task counts of
//! the eager and replayed runs, and this test pins that prediction to the
//! measured `ExecStats` exactly.

/// Cost-model acceptance: `predict_dispatch` must match the recorded
/// dycore graph's measured `ExecStats` *exactly* — eager dispatches,
/// replay dispatches, and therefore dispatched-tasks-eliminated.
#[test]
fn dycore_dispatch_prediction_matches_measured_exec_stats_exactly() {
    use dace_mini::{cost, exec, suite, transforms, ExecGraph, Sdfg};

    let prog = suite::dycore_program();
    let sdfg = Sdfg::from_program("dycore", &prog);
    let (opt, report, hoist) =
        transforms::gh200_certified_pipeline(&sdfg, &suite::suite_context());
    assert!(report.is_clean(), "{:?}", report.errors().collect::<Vec<_>>());

    let topo = suite::synthetic_topology(96);
    let mut data = suite::synthetic_data(&topo, 4, 21);
    let mut ex = exec::compile_certified(&opt, &report);
    ex.elide_transient_stores(&hoist.transient_names());
    let (mut graph, eager) = ExecGraph::record_compiled("dycore", ex, &report, &topo, &mut data);

    let sizes = cost::DomainSizes::new(4)
        .with("cells", topo.domain_size("cells"))
        .with("edges", topo.domain_size("edges"));
    let pred = cost::predict_dispatch(&opt, &report, &sizes);
    assert_eq!(pred.eager, eager.dispatched_tasks, "eager dispatch prediction exact");

    for w in 0..3 {
        let replay = graph.replay(&topo, &mut data).expect("shapes unchanged");
        assert_eq!(
            pred.replay, replay.dispatched_tasks,
            "replay dispatch prediction exact (window {w})"
        );
        assert_eq!(
            pred.eliminated(),
            eager.dispatched_tasks - replay.dispatched_tasks,
            "dispatched-tasks-eliminated prediction exact (window {w})"
        );
    }
    assert!(pred.eliminated() > 0, "the frozen dycore must eliminate dispatches");
    assert!(graph.n_frozen() > 0);
}
