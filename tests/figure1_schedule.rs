//! Integration test pinning the paper's Figure 1 worked example.

use brb::lab::figure1::{run_figure1, verify_figure1};
use brb::sched::PolicyKind;

#[test]
fn figure1_reproduces_exactly() {
    verify_figure1().expect("figure 1 claims");
}

#[test]
fn task_oblivious_delays_t2() {
    let o = run_figure1(PolicyKind::Fifo);
    assert_eq!((o.t1_completion, o.t2_completion), (2, 2));
}

#[test]
fn both_brb_policies_find_the_optimal_schedule() {
    for policy in [PolicyKind::EqualMax, PolicyKind::UnifIncr] {
        let o = run_figure1(policy);
        assert_eq!(
            (o.t1_completion, o.t2_completion),
            (2, 1),
            "{policy:?} must reach the paper's optimum"
        );
    }
}

#[test]
fn sjf_alone_also_solves_figure1_but_for_a_different_reason() {
    // Per-request SJF ties everything (all ops cost 1) and falls back to
    // FIFO insertion order — demonstrating that *task* structure, not
    // request cost, is what saves T2 here.
    let o = run_figure1(PolicyKind::Sjf);
    assert_eq!(o.t2_completion, 2, "size-only SJF cannot exploit slack");
}
