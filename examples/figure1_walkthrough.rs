//! A narrated walkthrough of the paper's Figure 1 — the two-task example
//! that motivates task-aware scheduling.
//!
//! ```text
//! cargo run --example figure1_walkthrough
//! ```
//!
//! Ends with the figure's self-check, and exits nonzero if any of its
//! exact claims fails.

use brb::lab::figure1::{render_figure1, run_figure1, verify_figure1};
use brb::sched::{PolicyKind, Priority, PriorityPolicy, TaskView};

fn main() {
    println!("== The setup ==\n");
    println!("Client C1 issues task T1 = [A, B, C]; client C2 issues T2 = [D, E].");
    println!("Placement: A,E -> S1;  B,C -> S2;  D -> S3. Every op costs 1 unit.\n");

    println!("== Step 1: clients split tasks into sub-tasks per replica group ==\n");
    let t1 = TaskView {
        arrival_ns: 0,
        request_costs: &[1, 1, 1],
        request_subtask: &[0, 1, 1],
        subtask_costs: &[1, 2],
    };
    let t2 = TaskView {
        arrival_ns: 0,
        request_costs: &[1, 1],
        request_subtask: &[0, 1],
        subtask_costs: &[1, 1],
    };
    println!(
        "T1 sub-tasks: {{A}} cost 1 on S1, {{B,C}} cost 2 on S2 -> bottleneck = {}",
        t1.bottleneck_cost()
    );
    println!(
        "T2 sub-tasks: {{D}} cost 1 on S3, {{E}} cost 1 on S1 -> bottleneck = {}\n",
        t2.bottleneck_cost()
    );

    println!("== Step 2: priority assignment ==\n");
    for (name, policy) in [
        ("EqualMax", PolicyKind::EqualMax),
        ("UnifIncr", PolicyKind::UnifIncr),
    ] {
        let p1: Vec<Priority> = policy.assign(&t1);
        let p2: Vec<Priority> = policy.assign(&t2);
        println!(
            "{name}: T1 A/B/C -> {}/{}/{};  T2 D/E -> {}/{}  (lower serves first)",
            p1[0], p1[1], p1[2], p2[0], p2[1]
        );
    }
    println!();
    println!("Key observation: A can be delayed one unit without hurting T1 (its");
    println!("bottleneck {{B,C}} takes 2 units anyway), so E should go first on S1.\n");

    println!("== Step 3: the schedules ==\n");
    print!("{}", render_figure1());

    let oblivious = run_figure1(PolicyKind::Fifo);
    let aware = run_figure1(PolicyKind::EqualMax);
    println!(
        "\nOutcome: T2 completes in {} unit(s) task-aware vs {} task-oblivious — \
         a {}x improvement for free.",
        aware.t2_completion,
        oblivious.t2_completion,
        oblivious.t2_completion / aware.t2_completion
    );

    match verify_figure1() {
        Ok(()) => println!("\nSelf-check: PASS (oblivious T2=2, task-aware T2=1, T1=2 in both)"),
        Err(e) => {
            eprintln!("\nSelf-check FAILED: {e}");
            std::process::exit(1);
        }
    }
}
