//! Telemetry timelines: watch queues, cores and client backlogs evolve
//! over a run, per strategy.
//!
//! ```text
//! cargo run --release --example timeline -- [--tasks N] [--out DIR]
//! ```
//!
//! Writes one CSV per Figure 2 strategy (plus a summary to stdout), ready
//! for plotting.

use brb::core::config::Strategy;
use brb::core::engine::EngineWorld;
use brb::lab::registry;
use brb::sim::Simulation;

fn main() {
    let mut num_tasks = 30_000usize;
    let mut out_dir = "results".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tasks" => num_tasks = args.next().unwrap().parse().expect("--tasks N"),
            "--out" => out_dir = args.next().unwrap(),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    println!(
        "{:<24} {:>9} {:>10} {:>12} {:>9}",
        "strategy", "samples", "peak-queue", "peak-backlog", "mean-q/srv"
    );
    for strategy in Strategy::figure2_set() {
        let cfg = registry::builder("figure2-small")
            .expect("registry preset")
            .tasks(num_tasks)
            .telemetry_interval_ns(Some(10_000_000)) // 10 ms
            .build_config(strategy, 1)
            .expect("valid scenario");
        let name = cfg.strategy.name();
        let world = EngineWorld::new(cfg);
        let mut sim = Simulation::new(world);
        EngineWorld::prime(&mut sim);
        sim.run();
        let w = sim.world();
        let slug: String = name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect();
        let path = format!("{out_dir}/timeline_{slug}.csv");
        let file = std::fs::File::create(&path).expect("create csv");
        w.timeline
            .write_csv(std::io::BufWriter::new(file))
            .expect("write csv");
        let means = w.timeline.mean_queue_per_server();
        let mean_q = means.iter().sum::<f64>() / means.len().max(1) as f64;
        println!(
            "{:<24} {:>9} {:>10} {:>12} {:>9.2}   -> {path}",
            name,
            w.timeline.len(),
            w.timeline.peak_queued(),
            w.timeline.peak_held(),
            mean_q
        );
    }
}
