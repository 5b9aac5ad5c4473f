//! The paper-scale playlist catalog (1M tracks, 100k playlists): its
//! heap footprint and the exact trace it yields. Too slow for a debug
//! `cargo test`, so ignored there; run it with
//! `cargo test --release -p brb-workload -- --ignored`.

use brb_sim::RngFactory;
use brb_workload::soundcloud::{PlaylistCatalog, PlaylistTables, SoundCloudConfig};
use brb_workload::{task_rate_for_load, FanoutDist, TaskSpec};

/// FNV-1a over every task's id, arrival, fan-out and requests, as
/// little-endian words.
fn digest(tasks: &[TaskSpec]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for t in tasks {
        word(t.id);
        word(t.arrival_ns);
        word(t.requests.len() as u64);
        for r in &t.requests {
            word(r.key);
            word(r.value_bytes);
        }
    }
    h
}

/// The 2000-task draw below, as the materialized catalog it replaced
/// produced it: ranks and draw-time sizes must not move a byte.
const DRAW_2K_DIGEST: u64 = 0x2CD2_8391_1F33_E9E1;

#[test]
#[ignore = "paper scale: ~0.1 s in release, seconds in debug"]
fn paper_catalog_is_four_bytes_per_membership_and_draws_exactly() {
    let config = SoundCloudConfig {
        num_tracks: 1_000_000,
        num_playlists: 100_000,
        playlist_zipf: 0.8,
        ..Default::default()
    };
    let factory = RngFactory::new(1);
    let tables = PlaylistTables::new(&config);
    let catalog = PlaylistCatalog::build(&tables, &mut factory.stream("catalog"));

    // Per seed: 4 bytes per membership and per playlist boundary.
    let memberships = catalog.memberships();
    assert!(
        (800_000..920_000).contains(&memberships),
        "{memberships} memberships"
    );
    let bound = 4 * memberships + 4 * (catalog.num_playlists() + 1);
    assert!(
        catalog.heap_bytes() <= bound,
        "catalog holds {} B, bound {bound} B",
        catalog.heap_bytes()
    );
    // Shared by every seed: 12 bytes per track rank and per playlist.
    let table_bound = 12 * (1_000_000 + 100_000);
    assert!(
        tables.heap_bytes() <= table_bound,
        "tables hold {} B, bound {table_bound} B",
        tables.heap_bytes()
    );

    let rate = task_rate_for_load(0.7, 126_000.0, FanoutDist::soundcloud_like().mean());
    let trace = catalog.generate_trace(
        &tables,
        &config.sizes,
        2_000,
        rate,
        &mut factory.stream("workload"),
    );
    assert_eq!(digest(&trace.tasks), DRAW_2K_DIGEST);
}
