//! Driving the wire runtime: build an MST fully distributively, then
//! verify it in one round — on a perfect link, under message delays,
//! and over a lossy link with retransmission.
//!
//! ```text
//! cargo run --release --example distributed_protocols
//! ```
//!
//! Everything here runs as per-node state machines exchanging
//! serialized frames: no step consults global state. Time is counted in
//! causal rounds — a frame's depth is one more than the deepest frame
//! its sender had received — so construction and verification are
//! measured on one clock.

use mst_verification::core::{MstScheme, ProofLabelingScheme};
use mst_verification::graph::{gen, ConfigGraph};
use mst_verification::net::{
    replay, run_compute, run_verification, Engine, FaultProfile, LossyLink, MstWireScheme,
    NetConfig, PerfectLink,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(314);
    let g = gen::random_connected(24, 40, gen::WeightDist::Uniform { max: 300 }, &mut rng);
    println!(
        "network: {} nodes, {} links\n",
        g.num_nodes(),
        g.num_edges()
    );

    // Phase 1: GHS builds the tree, the distributed marker labels it,
    // and every node verifies what was built.
    let built = run_compute(
        &g,
        &mut PerfectLink,
        NetConfig::default(),
        Engine::default(),
    )
    .expect("a perfect link converges");
    let phases = built.net.phases;
    println!("distributed construction (no centralized step):");
    println!("  tree built: {} edges", built.mst_edges.len());
    println!("  GHS:    {}", phases.ghs);
    println!("  marker: {}", phases.marker);
    println!("  verify: {}", phases.verify);
    println!(
        "  π_mst labels: ≤ {} bits/node\n",
        built.labeling.max_label_bits()
    );

    // Phase 2: verification of the built labels on their own — one round.
    let cfg = ConfigGraph::new(g.clone(), built.states.clone()).expect("one state per node");
    let labeling = built.labeling;
    let wire = MstWireScheme::for_config(&cfg);
    let run = |link: &mut dyn mst_verification::net::Link| {
        run_verification(&wire, &cfg, &labeling, link, NetConfig::default())
            .expect("fair links converge")
    };
    let perfect = run(&mut PerfectLink);
    println!(
        "one-round verification (perfect link): {}; cost: {}",
        perfect.verdict, perfect.cost
    );

    // Phase 3: the same protocol with every frame held back at random.
    let delays = FaultProfile {
        max_delay: 50,
        ..FaultProfile::default()
    };
    let delayed = run(&mut LossyLink::new(delays, 7));
    println!(
        "same protocol, delays ≤ 50 steps:      {}; cost: {}",
        delayed.verdict, delayed.cost
    );
    assert_eq!(delayed.cost, perfect.cost, "delays move no count");

    // Phase 4: a lossy link forces retransmissions, and the event log
    // replays the run exactly.
    let lossy_profile = FaultProfile {
        drop: 0.2,
        duplicate: 0.05,
        max_delay: 3,
        ..FaultProfile::default()
    };
    let lossy = run(&mut LossyLink::new(lossy_profile, 11));
    println!(
        "same protocol, 20% drops:               {}; cost: {}",
        lossy.verdict, lossy.cost
    );
    let again = replay(&wire, &cfg, &labeling, &lossy.log).expect("the log replays");
    assert_eq!((again.verdict, again.cost), (lossy.verdict, lossy.cost));

    // Cross-check against the offline verifier.
    let offline = MstScheme::new().verify_all(&cfg, &labeling);
    assert_eq!(offline, perfect.verdict);
    println!("\nevery wire run agrees with the offline verifier: {offline}");
}
