//! A self-stabilizing sensor backbone.
//!
//! ```text
//! cargo run --release --example self_stabilizing_network
//! ```
//!
//! Scenario: a sensor field maintains a minimum-energy communication
//! backbone (an MST over link costs). Radio conditions drift — link costs
//! change, node memories get corrupted. Every maintenance cycle the
//! network runs the paper's one-round verification over a lossy radio
//! link; only when some sensor rejects does the (expensive) distributed
//! recomputation run, on the same link. Both are counted in causal
//! rounds, so the log shows how rarely the expensive path is taken and
//! what each path costs on one clock.

use mst_verification::core::faults;
use mst_verification::graph::gen;
use mst_verification::net::{FaultProfile, LossyLink, NetConfig, NetSelfStab, NetStabOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(77);
    let field = gen::grid(8, 10, gen::WeightDist::Uniform { max: 500 }, &mut rng);
    println!(
        "sensor field: {} nodes in an 8×10 grid, {} radio links",
        field.num_nodes(),
        field.num_edges()
    );
    let mut net = NetSelfStab::new(field).expect("a grid is connected");
    println!(
        "backbone bootstrapped; proof labels ≤ {} bits per sensor\n",
        net.labeling().max_label_bits()
    );
    let radio = FaultProfile {
        drop: 0.05,
        duplicate: 0.02,
        max_delay: 2,
        ..FaultProfile::default()
    };

    let mut verify_msgs = 0u64;
    let mut rebuild_msgs = 0u64;
    let mut rebuilds = 0usize;
    for cycle in 1..=12u64 {
        // Roughly every third cycle, the environment interferes.
        let interference = cycle % 3 == 0;
        if interference {
            let applied = if rng.gen_bool(0.5) {
                faults::break_minimality(net.config_mut(), &mut rng)
            } else {
                faults::raise_tree_weight(net.config_mut(), &mut rng)
            };
            if let Some(f) = applied {
                println!("cycle {cycle:2}: interference! {f:?}");
            }
        }
        let mut link = LossyLink::new(radio, cycle);
        match net
            .cycle(&mut link, NetConfig::default())
            .expect("a fair-lossy link converges")
        {
            NetStabOutcome::Clean { verify } => {
                verify_msgs += verify.cost.msgs;
                println!("cycle {cycle:2}: verified clean ({})", verify.cost);
            }
            NetStabOutcome::Recovered {
                detectors,
                verify,
                recompute_cost,
            } => {
                verify_msgs += verify.cost.msgs;
                rebuild_msgs += recompute_cost.msgs;
                rebuilds += 1;
                println!(
                    "cycle {cycle:2}: ALARM at {} sensor(s) {:?} after {} round(s) → rebuilt backbone ({recompute_cost})",
                    detectors.len(),
                    &detectors[..detectors.len().min(4)],
                    verify.cost.rounds,
                );
            }
        }
        assert!(net.invariant_holds(), "backbone must always stabilize");
    }

    println!("\nover 12 cycles: {rebuilds} rebuilds");
    println!("verification traffic: {verify_msgs} messages (cheap, every cycle)");
    println!("rebuild traffic:      {rebuild_msgs} messages (expensive, only on faults)");
}
