//! Diameter approximation survey (Theorems 5.3 and 5.4): runs the
//! 2-approximation and the nearly-3/2-approximation on several graph
//! families and compares estimates, guarantees, and energy.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example diameter_survey
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use radio_energy::bfs::diameter::{three_halves_approx_diameter, two_approx_diameter};
use radio_energy::bfs::metrics::format_table;
use radio_energy::bfs::RecursiveBfsConfig;
use radio_energy::graph::diameter::{exact_diameter, satisfies_theorem_5_4_bound};
use radio_energy::graph::{generators, Graph};
use radio_energy::protocols::StackBuilder;

fn families() -> Vec<(String, Graph)> {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let mut out: Vec<(String, Graph)> = vec![
        ("path(80)".into(), generators::path(80)),
        ("cycle(64)".into(), generators::cycle(64)),
        ("grid(9x9)".into(), generators::grid(9, 9)),
        ("lollipop(10,20)".into(), generators::lollipop(10, 20)),
        ("barbell(8,14)".into(), generators::barbell(8, 14)),
        (
            "tree(k=2,levels=6)".into(),
            generators::complete_k_ary_tree(2, 6),
        ),
    ];
    if let Some(g) = generators::connected_gnp(90, 0.06, 200, &mut rng) {
        out.push(("gnp(90, 0.06)".into(), g));
    }
    out
}

fn main() {
    let config = RecursiveBfsConfig {
        inv_beta: 8,
        max_depth: 1,
        seed: 5,
    };

    let mut rows = Vec::new();
    for (name, g) in families() {
        let diam = exact_diameter(&g).expect("families are connected") as u64;

        let mut net2 = StackBuilder::new(g.clone()).build();
        let est2 = two_approx_diameter(&mut net2, &config);

        let mut net32 = StackBuilder::new(g.clone()).build();
        let est32 = three_halves_approx_diameter(&mut net32, &config, 77);

        rows.push(vec![
            name,
            diam.to_string(),
            format!(
                "{} ({})",
                est2.estimate,
                if 2 * est2.estimate >= diam && est2.estimate <= diam {
                    "ok"
                } else {
                    "VIOLATED"
                }
            ),
            est2.energy.max_lb_energy().to_string(),
            format!(
                "{} ({})",
                est32.estimate,
                if satisfies_theorem_5_4_bound(diam as u32, est32.estimate as u32) {
                    "ok"
                } else {
                    "VIOLATED"
                }
            ),
            est32.energy.max_lb_energy().to_string(),
            est32.bfs_count.to_string(),
        ]);
    }

    println!(
        "{}",
        format_table(
            &[
                "graph",
                "diam",
                "2-approx (Thm 5.3)",
                "energy",
                "3/2-approx (Thm 5.4)",
                "energy",
                "#BFS",
            ],
            &rows
        )
    );
    println!(
        "Guarantees checked per row: 2-approx must land in [diam/2, diam]; the 3/2-approx must \
         land in [⌊2·diam/3⌋, diam]. The 3/2-approximation pays ~√n-many BFS computations for \
         its sharper answer, the Theorem 5.3/5.4 energy trade-off."
    );
}
