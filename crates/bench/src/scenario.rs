//! The experiment registry: one `const` table, in DESIGN.md's
//! experiment-index order.
//!
//! Adding an experiment means writing its function in
//! [`crate::experiments`] and adding one entry to [`REGISTRY`] — no CLI
//! wiring, no files beside the sources.

use crate::experiments::{self as exp, ExpConfig, Output};

/// A registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Stable id `dp-bench run` takes (e.g. `"spsc"`).
    pub id: &'static str,
    /// The experiment number in DESIGN.md's index (e.g. `"E15"`).
    pub exp: &'static str,
    /// One-line human description.
    pub title: &'static str,
    /// Workload scale of a full run.
    pub scale: f64,
    /// Workload scale under `--quick`.
    pub quick_scale: f64,
    /// The measurement function.
    pub run: fn(&ExpConfig) -> Output,
}

impl Scenario {
    /// The configuration this scenario runs under in full or quick mode.
    pub fn config(&self, quick: bool) -> ExpConfig {
        ExpConfig { scale: if quick { self.quick_scale } else { self.scale }, quick }
    }
}

/// Every registered scenario, in experiment order.
pub const REGISTRY: &[Scenario] = &[
    Scenario {
        id: "table1",
        exp: "E1",
        title: "Table I: dependence FPR/FNR vs signature size",
        scale: 0.25,
        quick_scale: 0.02,
        run: exp::table1,
    },
    Scenario {
        id: "formula2",
        exp: "E2",
        title: "Formula 2: predicted vs measured accuracy over load factor",
        scale: 0.25,
        quick_scale: 0.02,
        run: exp::formula2,
    },
    Scenario {
        id: "fig5",
        exp: "E3",
        title: "Figure 5: profiling slowdown, sequential targets",
        scale: 0.25,
        quick_scale: 0.02,
        run: exp::fig5,
    },
    Scenario {
        id: "fig6",
        exp: "E4",
        title: "Figure 6: profiling slowdown, parallel Starbench",
        scale: 0.25,
        quick_scale: 0.02,
        run: exp::fig6,
    },
    Scenario {
        id: "fig7",
        exp: "E5",
        title: "Figure 7: profiler memory, sequential targets",
        scale: 0.25,
        quick_scale: 0.02,
        run: exp::fig7,
    },
    Scenario {
        id: "fig8",
        exp: "E6",
        title: "Figure 8: profiler memory, parallel targets",
        scale: 0.25,
        quick_scale: 0.02,
        run: exp::fig8,
    },
    Scenario {
        id: "table2",
        exp: "E7",
        title: "Table II: parallelizable-loop detection in NAS",
        scale: 0.25,
        quick_scale: 0.02,
        run: exp::table2,
    },
    Scenario {
        id: "fig9",
        exp: "E8",
        title: "Figure 9: communication pattern of water-spatial",
        scale: 0.25,
        quick_scale: 0.02,
        run: exp::fig9,
    },
    Scenario {
        id: "comm-suite",
        exp: "E8b",
        title: "Communication topologies: ring/grid/all-to-all/broadcast",
        scale: 0.25,
        quick_scale: 0.02,
        run: exp::comm_suite,
    },
    Scenario {
        id: "merge",
        exp: "E9",
        title: "Output-size reduction by merging identical dependences",
        scale: 0.25,
        quick_scale: 0.02,
        run: exp::merge,
    },
    Scenario {
        id: "ablate-hash",
        exp: "E10",
        title: "Store ablation: signature vs hash table vs shadow memory",
        scale: 0.25,
        quick_scale: 0.02,
        run: exp::ablate_hash,
    },
    Scenario {
        id: "races",
        exp: "E12",
        title: "Race detection: timestamp reversals, racy vs locked",
        scale: 0.25,
        quick_scale: 0.02,
        run: exp::races,
    },
    Scenario {
        id: "ablate-chunk",
        exp: "E13a",
        title: "Chunk-size sweep",
        scale: 0.25,
        quick_scale: 0.02,
        run: exp::ablate_chunk,
    },
    Scenario {
        id: "ablate-redist",
        exp: "E13b",
        title: "Redistribution on/off on a skewed workload",
        scale: 0.25,
        quick_scale: 0.02,
        run: exp::ablate_redist,
    },
    Scenario {
        id: "ablate-slots",
        exp: "E13c",
        title: "Compact vs epoch vs extended slot layout",
        scale: 0.25,
        quick_scale: 0.02,
        run: exp::ablate_slots,
    },
    Scenario {
        id: "ablate-sections",
        exp: "E13d",
        title: "Set-based (section-level) profiling ablation",
        scale: 0.25,
        quick_scale: 0.02,
        run: exp::ablate_sections,
    },
    Scenario {
        id: "ablate-sd3",
        exp: "E14",
        title: "Signature vs SD3-style stride compression",
        scale: 0.25,
        quick_scale: 0.02,
        run: exp::ablate_sd3,
    },
    Scenario {
        id: "spsc",
        exp: "E15",
        title: "SPSC vs MPMC vs lock-based transport comparison",
        scale: 0.25,
        quick_scale: 0.03,
        run: exp::spsc,
    },
    Scenario {
        id: "chaos",
        exp: "E18",
        title: "Chaos goodput: retry/resume client vs seeded network faults",
        scale: 0.25,
        quick_scale: 0.05,
        run: exp::chaos_goodput,
    },
];

/// Looks up a scenario by id.
pub fn find(id: &str) -> Option<&'static Scenario> {
    REGISTRY.iter().find(|s| s.id == id)
}
