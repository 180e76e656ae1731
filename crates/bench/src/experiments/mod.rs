//! One module per paper table/figure. Every experiment returns its results
//! as [`Row`]s and prints nothing; the `repro` binary maps experiment names
//! to these functions, prints the rows and writes the ledger.

pub mod disruptions;
pub mod fig4a;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table2;

use crate::harness::ExperimentContext;
use crate::ledger::Row;

/// An experiment of the paper's evaluation that the harness can regenerate.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// The name used on the `repro` command line.
    pub name: &'static str,
    /// What part of the paper it reproduces.
    pub description: &'static str,
    /// The function that runs it; its rows leave `experiment` empty.
    pub run: fn(&ExperimentContext) -> Vec<Row>,
}

impl Experiment {
    /// Runs the experiment and names it on each of its rows.
    pub fn rows(&self, ctx: &ExperimentContext) -> Vec<Row> {
        let mut rows = (self.run)(ctx);
        for row in &mut rows {
            row.experiment = self.name;
        }
        rows
    }
}

/// The registry of all experiments, in paper order.
pub const ALL: &[Experiment] = &[
    Experiment {
        name: "table2",
        description: "Table II: dataset summary of the synthetic city presets (volumes ≈1/50 of \
                      the paper's; proportions and prep-time means match it)",
        run: table2::run,
    },
    Experiment {
        name: "fig4a",
        description: "Fig. 4(a): CDF of percentile ranks of vehicles assigned by KM",
        run: fig4a::run,
    },
    Experiment {
        name: "fig6a",
        description: "Fig. 6(a): order-to-vehicle ratio per hourly timeslot",
        run: fig6::fig6a,
    },
    Experiment {
        name: "fig6b",
        description: "Fig. 6(b): XDT of FoodMatch vs the Reyes-style baseline",
        run: fig6::fig6b,
    },
    Experiment {
        name: "fig6cde",
        description: "Fig. 6(c-e): XDT, Orders/Km and Waiting Time vs Greedy",
        run: fig6::fig6cde,
    },
    Experiment {
        name: "fig6fgh",
        description: "Fig. 6(f-h): overflown windows (all/peak) and running time",
        run: fig6::fig6fgh,
    },
    Experiment {
        name: "fig6ijk",
        description: "Fig. 6(i-k): improvement over KM per timeslot (XDT, O/Km, WT)",
        run: fig6::fig6ijk,
    },
    Experiment {
        name: "fig7a",
        description: "Fig. 7(a): ablation of B&R, BFS sparsification and angular distance",
        run: fig7::fig7a,
    },
    Experiment {
        name: "fig7bcde",
        description: "Fig. 7(b-e): impact of the number of vehicles (XDT, O/Km, WT, rejections)",
        run: fig7::fig7bcde,
    },
    Experiment {
        name: "fig8eta",
        description: "Fig. 8(a-c): impact of the batching threshold eta",
        run: fig8::fig8_eta,
    },
    Experiment {
        name: "fig8delta",
        description: "Fig. 8(d-g): impact of the accumulation window Delta",
        run: fig8::fig8_delta,
    },
    Experiment {
        name: "fig8k",
        description: "Fig. 8(h-k): impact of the vehicle degree cap k",
        run: fig8::fig8_k,
    },
    Experiment {
        name: "fig9",
        description: "Fig. 9(a-d): impact of the angular weight gamma",
        run: fig9::run,
    },
    Experiment {
        name: "disruptions",
        description: "Dynamic events: policies under calm vs rainy/incident-heavy days",
        run: disruptions::run,
    },
];

/// Looks an experiment up by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.name.eq_ignore_ascii_case(name))
}

/// The names every registered experiment must carry, in paper order — the
/// single source of truth for the registry-coverage tests here and in the
/// workspace-level smoke suite.
pub const EXPECTED_NAMES: [&str; 14] = [
    "table2",
    "fig4a",
    "fig6a",
    "fig6b",
    "fig6cde",
    "fig6fgh",
    "fig6ijk",
    "fig7a",
    "fig7bcde",
    "fig8eta",
    "fig8delta",
    "fig8k",
    "fig9",
    "disruptions",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_table_and_figure() {
        let names: Vec<&str> = ALL.iter().map(|e| e.name).collect();
        for expected in EXPECTED_NAMES {
            assert!(names.contains(&expected), "missing experiment {expected}");
        }
    }

    #[test]
    fn quick_rows_are_finite_and_keyed_once() {
        let ctx = ExperimentContext { quick: true, ..Default::default() };
        for name in ["table2", "fig6a"] {
            let rows = find(name).expect("registered").rows(&ctx);
            assert!(!rows.is_empty(), "{name} returned no rows");
            let mut keys = std::collections::HashSet::new();
            for row in &rows {
                assert_eq!(row.experiment, name);
                assert!(row.value.is_finite(), "{row:?}");
                assert!(keys.insert((row.city, row.series.clone(), row.metric)), "{row:?} twice");
            }
        }
    }

    #[test]
    fn find_is_case_insensitive() {
        assert!(find("TABLE2").is_some());
        assert!(find("Fig6a").is_some());
        assert!(find("nope").is_none());
    }
}
