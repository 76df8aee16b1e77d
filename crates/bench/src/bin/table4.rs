//! Table IV: attacks found across 17 cache / attacker-victim configs.
//!
//! The row configurations live in the `autocat-scenario` registry
//! (`autocat_scenario::table4`); this harness only adds budgets and the
//! table formatting.

use autocat_bench::{print_header, Budget};

fn main() {
    let budget = Budget::from_env();
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();
    let rows: Vec<usize> = if !args.is_empty() {
        args
    } else if budget == Budget::Full {
        (1..=17).collect()
    } else {
        vec![1, 3, 5, 6, 7, 11]
    };
    print_header(
        "Table IV: attacks found per configuration (pass row numbers as args; default quick subset)",
        "No | Expected       | Found    | Acc.  | Sequence",
    );
    for no in rows {
        let Some(mut scenario) = autocat_scenario::table4(no) else {
            eprintln!("unknown config {no}");
            continue;
        };
        // The registry's TrainSpec is the source of truth for the recipe;
        // the budget only caps steps and lanes.
        scenario.train.max_steps = budget.max_steps();
        scenario.train.ppo.num_lanes = budget.lanes();
        let row = scenario.run().expect("valid table-4 config");
        println!(
            "{:>2} | {:<14} | {:<8} | {:.3} | {}{}",
            no,
            scenario.summary,
            row.category,
            row.accuracy(),
            row.sequence,
            if row.converged {
                ""
            } else {
                "  [not converged]"
            },
        );
    }
}
