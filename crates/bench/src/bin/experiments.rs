//! Experiment runner: regenerates the EXPERIMENTS.md tables.
//!
//! Usage:
//!   experiments           # list experiments
//!   experiments all       # run everything
//!   experiments e5 e11    # run specific experiments

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        println!("InteGrade experiment harness. Available experiments:\n");
        for (id, description, _) in integrade_bench::experiments() {
            println!("  {id:<5} {description}");
        }
        println!("\nUsage: experiments <id>... | all");
        return;
    }
    let ids: Vec<String> = if args.len() == 1 && args[0] == "all" {
        integrade_bench::experiments()
            .into_iter()
            .map(|(id, _, _)| id.to_owned())
            .collect()
    } else {
        args
    };
    if let Err(unknown) = integrade_bench::run_ids(&ids, |table| println!("{table}")) {
        for id in unknown {
            eprintln!("unknown experiment '{id}' (run with no args to list)");
        }
        std::process::exit(1);
    }
}
