//! Command-line driver regenerating every figure/table of the paper.
//!
//! ```text
//! figures [--fig 9|10|11|12|13] [--ratio] [--online] [--ablations]
//!         [--chaos] [--registry] [--ksweep] [--tiered] [--all]
//!         [--seed N] [--steps N] [--json DIR] [--tsv FILE]
//! ```
//!
//! With no selection flags, `--all` is assumed. `--json DIR` additionally
//! writes each result as a JSON file for provenance (referenced from
//! EXPERIMENTS.md). `--tsv FILE` writes the TSV of the one table sweep
//! selected, `--registry`, `--ksweep` or `--tiered`; with any other
//! number of them selected it is a usage error.

use std::path::PathBuf;

use mcs_experiments::{
    ablations, capacity_exp, chaos_exp, drift_exp, fig09, fig10, fig11, fig12, fig13, multi_exp,
    online_exp, plane_exp, ratio_exp, replication, solver_sweep,
};
use mcs_experiments::{paper_workload, DEFAULT_SEED};

#[derive(Debug)]
struct Args {
    figs: Vec<u32>,
    ratio: bool,
    online: bool,
    ablations: bool,
    chaos: bool,
    registry: bool,
    ksweep: bool,
    tiered: bool,
    seed: u64,
    steps: Option<usize>,
    json: Option<PathBuf>,
    tsv: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        figs: Vec::new(),
        ratio: false,
        online: false,
        ablations: false,
        chaos: false,
        registry: false,
        ksweep: false,
        tiered: false,
        seed: DEFAULT_SEED,
        steps: None,
        json: None,
        tsv: None,
    };
    let mut it = std::env::args().skip(1);
    let mut any = false;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fig" => {
                let v = it.next().ok_or("--fig needs a number")?;
                match v.parse() {
                    Ok(fig @ 9..=13) => args.figs.push(fig),
                    _ => return Err(format!("bad --fig value {v} (the figures are 9-13)")),
                }
                any = true;
            }
            "--ratio" => {
                args.ratio = true;
                any = true;
            }
            "--online" => {
                args.online = true;
                any = true;
            }
            "--ablations" => {
                args.ablations = true;
                any = true;
            }
            "--chaos" => {
                args.chaos = true;
                any = true;
            }
            "--registry" => {
                args.registry = true;
                any = true;
            }
            "--ksweep" => {
                args.ksweep = true;
                any = true;
            }
            "--tiered" => {
                args.tiered = true;
                any = true;
            }
            "--all" => {
                args.figs = vec![9, 10, 11, 12, 13];
                args.ratio = true;
                args.online = true;
                args.ablations = true;
                args.chaos = true;
                args.registry = true;
                args.ksweep = true;
                args.tiered = true;
                any = true;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| "bad --seed value")?;
            }
            "--steps" => {
                let v = it.next().ok_or("--steps needs a value")?;
                args.steps = Some(v.parse().map_err(|_| "bad --steps value")?);
            }
            "--json" => {
                let v = it.next().ok_or("--json needs a directory")?;
                args.json = Some(PathBuf::from(v));
            }
            "--tsv" => {
                let v = it.next().ok_or("--tsv needs a file path")?;
                args.tsv = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                println!(
                    "figures [--fig 9|10|11|12|13] [--ratio] [--online] [--ablations] \
                     [--chaos] [--registry] [--ksweep] [--tiered] [--all] [--seed N] \
                     [--steps N] [--json DIR] [--tsv FILE]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !any {
        args.figs = vec![9, 10, 11, 12, 13];
        args.ratio = true;
        args.online = true;
        args.ablations = true;
        args.chaos = true;
        args.registry = true;
        args.ksweep = true;
        args.tiered = true;
    }
    let tables = [args.registry, args.ksweep, args.tiered];
    if args.tsv.is_some() && tables.iter().filter(|&&on| on).count() != 1 {
        return Err("--tsv needs exactly one of --registry, --ksweep and --tiered".into());
    }
    Ok(args)
}

fn write_tsv(path: &Option<PathBuf>, tsv: String) {
    if let Some(path) = path {
        std::fs::write(path, tsv).expect("write tsv");
        eprintln!("wrote {}", path.display());
    }
}

fn write_json<T: mcs_model::json::ToJson>(dir: &Option<PathBuf>, name: &str, value: &T) {
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).expect("create json dir");
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, value.to_json().to_string_pretty()).expect("write json");
        eprintln!("wrote {}", path.display());
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut config = paper_workload(args.seed);
    if let Some(steps) = args.steps {
        config.steps = steps;
    }
    eprintln!(
        "workload: {} zones, {} taxis, {} steps, seed {}",
        config.grid.zones(),
        config.taxis,
        config.steps,
        args.seed
    );

    for fig in &args.figs {
        match fig {
            9 => {
                let f = fig09::run(&config);
                println!("{}", f.table());
                write_json(&args.json, "fig09", &f);
            }
            10 => {
                let f = fig10::run(&config);
                println!("{}", f.table(10));
                write_json(&args.json, "fig10", &f);
            }
            11 => {
                let f = fig11::run(&config);
                println!("{}", f.table());
                write_json(&args.json, "fig11", &f);
            }
            12 => {
                let f = fig12::run(&config, &fig12::default_rhos());
                println!("{}", f.table());
                println!("peak at rho = {:.2}\n", f.peak_rho());
                write_json(&args.json, "fig12", &f);
            }
            13 => {
                let f = fig13::run(&config);
                println!("{}", f.table());
                write_json(&args.json, "fig13", &f);
            }
            _ => unreachable!("parse_args admits figures 9-13 only"),
        }
    }
    if args.ratio {
        let e = ratio_exp::run(200, args.seed);
        println!("{}", e.table());
        write_json(&args.json, "ratio", &e);
    }
    if args.online {
        let e = online_exp::run(&config);
        println!("{}", e.table());
        println!("{}", e.dpg_table());
        write_json(&args.json, "online", &e);
    }
    if args.ablations {
        let a = ablations::run(&config);
        for t in a.tables() {
            println!("{t}");
        }
        write_json(&args.json, "ablations", &a);

        let r = replication::run(&config);
        println!("{}", r.table());
        write_json(&args.json, "replication", &r);

        let m = multi_exp::run(args.seed);
        println!("{}", m.table());
        write_json(&args.json, "multi_item", &m);

        let d = drift_exp::run(args.seed);
        println!("{}", d.table());
        write_json(&args.json, "drift", &d);

        let cap = capacity_exp::run(&config);
        println!("{}", cap.table());
        write_json(&args.json, "capacity", &cap);
    }
    if args.chaos {
        let c = chaos_exp::run(&config, args.seed);
        println!("{}", c.table());
        println!("worst degradation ratio: {:.4}\n", c.worst_ratio());
        write_json(&args.json, "chaos", &c);
    }
    if args.registry {
        // The paper-example sweep the CI registry-smoke job pins: every
        // registered solver, `ave_cost` at 6 decimals.
        let s = solver_sweep::paper_example();
        println!("{}", s.table());
        write_tsv(&args.tsv, s.to_tsv());
    }
    if args.ksweep {
        // The fig12 K-sweep: dp_greedy over K ∈ {2,3,4,8} + adaptive on
        // two bundle densities. Fully deterministic, so both the JSON
        // provenance artefact and the TSV are reproducible.
        let steps = args.steps.unwrap_or(600);
        let k = solver_sweep::k_sweep(steps, args.seed);
        println!("{}", k.table());
        write_json(&args.json, "ksweep", &k);
        write_tsv(&args.tsv, k.to_tsv());
    }
    if args.tiered {
        // The cost-plane sweep: hetero μ-spread and tiered L1-capacity
        // planes vs their homogeneous projections. Deterministic, so
        // both the JSON provenance artefact and the TSV are
        // reproducible (`results/tiered_sweep.tsv`).
        let steps = args.steps.unwrap_or(400);
        let p = plane_exp::run(steps, args.seed);
        println!("{}", p.table());
        write_json(&args.json, "tiered", &p);
        write_tsv(&args.tsv, p.to_tsv());
    }
}
