//! `dpg chaos` — fault-injection smoke run over the synthetic workload.
//!
//! Plans a DP_Greedy fleet through the engine registry, injects a seeded
//! `FaultPlan` (`mcs_model::fault`), replays every explicit schedule
//! through the degraded engine ([`mcs_sim::chaos_solution`]) and reports
//! the degradation ratio plus recovery metrics. Deterministic for a fixed
//! `--seed`. The full fault-rate × θ × α grid is `figures --chaos`.

use crate::cli::{check_flags, parse_flag, write_report, CliError};
use dp_greedy_suite::engine::{find, RunContext};
use dp_greedy_suite::model::defaults::DEFAULT_SEED;
use dp_greedy_suite::model::fault::FaultPlan;
use dp_greedy_suite::online::{degradation_ratio, resilient_ski_rental};
use dp_greedy_suite::prelude::*;
use dp_greedy_suite::sim::chaos_solution;

pub fn run(args: &[String]) -> Result<(), CliError> {
    check_flags(
        "chaos",
        args,
        &[
            "--seed",
            "--fault-rate",
            "--mean-outage",
            "--steps",
            "--mu",
            "--lambda",
            "--alpha",
            "--theta",
        ],
        &[],
    )?;
    let seed: u64 = parse_flag(args, "--seed")
        .transpose()?
        .unwrap_or(DEFAULT_SEED);
    let fault_rate: f64 = parse_flag(args, "--fault-rate")
        .transpose()?
        .unwrap_or(0.05);
    let mean_outage: f64 = parse_flag(args, "--mean-outage")
        .transpose()?
        .unwrap_or(2.0);
    let steps: usize = parse_flag(args, "--steps").transpose()?.unwrap_or(600);
    let (model, theta) = crate::cli::model_flags(args)?;
    if !(0.0..=1.0).contains(&fault_rate) {
        return Err(CliError::Usage(format!(
            "--fault-rate must be in [0, 1], got {fault_rate}"
        )));
    }

    let mut cfg = WorkloadConfig::paper_like(seed);
    cfg.steps = steps;
    let seq = generate(&cfg);
    let plan = FaultPlan::random(
        seed,
        seq.servers(),
        seq.horizon(),
        fault_rate,
        mean_outage,
        fault_rate,
    );
    let solver = find("dp_greedy").expect("dp_greedy is registered");
    let ctx = RunContext::new(model).with_theta(theta);
    let chaos = chaos_solution(&seq, &solver.solve(&seq, &ctx), &model, &plan)
        .expect("dp_greedy solutions carry explicit schedules");

    // On-line view: crash-aware ski-rental per item, same plan.
    let mut worst: f64 = 0.0;
    let mut sum = 0.0;
    let mut measured = 0usize;
    for i in 0..seq.items() {
        let trace = seq.item_trace(ItemId(i));
        if trace.is_empty() {
            continue;
        }
        let s = degradation_ratio(&trace, &model, &plan, resilient_ski_rental);
        worst = worst.max(s.degradation_ratio);
        sum += s.degradation_ratio;
        measured += 1;
    }

    write_report(|out| {
        writeln!(
            out,
            "chaos: seed={seed} fault-rate={fault_rate} mean-outage={mean_outage} \
             μ={} λ={} α={} θ={theta}  ({} requests, {} crash windows)",
            model.mu(),
            model.lambda(),
            model.alpha(),
            seq.len(),
            plan.crashes.len()
        )?;
        writeln!(out, "fleet (DP_Greedy plan under degraded replay):")?;
        writeln!(out, "  fault-free cost     {:.4}", chaos.fault_free_cost)?;
        writeln!(out, "  degraded cost       {:.4}", chaos.degraded_cost)?;
        writeln!(out, "  degradation ratio   {:.4}", chaos.degradation_ratio)?;
        writeln!(
            out,
            "  degraded requests   {}/{} ({:.1}%)",
            chaos.fault.requests_degraded,
            chaos.fault.requests_total,
            100.0 * chaos.fault.degraded_fraction()
        )?;
        writeln!(
            out,
            "  copies lost {}  recaches {}  retries {}  origin fallbacks {}",
            chaos.fault.copies_lost,
            chaos.fault.recaches,
            chaos.fault.retries,
            chaos.fault.origin_fallbacks
        )?;
        writeln!(
            out,
            "  mean time to repair {:.4} ({} repairs)",
            chaos.fault.mean_time_to_repair, chaos.fault.repairs
        )?;
        if measured > 0 {
            writeln!(out, "online (resilient ski-rental per item):")?;
            writeln!(out, "  mean degradation    {:.4}", sum / measured as f64)?;
            writeln!(out, "  worst degradation   {worst:.4}")?;
        }
        Ok(())
    })
}
