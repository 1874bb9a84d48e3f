//! Metric names, units, and the two outputs: a human-readable report with
//! every metric the notes define, and the last-line JSON object holding
//! the metrics `BENCHMARK.json` lists.

use crate::metrics::Metrics;
use crate::workloads::Workload;

/// End-to-end metrics in the JSON line (measured with tracing off). Each
/// is defined on every workload. `req_per_s` is printed but left out:
/// with the request count fixed it is `requests / wall_s`, so a bound on
/// it would only repeat the bound on `wall_s`.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")];

/// End-to-end metrics that exist on the `dpg serve` path only; reported
/// in the text report, not in the JSON line (see NOTES.md).
pub const SERVE_ONLY: [(&str, &str); 3] = [
    ("admit_p50_us", "us"),
    ("admit_p99_us", "us"),
    ("recover_s", "s"),
];

/// A per-layer metric of the JSON line: its name and unit, and the
/// measurement it reads on the batch and on the serve path. The two
/// sources differ only where a layer's role is played by a different
/// crate on each path (input decoding, durable output).
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub batch: &'static str,
    pub serve: &'static str,
}

const fn same(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        batch: name,
        serve: name,
    }
}

pub const PER_LAYER: [Layer; 22] = [
    Layer {
        name: "ingest.decode_s",
        unit: "s",
        batch: "trace.load_s",
        serve: "serve.parse_s",
    },
    Layer {
        name: "ingest.mb_per_s",
        unit: "MB/s",
        batch: "trace.load_mb_per_s",
        serve: "serve.parse_mb_per_s",
    },
    Layer {
        name: "ingest.bytes",
        unit: "count",
        batch: "trace.input_bytes",
        serve: "serve.frame_bytes",
    },
    same("correlation.stats_s", "s"),
    same("correlation.match_s", "s"),
    same("correlation.pair_events", "count"),
    same("correlation.pairs_packed", "count"),
    same("model.project_s", "s"),
    same("offline.dp_s", "s"),
    same("offline.dp_points", "count"),
    same("offline.dp_max_points", "count"),
    same("core.phase2_s", "s"),
    same("core.critical_commodity_s", "s"),
    same("core.commodities", "count"),
    same("engine.solve_s", "s"),
    same("engine.breakdown_share", "1"),
    Layer {
        name: "output.encode_s",
        unit: "s",
        batch: "obs.encode_s",
        serve: "serve.checkpoint_encode_s",
    },
    Layer {
        name: "output.write_s",
        unit: "s",
        batch: "obs.write_s",
        serve: "serve.checkpoint_write_s",
    },
    Layer {
        name: "output.bytes",
        unit: "count",
        batch: "obs.emit_bytes",
        serve: "serve.checkpoint_bytes",
    },
    same("pass.traced_s", "s"),
    same("pass.top_span_share", "1"),
    same("trace_overhead", "1"),
];

/// Every per-layer metric of the notes, by the name the notes use; the
/// text report of a traced run prints each (n/a off its path).
pub const LAYER_REPORT: [&str; 46] = [
    "pass.traced_s",
    "pass.top_span_share",
    "trace.load_s",
    "trace.load_mb_per_s",
    "trace.input_bytes",
    "correlation.stats_s",
    "correlation.pair_events",
    "correlation.match_s",
    "correlation.pairs_packed",
    "model.project_s",
    "offline.dp_s",
    "offline.dp_points",
    "offline.dp_max_points",
    "core.phase2_s",
    "core.critical_commodity_s",
    "core.commodity_sum_s",
    "core.commodities",
    "engine.solve_s",
    "engine.breakdown_share",
    "engine.ledger_s",
    "engine.ledger_events",
    "obs.encode_s",
    "obs.write_s",
    "obs.emit_bytes",
    "serve.parse_s",
    "serve.admit_service_s",
    "serve.admit_service_p50_us",
    "serve.wal_append_us",
    "serve.wal_bytes",
    "correlation.stream_observe_us",
    "correlation.stream_pairs",
    "serve.epoch_close_s",
    "serve.epoch_close_p50_us",
    "serve.epoch_close_p99_us",
    "serve.epochs",
    "serve.degraded_epochs",
    "serve.settle_solve_s",
    "serve.placement_s",
    "serve.checkpoint_encode_s",
    "serve.checkpoint_write_s",
    "serve.checkpoint_bytes",
    "serve.parse_ns_per_frame",
    "serve.recover_load_s",
    "serve.recover_replay_s",
    "serve.generator_late_p99_us",
    "trace_overhead",
];

/// The counts among the per-layer metrics: exact, repeatable work
/// measures (the `#` metrics of the notes).
pub const COUNTS: [&str; 14] = [
    "trace.input_bytes",
    "correlation.pair_events",
    "correlation.pairs_packed",
    "offline.dp_points",
    "offline.dp_max_points",
    "core.commodities",
    "engine.ledger_events",
    "obs.emit_bytes",
    "serve.wal_bytes",
    "correlation.stream_pairs",
    "serve.epochs",
    "serve.degraded_epochs",
    "serve.checkpoint_bytes",
    "serve.frame_bytes",
];

/// The per-layer JSON metrics of one workload, read from the traced
/// run's medians.
pub fn per_layer(
    w: &Workload,
    layers: &Metrics,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    PER_LAYER
        .iter()
        .map(|l| {
            let source = if w.is_serve() { l.serve } else { l.batch };
            layers
                .get(source)
                .map(|v| (l.name, v, l.unit))
                .ok_or_else(|| format!("traced run did not measure {source}"))
        })
        .collect()
}

/// The traced pass split into its top-level spans, each as a share of
/// the pass, then the layer each workload exists to make dominant with
/// the target the notes hold it to.
pub fn shares(w: &Workload, m: &Metrics) -> Vec<String> {
    let get = |k: &str| m.get(k).unwrap_or(f64::NAN);
    let pass = get("pass.traced_s");
    let spans: &[&str] = if w.is_serve() {
        &[
            "serve.parse_s",
            "serve.admit_service_s",
            "serve.epoch_close_s",
        ]
    } else {
        &[
            "trace.load_s",
            "engine.solve_s",
            "engine.ledger_s",
            "obs.encode_s",
            "obs.write_s",
        ]
    };
    let split: Vec<String> = spans
        .iter()
        .map(|k| format!("{k} {:.1}%", get(k) / pass * 100.0))
        .collect();
    let mut out = vec![format!("pass {pass:.4} s: {}", split.join(", "))];
    let mut check = |what: &str, share: f64, ok: bool, target: &str| {
        let verdict = if ok { "ok" } else { "MISS" };
        out.push(format!(
            "{what} = {:.1}% ({target}): {verdict}",
            share * 100.0
        ));
    };
    match w.name {
        "trace-json" => {
            let s = get("trace.load_s") / pass;
            check(
                "trace.load_s share of the pass",
                s,
                s >= 0.9,
                "target >= 90%",
            );
        }
        "trace-long" => {
            let s = get("core.phase2_s") / pass;
            check(
                "core.phase2_s share of the pass",
                s,
                s >= 0.7,
                "target >= 70%",
            );
        }
        "catalog-wide" => {
            let layers = get("correlation.stats_s")
                + get("correlation.match_s")
                + get("obs.encode_s")
                + get("obs.write_s");
            let s = layers / pass;
            check(
                "correlation.* + obs.* share of the pass",
                s,
                s >= 0.25,
                "target >= 25%",
            );
            let dp = get("offline.dp_s") / get("core.commodity_sum_s");
            let what = "offline.dp_s share of summed commodity time";
            check(what, dp, dp <= 0.15, "target <= 15%");
        }
        _ => {
            let s = get("serve.epoch_close_s") / pass;
            check(
                "epoch-closing admits' share of the pass",
                s,
                s >= 0.5,
                "target >= 50%",
            );
        }
    }
    out
}

/// A JSON number with every digit the measurement has.
fn number(v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v:?}"))
    } else {
        Err(format!("non-finite metric value {v}"))
    }
}

/// The last line of standard output.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> Result<String, String> {
    let body = metrics
        .iter()
        .map(|(name, v, unit)| {
            Ok(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*v)?
            ))
        })
        .collect::<Result<Vec<_>, String>>()?
        .join(", ");
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape() {
        let line = json_line(
            true,
            4,
            0,
            &[("wall_s", 1.25, "s"), ("req_per_s", 800.0, "1/s")],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"req_per_s\": {\"value\": 800.0, \"unit\": \"1/s\"}}}"
        );
        assert!(json_line(true, 1, 0, &[("x", f64::NAN, "s")]).is_err());
    }
}
