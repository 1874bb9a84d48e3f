//! The four workloads: what each generates from a seed, how it is sized,
//! and the file its user path reads.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use mcs_model::{RequestSeq, RequestSeqBuilder};
use mcs_serve::protocol::{parse_line, Frame};
use mcs_trace::io::TraceFile;
use mcs_trace::workload::{generate, WorkloadConfig};

/// How a workload's input reaches its user path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// A pretty-JSON trace file for `dpg trace solve`.
    Json,
    /// A binary (`DPGB`) trace file for `dpg trace solve`.
    Dpgb,
    /// A `hello`/`req` frame stream for `dpg serve --input`.
    Frames,
}

/// One workload: a `dpg generate` shape cut to an exact request count.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// `dpg generate --taxis`; `None` keeps the paper-like 10 taxis.
    pub taxis: Option<usize>,
    /// `dpg generate --steps` that yields about `requests` requests.
    pub steps: usize,
    /// Exact request count after truncation: the seed changes the
    /// content, never the amount of work.
    pub requests: usize,
    pub format: Format,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "trace-json",
        taxis: None,
        steps: 3_000,
        requests: 6_417,
        format: Format::Json,
    },
    Workload {
        name: "trace-long",
        taxis: None,
        steps: 48_000,
        requests: 103_600,
        format: Format::Dpgb,
    },
    Workload {
        name: "catalog-wide",
        taxis: Some(2_000),
        steps: 500,
        requests: 16_200,
        format: Format::Dpgb,
    },
    Workload {
        name: "serve",
        taxis: Some(100),
        steps: 2_000,
        requests: 25_691,
        format: Format::Frames,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    pub fn is_serve(&self) -> bool {
        self.format == Format::Frames
    }

    /// The input's file name inside the run directory.
    pub fn input_name(&self) -> &'static str {
        match self.format {
            Format::Json => "input.json",
            Format::Dpgb => "input.dpgb",
            Format::Frames => "frames.txt",
        }
    }

    /// The generator configuration `dpg generate --seed S --steps N
    /// [--taxis T]` builds.
    pub fn config(&self, seed: u64, steps: usize) -> WorkloadConfig {
        let mut cfg = WorkloadConfig::paper_like(seed);
        cfg.steps = steps;
        if let Some(taxis) = self.taxis {
            cfg.taxis = taxis;
            let pairs = taxis / 2;
            cfg.pair_affinity = (0..pairs)
                .map(|p| 0.95 - 0.9 * p as f64 / pairs.max(1) as f64)
                .collect();
        }
        cfg
    }

    /// Generates the workload for `seed`: simulates enough steps for at
    /// least [`Workload::requests`] requests, then keeps exactly that many.
    /// Also returns the seconds spent in `generate` itself, the program's
    /// share of the work; the cut is the benchmark's own.
    pub fn generate(&self, seed: u64) -> (WorkloadConfig, RequestSeq, f64) {
        let mut steps = self.steps + self.steps / 8;
        let mut seconds = 0.0;
        loop {
            let cfg = self.config(seed, steps);
            let t = Instant::now();
            let seq = generate(&cfg);
            seconds += t.elapsed().as_secs_f64();
            if seq.len() >= self.requests {
                return (cfg, truncate(&seq, self.requests), seconds);
            }
            steps += steps / 4;
        }
    }

    /// Writes the generated input where the user path reads it. Returns
    /// the seconds spent in the program's writer, `TraceFile::save` or
    /// `save_binary`. The frame stream is the benchmark's own format, so
    /// writing it counts 0.
    pub fn write_input(
        &self,
        cfg: WorkloadConfig,
        seq: &RequestSeq,
        path: &Path,
    ) -> Result<f64, String> {
        let err = |e: &dyn std::fmt::Display| format!("writing {}: {e}", path.display());
        if self.format == Format::Frames {
            std::fs::write(path, frames(seq)).map_err(|e| err(&e))?;
            return Ok(0.0);
        }
        let file = TraceFile::synthetic(cfg, seq.clone());
        let t = Instant::now();
        let saved = if self.format == Format::Json {
            file.save(path)
        } else {
            file.save_binary(path)
        };
        let seconds = t.elapsed().as_secs_f64();
        saved.map_err(|e| err(&e))?;
        Ok(seconds)
    }

    /// Reads the input back and checks it is exactly `expected`.
    pub fn check_input(&self, path: &Path, expected: &RequestSeq) -> Result<(), String> {
        let loaded = match self.format {
            Format::Json | Format::Dpgb => {
                TraceFile::load(path)
                    .map_err(|e| format!("loading {}: {e}", path.display()))?
                    .sequence
            }
            Format::Frames => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("reading {}: {e}", path.display()))?;
                parse_frames(&text)?
            }
        };
        if &loaded != expected {
            return Err(format!(
                "{} does not load back as the generated sequence",
                path.display()
            ));
        }
        Ok(())
    }
}

/// The first `n` requests of `seq`, revalidated by `RequestSeqBuilder`.
pub fn truncate(seq: &RequestSeq, n: usize) -> RequestSeq {
    let mut b = RequestSeqBuilder::new(seq.servers(), seq.items());
    for r in &seq.requests()[..n] {
        b = b.push(r.server, r.time, r.items.iter().map(|i| i.0));
    }
    b.build().expect("a prefix of a valid sequence is valid")
}

/// The `dpg serve` frame stream of `seq`: a handshake, then one `req`
/// line per request with its time in shortest round-trip form, so the
/// daemon sees the same bits as the batch path.
pub fn frames(seq: &RequestSeq) -> String {
    let mut s = format!("hello {} {}\n", seq.servers(), seq.items());
    for r in seq.requests() {
        let items: Vec<String> = r.items.iter().map(|i| i.0.to_string()).collect();
        writeln!(s, "req {:?} {} {}", r.time, r.server.0, items.join(","))
            .expect("writing to a String cannot fail");
    }
    s
}

/// Parses a frame stream back into the sequence it declares.
pub fn parse_frames(text: &str) -> Result<RequestSeq, String> {
    let mut seq = None;
    for (idx, line) in text.lines().enumerate() {
        match parse_line(line, idx + 1).map_err(|e| e.to_string())? {
            None => {}
            Some(Frame::Hello { servers, items }) => {
                seq = Some(RequestSeqBuilder::new(servers, items));
            }
            Some(Frame::Req {
                time,
                server,
                items,
            }) => {
                let b = seq.take().ok_or("req before hello")?;
                seq = Some(b.push(server, time, items.iter().map(|i| i.0)));
            }
        }
    }
    seq.ok_or("no hello frame")?
        .build()
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact-count rule: every seed yields the same amount of work.
    #[test]
    fn exact_count_sizing_is_seed_independent() {
        for w in WORKLOADS {
            for seed in 1..=5 {
                let (_, seq, _) = w.generate(seed);
                assert_eq!(seq.len(), w.requests, "{} seed {seed}", w.name);
            }
        }
    }

    #[test]
    fn same_seed_same_input_other_seed_other_input() {
        let w = find("trace-json").unwrap();
        assert_eq!(w.generate(7).1, w.generate(7).1);
        assert_ne!(w.generate(7).1, w.generate(8).1);
    }

    #[test]
    fn frames_round_trip_bit_exactly() {
        let (_, seq, _) = find("serve").unwrap().generate(3);
        let seq = truncate(&seq, 500);
        assert_eq!(parse_frames(&frames(&seq)).unwrap(), seq);
    }
}
