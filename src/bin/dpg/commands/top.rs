//! `dpg top` — live terminal view of a serving daemon's telemetry plane.
//!
//! Polls the daemon's control endpoint (`--addr HOST:PORT`, the
//! `--telemetry-addr` of `dpg serve`) or its published exposition file
//! (`--file PATH`, the `--telemetry-file`) and renders a refreshing
//! summary: request rate, admission latency quantiles read off the
//! exported histogram buckets, epoch settlement outcomes, degradation
//! ratio, checkpoint age, the log a recovery would replay, and the
//! journal tail (endpoint mode only — the file carries metrics, not the
//! journal).
//!
//! The daemon checkpoints when the log settled since its last checkpoint
//! outgrows it, not at every epoch, so `serve_last_checkpoint_t_mono`
//! moves only when a checkpoint is written: a checkpoint age of many
//! epochs is normal. `serve_log_bytes_since_checkpoint`, shown beside it,
//! is what that age costs a recovery, and stays below one checkpoint's
//! size plus two epochs: the one being solved and the open one.
//!
//! `--raw metrics|journal` is the curl-equivalent: one scrape, raw body
//! to stdout, no rendering — what CI uses to assert on the exposition.
//!
//! Exit taxonomy (matching the rest of `dpg`): a malformed invocation is
//! usage (2); an unreachable daemon — on the first poll or, as "daemon
//! gone", after a successful connect — is a runtime failure (1), never a
//! panic. A reader that closes the pipe ends the view with exit 0.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::time::Duration;

use crate::cli::{check_flags, parse_flag, write_frame, write_report, CliError};

/// Journal lines shown under the live view.
const DEFAULT_JOURNAL_ROWS: usize = 5;

enum Source {
    Addr(String),
    File(PathBuf),
}

impl Source {
    fn describe(&self) -> String {
        match self {
            Source::Addr(a) => format!("http://{a}"),
            Source::File(p) => p.display().to_string(),
        }
    }

    fn fetch_metrics(&self) -> Result<String, String> {
        match self {
            Source::Addr(a) => http_get(a, "/metrics"),
            Source::File(p) => {
                std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))
            }
        }
    }

    /// `None` in file mode: the published file carries the exposition
    /// only, the journal lives behind the endpoint.
    fn fetch_journal(&self, n: usize) -> Option<Result<String, String>> {
        match self {
            Source::Addr(a) => Some(http_get(a, &format!("/journal?n={n}"))),
            Source::File(_) => None,
        }
    }
}

/// Minimal HTTP/1.0 GET against the daemon's hand-rolled responder.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let target = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("resolve {addr}: no addresses"))?;
    let mut stream = TcpStream::connect_timeout(&target, Duration::from_secs(2))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(2))))
        .map_err(|e| format!("socket {addr}: {e}"))?;
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .map_err(|e| format!("send to {addr}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read from {addr}: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response from {addr}"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(format!("{addr} answered {status}"));
    }
    Ok(body.to_string())
}

/// One parsed scrape: plain samples plus cumulative histogram buckets.
#[derive(Default)]
struct Scrape {
    values: HashMap<String, f64>,
    buckets: HashMap<String, Vec<(f64, u64)>>,
}

impl Scrape {
    fn parse(text: &str) -> Scrape {
        let mut s = Scrape::default();
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let Some((name, value)) = line.rsplit_once(' ') else {
                continue;
            };
            if let Some((hist, rest)) = name.split_once("_bucket{le=\"") {
                let Some(le) = rest.strip_suffix("\"}") else {
                    continue;
                };
                let le = match le {
                    "+Inf" => f64::INFINITY,
                    other => match other.parse() {
                        Ok(v) => v,
                        Err(_) => continue,
                    },
                };
                if let Ok(c) = value.parse::<u64>() {
                    s.buckets.entry(hist.to_string()).or_default().push((le, c));
                }
            } else if let Ok(v) = value.parse::<f64>() {
                s.values.insert(name.to_string(), v);
            }
        }
        s
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Quantile estimate off a cumulative bucket series (the same
    /// one-bucket-width bound as `HistSummary::quantile`, minus the
    /// min/max clamp the exposition doesn't carry).
    fn quantile(&self, hist: &str, q: f64) -> Option<f64> {
        let buckets = self.buckets.get(hist)?;
        let count = buckets.last()?.1;
        if count == 0 {
            return None;
        }
        let rank = ((q * count as f64).ceil() as u64).max(1);
        buckets.iter().find(|&&(_, c)| c >= rank).map(|&(le, _)| le)
    }
}

fn fmt_count(v: Option<f64>) -> String {
    v.map_or_else(|| "-".into(), |v| format!("{v}"))
}

fn fmt_secs(v: Option<f64>) -> String {
    v.map_or_else(|| "-".into(), |v| format!("{v:.6}s"))
}

/// Checkpoint age in seconds, strictly from the two *monotonic* keys of
/// the exposition (`serve_scrape_t_mono` − `serve_last_checkpoint_t_mono`,
/// which moves only when a checkpoint is written);
/// wall-clock keys are never consulted, so NTP steps cannot skew the age.
/// A checkpoint stamped after the scrape was cut (the daemon keeps
/// running while the body is built) would read negative — clamped to 0.
fn checkpoint_age(scrape: &Scrape) -> Option<f64> {
    let now = scrape.get("serve_scrape_t_mono")?;
    let at = scrape.get("serve_last_checkpoint_t_mono")?;
    Some((now - at).max(0.0))
}

fn render(
    out: &mut dyn Write,
    source: &str,
    scrape: &Scrape,
    prev: Option<(f64, f64)>,
    journal: Option<&str>,
) -> std::io::Result<()> {
    let scrape_t = scrape.get("serve_scrape_t_mono");
    let admitted = scrape.get("serve_admitted_total");
    let reqs = match (prev, scrape_t, admitted) {
        (Some((t0, a0)), Some(t1), Some(a1)) if t1 > t0 => {
            format!("{:.1}", (a1 - a0) / (t1 - t0))
        }
        _ => "-".into(),
    };
    writeln!(
        out,
        "dpg top — {source}   t={}",
        scrape_t.map_or_else(|| "-".into(), |t| format!("{t:.1}s"))
    )?;
    writeln!(
        out,
        "requests     {reqs} req/s   admitted={} stale={} rejected={} malformed={}",
        fmt_count(admitted),
        fmt_count(scrape.get("serve_stale_total")),
        fmt_count(scrape.get("serve_rejected_total")),
        fmt_count(scrape.get("serve_malformed_total")),
    )?;
    writeln!(
        out,
        "admission    p50={} p99={} (n={})",
        fmt_secs(scrape.quantile("serve_admit_seconds", 0.5)),
        fmt_secs(scrape.quantile("serve_admit_seconds", 0.99)),
        fmt_count(scrape.get("serve_admit_seconds_count")),
    )?;
    writeln!(
        out,
        "epochs       open={} ok={} degraded={} busy={}   degradation_ratio={}",
        fmt_count(scrape.get("serve_epoch")),
        fmt_count(scrape.get("serve_epochs_ok_total")),
        fmt_count(scrape.get("serve_epochs_degraded_total")),
        fmt_count(scrape.get("serve_settle_busy_total")),
        scrape
            .get("serve_degradation_ratio")
            .map_or_else(|| "-".into(), |v| format!("{v:.4}")),
    )?;
    let ckpt_age = checkpoint_age(scrape).map_or_else(|| "-".into(), |age| format!("{age:.1}s"));
    writeln!(
        out,
        "state        cost ok={} degraded={}   checkpoint_age={ckpt_age} log_since={}B   backpressure={}",
        fmt_count(scrape.get("serve_ok_cost_total")),
        fmt_count(scrape.get("serve_degraded_cost_total")),
        fmt_count(scrape.get("serve_log_bytes_since_checkpoint")),
        scrape
            .get("serve_backpressure")
            .map_or_else(|| "-".into(), |v| format!("{:.0}%", v * 100.0)),
    )?;
    if let Some(journal) = journal {
        writeln!(out, "journal tail:")?;
        for line in journal.lines() {
            writeln!(out, "  {line}")?;
        }
    }
    Ok(())
}

pub fn run(args: &[String]) -> Result<(), CliError> {
    check_flags(
        "top",
        args,
        &["--addr", "--file", "--interval-ms", "--journal", "--raw"],
        &["--once"],
    )?;
    let addr = parse_flag::<String>(args, "--addr").transpose()?;
    let file = parse_flag::<String>(args, "--file").transpose()?;
    let source = match (addr, file) {
        (Some(a), None) => Source::Addr(a),
        (None, Some(f)) => Source::File(PathBuf::from(f)),
        _ => {
            return Err(CliError::Usage(
                "top needs exactly one of --addr HOST:PORT or --file PATH".into(),
            ))
        }
    };
    let interval = Duration::from_millis(
        parse_flag::<u64>(args, "--interval-ms")
            .transpose()?
            .unwrap_or(1000)
            .max(1),
    );
    let journal_rows = parse_flag::<usize>(args, "--journal")
        .transpose()?
        .unwrap_or(DEFAULT_JOURNAL_ROWS);
    let once = args.iter().any(|a| a == "--once");

    if let Some(what) = parse_flag::<String>(args, "--raw").transpose()? {
        let body = match what.as_str() {
            "metrics" => source.fetch_metrics(),
            "journal" => source
                .fetch_journal(journal_rows.max(1))
                .ok_or(CliError::Usage(
                    "--raw journal needs --addr (the file carries metrics only)".into(),
                ))?,
            _ => return Err(CliError::Usage("--raw takes metrics or journal".into())),
        }
        .map_err(|e| CliError::Runtime(format!("cannot reach daemon: {e}")))?;
        return write_report(|out| out.write_all(body.as_bytes()));
    }

    let mut connected = false;
    let mut prev: Option<(f64, f64)> = None;
    loop {
        let gone = |connected: bool, e: String| {
            if connected {
                CliError::Runtime(format!("daemon gone: {e}"))
            } else {
                CliError::Runtime(format!("cannot reach daemon: {e}"))
            }
        };
        let body = source.fetch_metrics().map_err(|e| gone(connected, e))?;
        let journal = match source.fetch_journal(journal_rows) {
            Some(r) => Some(r.map_err(|e| gone(connected, e))?),
            None => None,
        };
        connected = true;
        let scrape = Scrape::parse(&body);
        let open = write_frame(|out| {
            if !once {
                // Clear and home between frames (ANSI); the final frame
                // of a --once run prints plainly so it composes with
                // pipes.
                write!(out, "\x1b[2J\x1b[H")?;
            }
            render(out, &source.describe(), &scrape, prev, journal.as_deref())
        })?;
        if once || !open {
            return Ok(());
        }
        prev = scrape
            .get("serve_scrape_t_mono")
            .zip(scrape.get("serve_admitted_total"));
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_parses_into_samples_and_buckets() {
        let text = "\
# TYPE serve_admitted_total counter
serve_admitted_total 200
# TYPE serve_admit_seconds histogram
serve_admit_seconds_bucket{le=\"0.000244140625\"} 180
serve_admit_seconds_bucket{le=\"0.0009765625\"} 198
serve_admit_seconds_bucket{le=\"+Inf\"} 200
serve_admit_seconds_sum 0.0123
serve_admit_seconds_count 200
serve_scrape_t_mono 4.5
";
        let s = Scrape::parse(text);
        assert_eq!(s.get("serve_admitted_total"), Some(200.0));
        assert_eq!(s.get("serve_scrape_t_mono"), Some(4.5));
        assert_eq!(s.get("serve_admit_seconds_count"), Some(200.0));
        assert_eq!(s.quantile("serve_admit_seconds", 0.5), Some(0.000244140625));
        assert_eq!(s.quantile("serve_admit_seconds", 0.99), Some(0.0009765625));
        assert_eq!(s.quantile("serve_admit_seconds", 1.0), Some(f64::INFINITY));
        assert_eq!(s.quantile("serve_nope", 0.5), None);
    }

    fn scrape_with(pairs: &[(&str, f64)]) -> Scrape {
        let mut s = Scrape::default();
        for &(name, v) in pairs {
            s.values.insert(name.to_string(), v);
        }
        s
    }

    /// The age is the difference of the two monotonic keys — and only
    /// those; wall-clock keys in the scrape must not influence it.
    #[test]
    fn checkpoint_age_reads_the_monotonic_keys() {
        let s = scrape_with(&[
            ("serve_scrape_t_mono", 40.5),
            ("serve_last_checkpoint_t_mono", 10.5),
            // A skewed wall clock must be irrelevant.
            ("serve_last_checkpoint_t", 9e9),
        ]);
        assert_eq!(checkpoint_age(&s), Some(30.0));
    }

    /// A checkpoint stamped after the scrape was cut reads negative raw;
    /// the rendered age clamps to zero rather than showing "-0.3s".
    #[test]
    fn checkpoint_age_clamps_negative_deltas_to_zero() {
        let s = scrape_with(&[
            ("serve_scrape_t_mono", 12.0),
            ("serve_last_checkpoint_t_mono", 12.3),
        ]);
        assert_eq!(checkpoint_age(&s), Some(0.0));
    }

    #[test]
    fn checkpoint_age_is_none_without_both_keys() {
        assert_eq!(checkpoint_age(&scrape_with(&[])), None);
        assert_eq!(
            checkpoint_age(&scrape_with(&[("serve_scrape_t_mono", 5.0)])),
            None
        );
        assert_eq!(
            checkpoint_age(&scrape_with(&[("serve_last_checkpoint_t_mono", 5.0)])),
            None
        );
    }
}
