//! End-to-end benchmark of mixed-mode Quicksort (MMPar) and the task
//! service, with a per-layer ledger from a traced run.  See `README.md`.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 only
//! when every output check passed on a host that is not oversubscribed.

mod host;
mod pass;
mod probes;
mod report;
mod sortload;
mod stats;
mod svcload;
mod trace;

use std::path::PathBuf;

use host::{CountingAlloc, Host};
use pass::{now_ns, Pass};
use report::{Metric, Traced};
use sortload::{Keys, SortSetup};
use stats::median_f64;
use svcload::{Mode, SvcSetup};
use trace::SpanLog;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Set-ups are repeated until they took this long in total (within the
/// rep bounds below); `setup_s` is their median.
const SETUP_BUDGET_S: f64 = 1.5;
const SETUP_REPS: std::ops::RangeInclusive<usize> = 5..=101;
/// Length of the companion pass of a traced run.
const COMPANION_SECONDS: f64 = 1.0;
/// Fewest sorts in a window whose p90 is reported / in any other window.
const MIN_SORTS_E2E: usize = 100;
const MIN_SORTS_TRACED: usize = 10;
/// Op-id ranges of the span file: workload pass, companion pass, probes.
const COMPANION_OPS: u64 = 1 << 40;
const PROBE_OPS: u64 = 2 << 40;
/// Where a traced run writes its spans, relative to the working directory.
const SPAN_DIR: &str = ".bench_out";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SortRandom,
    SortDups,
    SvcPaced,
    SvcSaturate,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SortRandom,
        Workload::SortDups,
        Workload::SvcPaced,
        Workload::SvcSaturate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SortRandom => "sort_random",
            Workload::SortDups => "sort_dups",
            Workload::SvcPaced => "svc_paced",
            Workload::SvcSaturate => "svc_saturate",
        }
    }

    fn is_service(self) -> bool {
        matches!(self, Workload::SvcPaced | Workload::SvcSaturate)
    }
}

/// A workload's state after set-up.
enum Setup {
    Sort(SortSetup),
    Service(SvcSetup),
}

/// Builds the scheduler or service, the inputs and the reference output.
fn setup(workload: Workload, seed: u64, host: &Host, seconds: f64) -> Setup {
    match workload {
        Workload::SortRandom => Setup::Sort(SortSetup::new(Keys::Random, seed, host.workers)),
        Workload::SortDups => Setup::Sort(SortSetup::new(Keys::Dups, seed, host.workers)),
        Workload::SvcPaced => {
            Setup::Service(SvcSetup::new(Mode::Paced, seed, host.workers, seconds))
        }
        Workload::SvcSaturate => {
            Setup::Service(SvcSetup::new(Mode::Saturate, seed, host.workers, seconds))
        }
    }
}

/// Sets up repeatedly, each time from scratch; returns the median set-up
/// time in seconds and the last set-up.
fn timed_setup(workload: Workload, seed: u64, host: &Host, seconds: f64) -> (f64, Setup) {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < *SETUP_REPS.start()
        || (times.len() < *SETUP_REPS.end() && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Tear the previous set-up down first, outside the timed region.
        drop(last.take());
        let t0 = now_ns();
        last = Some(setup(workload, seed, host, seconds));
        times.push((now_ns() - t0) as f64 / 1e9);
    }
    (median_f64(&times), last.expect("at least one set-up"))
}

/// Runs one pass; a sort set-up survives it for reuse.
fn run_pass(
    setup: Setup,
    seconds: f64,
    min_sorts: usize,
    traced: bool,
    op_base: u64,
) -> (Pass, Option<SortSetup>) {
    match setup {
        Setup::Sort(s) => {
            let pass = sortload::run(&s, seconds, min_sorts, traced, op_base);
            (pass, Some(s))
        }
        Setup::Service(s) => (svcload::run(s, seconds, traced, op_base), None),
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *Workload::ALL
                        .iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What a run prints.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Latency samples behind the percentiles, for the tail line.
    samples: Vec<u64>,
}

fn untraced(args: &Args, host: &Host) -> Outcome {
    let (setup_s, setup) = timed_setup(args.workload, args.seed, host, args.seconds);
    let (pass, _) = run_pass(setup, args.seconds, MIN_SORTS_E2E, false, 0);
    println!("latency_us_p90 = {} us (not gated)", pass.latency_us(0.9));
    Outcome {
        metrics: report::end_to_end(setup_s, host::peak_rss_mb(), &pass),
        attempted: pass.attempted,
        failed: pass.failed,
        samples: pass.samples.iter().map(|s| s.latency_ns).collect(),
    }
}

/// The traced run: the workload untraced and traced for half the time each,
/// a short traced companion pass of the other family (so every layer is in
/// the ledger), then the layer probes.
fn traced(args: &Args, host: &Host) -> Outcome {
    let half = args.seconds / 2.0;
    let first = setup(args.workload, args.seed, host, half);
    let (plain, kept) = run_pass(first, half, MIN_SORTS_TRACED, false, 0);
    let second = match kept {
        Some(sort) => Setup::Sort(sort),
        None => setup(args.workload, args.seed, host, half),
    };
    let (traced, kept) = run_pass(second, half, MIN_SORTS_TRACED, true, 0);
    let mut probe_log = SpanLog::default();
    let (companion, probes) = match kept {
        Some(sort) => {
            let probes = probes::run(
                &sort.scheduler,
                &sort.input,
                &sort.reference,
                &mut probe_log,
                PROBE_OPS,
            );
            drop(sort);
            let service_host = Host::probe(true);
            let svc = SvcSetup::new(
                Mode::Paced,
                args.seed,
                service_host.workers,
                COMPANION_SECONDS,
            );
            (
                svcload::run(svc, COMPANION_SECONDS, true, COMPANION_OPS),
                probes,
            )
        }
        None => {
            let sort_host = Host::probe(false);
            let sort = SortSetup::new(Keys::Random, args.seed, sort_host.workers);
            let pass = sortload::run(
                &sort,
                COMPANION_SECONDS,
                MIN_SORTS_TRACED,
                true,
                COMPANION_OPS,
            );
            let probes = probes::run(
                &sort.scheduler,
                &sort.input,
                &sort.reference,
                &mut probe_log,
                PROBE_OPS,
            );
            (pass, probes)
        }
    };
    let (sort, service) = if args.workload.is_service() {
        (&companion, &traced)
    } else {
        (&traced, &companion)
    };
    let metrics = report::per_layer(&Traced {
        plain: &plain,
        traced: &traced,
        sort,
        service,
        probes: &probes,
    });
    let path = PathBuf::from(SPAN_DIR).join(format!(
        "{}-seed{}.spans.csv",
        args.workload.name(),
        args.seed
    ));
    let mut spans = SpanLog::default();
    for log in [&traced.spans, &companion.spans, &probe_log] {
        spans.extend(log);
    }
    match spans.write_csv(&path) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
    }
    Outcome {
        metrics,
        attempted: plain.attempted + traced.attempted + companion.attempted,
        failed: plain.failed + traced.failed + companion.failed + probes.failed,
        samples: traced.samples.iter().map(|s| s.latency_ns).collect(),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let host = Host::probe(args.workload.is_service());
    println!(
        "workload: {} seed {} seconds {}",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    println!("host: {}", host.to_json());
    let outcome = if args.trace {
        traced(&args, &host)
    } else {
        untraced(&args, &host)
    };
    for m in &outcome.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let mut samples = outcome.samples;
    match stats::highest_tail_percentile(samples.len()) {
        Some(p) => println!(
            "latency tail: p{} = {} us over {} samples",
            p * 100.0,
            stats::percentile(&mut samples, p) as f64 / 1e3,
            samples.len()
        ),
        None => println!("latency tail: too few samples ({})", samples.len()),
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "failed_frac = {failed_frac} ({} failed of {} attempted)",
        outcome.failed, outcome.attempted
    );
    if host.oversubscribed() {
        println!("oversubscribed: more runnable threads than CPUs; this run does not count");
    }
    let correct = outcome.failed == 0 && !host.oversubscribed();
    println!(
        "{}",
        report::result_json(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args(&[
            "--workload",
            "svc_paced",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::SvcPaced);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "sort_dups", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "sort_dups", "--seconds"]).is_err());
    }
}
