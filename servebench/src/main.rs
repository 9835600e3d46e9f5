//! `servebench` — the serving benchmark of the hub-labeling workspace.
//!
//! ```text
//! servebench --hubserve PATH --workload gnm-batch|rmat-zipf|gnm-routed
//!            [--seed N] [--seconds S] [--trace 0|1]
//! servebench --hubserve PATH --selftest
//! ```
//!
//! One run generates its workload's graph and pair stream from the seed,
//! sets the workload up (build, store, `hubserve serve` daemons over
//! loopback, clients), drives it for `--seconds`, checks every answer,
//! and prints as its last stdout line
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones of
//! `BENCHMARK.json`; with `--trace 1` a separate traced run times the
//! benchmark's calls into each crate and reports the per-layer ones. The
//! line before it is a detail record: host, seed, sample counts, and
//! whatever else explains the numbers.
//!
//! `servebench/run.sh` builds `hubserve` and this program from source and
//! passes `--hubserve`; run it from the repository root.

mod daemon;
mod e2e;
mod host;
mod json;
mod layers;
mod load;
mod pin;
mod selftest;
mod setup;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use hl_graph::Graph;
use hl_server::ServedLabeling;

use crate::json::quote;
use crate::load::Tally;
use crate::workload::{Sizes, Workload, FULL, K_RAND_SEED};

/// Where runs keep their stores and spans, relative to the checkout.
const WORK_DIR: &str = ".bench_work";

/// Everything a run needs to know about its invocation.
pub struct Ctx {
    pub hubserve: PathBuf,
    /// This run's private scratch directory (absolute: daemons are told
    /// store paths for reloads).
    pub work: PathBuf,
    pub nproc: usize,
    pub sizes: &'static Sizes,
    pub seed: u64,
    pub seconds: f64,
    /// Self-test only: perturb one expected answer.
    pub corrupt: bool,
}

impl Ctx {
    pub fn new(
        hubserve: PathBuf,
        tag: &str,
        sizes: &'static Sizes,
        seed: u64,
        seconds: f64,
    ) -> Result<Self, String> {
        let root = std::env::current_dir().map_err(|e| e.to_string())?;
        let work = root
            .join(WORK_DIR)
            .join(format!("{tag}-{seed}-{}", std::process::id()));
        std::fs::create_dir_all(&work)
            .map_err(|e| format!("cannot create {}: {e}", work.display()))?;
        Ok(Ctx {
            hubserve,
            work,
            nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
            sizes,
            seed,
            seconds,
            corrupt: false,
        })
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    /// Check failures that are not a failed request (layer consistency,
    /// missing samples).
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra `key: json-value` facts for the detail line.
    pub detail: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn add_tally(&mut self, t: Tally) {
        self.tally.add(t);
    }

    pub fn metric(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) if v.is_finite() => self.metrics.push((name, v, unit)),
            _ => {
                self.problems.push(format!("no value for metric {name}"));
                self.metrics.push((name, 0.0, unit));
            }
        }
    }

    pub fn detail_num(&mut self, key: &'static str, value: Option<f64>) {
        let v = value.filter(|v| v.is_finite());
        self.detail
            .push((key, v.map_or_else(|| "null".to_string(), |v| v.to_string())));
    }

    pub fn detail_list(&mut self, key: &'static str, values: &[f64]) {
        let items: Vec<String> = values.iter().map(f64::to_string).collect();
        self.detail.push((key, format!("[{}]", items.join(","))));
    }

    pub fn problem(&mut self, p: String) {
        self.problems.push(p);
    }

    pub fn ok_ratio(&self) -> f64 {
        if self.tally.attempted == 0 {
            return 0.0;
        }
        1.0 - self.tally.failed as f64 / self.tally.attempted as f64
    }

    /// Checks a seeded sample of reference answers against BFS; any
    /// mismatch is a failed check.
    pub fn bfs_check(&mut self, g: &Graph, reference: &ServedLabeling, ctx: &Ctx) {
        let (checked, bad) = workload::bfs_check(g, reference, ctx.sizes.bfs_sources, ctx.seed);
        self.detail_num("bfs_checked_pairs", Some(checked as f64));
        if bad > 0 {
            self.tally.failed += bad;
            self.problem(format!(
                "{bad} of {checked} reference answers differ from BFS"
            ));
        }
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0 && self.problems.is_empty()
    }

    /// The result line.
    pub fn render(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    quote(name),
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }

    /// The detail line printed before the result line.
    pub fn render_detail(&self, w: Workload, ctx: &Ctx, trace: bool, host: &host::Host) -> String {
        let mut fields = vec![
            format!("\"workload\": {}", quote(w.name())),
            format!("\"seed\": {}", ctx.seed),
            format!("\"seconds\": {}", ctx.seconds),
            format!("\"trace\": {}", u8::from(trace)),
            format!("\"host\": {}", host.to_json()),
            format!("\"busy\": {}", self.tally.busy),
            format!("\"errors\": {}", self.tally.errors),
        ];
        fields.extend(
            self.detail
                .iter()
                .map(|(k, v)| format!("{}: {v}", quote(k))),
        );
        let problems: Vec<String> = self.problems.iter().map(|p| quote(p)).collect();
        fields.push(format!("\"problems\": [{}]", problems.join(", ")));
        format!("{{\"servebench\": {{{}}}}}", fields.join(", "))
    }
}

/// Runs one workload, traced or not.
pub fn run(ctx: &Ctx, w: Workload, trace: bool) -> Result<Outcome, String> {
    if trace {
        layers::run(ctx, w)
    } else {
        e2e::run(ctx, w)
    }
}

struct Args {
    hubserve: Option<PathBuf>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selftest: bool,
}

const USAGE: &str = "usage: servebench --hubserve PATH --workload gnm-batch|rmat-zipf|gnm-routed \
     [--seed N] [--seconds S] [--trace 0|1]\n       servebench --hubserve PATH --selftest";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        hubserve: None,
        workload: None,
        seed: K_RAND_SEED,
        seconds: 30.0,
        trace: false,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selftest" {
            a.selftest = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--hubserve" => a.hubserve = Some(PathBuf::from(value)),
            "--workload" => {
                a.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => a.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(hubserve) = args.hubserve else {
        eprintln!("servebench: --hubserve is required\n{USAGE}");
        return ExitCode::from(2);
    };
    if args.selftest {
        return match selftest::run(&hubserve) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("servebench selftest FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(w) = args.workload else {
        eprintln!("servebench: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let host = host::Host::probe();
    let ctx = match Ctx::new(hubserve, w.name(), &FULL, args.seed, args.seconds) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ticks = host::cpu_ticks();
    match run(&ctx, w, args.trace) {
        Ok(mut out) => {
            // Time the hypervisor ran someone else on this guest's CPUs:
            // the noise floor every timing of this run sat on.
            if let (Some((s0, t0)), Some((s1, t1))) = (ticks, host::cpu_ticks()) {
                let steal = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
                out.detail_num("cpu_steal_pct", Some(steal));
            }
            println!("{}", out.render_detail(w, &ctx, args.trace, &host));
            println!("{}", out.render());
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("servebench: {} failed: {e}", w.name());
            ExitCode::FAILURE
        }
    }
}
