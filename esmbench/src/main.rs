//! Coupled-window benchmark of the ICON-ESM-RS drivers.
//!
//! ```text
//! cargo run --release --manifest-path esmbench/Cargo.toml -- \
//!     --workload <plain|resilient|recovery|supervised> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats episodes of the workload for `--seconds` and
//! prints the end-to-end metrics; `--trace 1` times the public calls into
//! each layer from outside and prints the per-layer metrics. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod host;
mod timing_fs;
mod trace;
mod workload;

use esm_core::EsmConfig;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{run_episode, Episode, Workload, WINDOWS};

/// Fewest episodes a measured run takes, however short `--seconds` is,
/// so its medians rest on more than one sample.
const MIN_EPISODES: usize = 3;
/// Fewest set-ups `setup_s` is the median of. Workloads with few episodes
/// in `--seconds` top up with set-ups that run no timed driver call.
const MIN_SETUPS: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds '{value}'"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Episodes attempted and failed, and the metrics of a run.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Checkpoint directories of one run, on the checkout's own disk so that
/// fsync is real. Removed when the run ends.
pub struct WorkDir {
    root: PathBuf,
    next: usize,
}

impl WorkDir {
    fn create(wl: Workload) -> Result<WorkDir, String> {
        let root = bench_dir()
            .join("work")
            .join(format!("{}-{}", wl.name(), std::process::id()));
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(WorkDir { root, next: 0 })
    }

    /// A fresh, empty directory, so no generation left by an earlier
    /// episode changes what a ring reads.
    pub fn fresh(&mut self) -> Result<PathBuf, String> {
        self.next += 1;
        let dir = self.root.join(format!("ep{:03}", self.next));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }

    pub fn path(&self) -> &Path {
        &self.root
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Succeeds only once no other run is using the parent.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The benchmark package directory (inside the checkout).
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Run `f`, turning a panic into an error so it counts as a failed
/// episode instead of ending the run.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match std::panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(format!(
            "panic: {}",
            p.downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        )),
    }
}

/// One checked episode: it fails on an error, a panic, a failed check,
/// or a final state that differs from the reference.
pub fn checked_episode(
    wl: Workload,
    cfg: &EsmConfig,
    concurrent: bool,
    reference: u64,
    work: &mut WorkDir,
    storage: Option<std::sync::Arc<dyn iosys::Storage>>,
) -> Result<Episode, String> {
    let dir = work.fresh()?;
    let ep = guarded(|| run_episode(wl, cfg, concurrent, &dir, storage));
    let _ = std::fs::remove_dir_all(&dir);
    let ep = ep?;
    if ep.digest != reference {
        return Err(format!(
            "final-state digest {:016x} differs from reference {reference:016x}",
            ep.digest
        ));
    }
    Ok(ep)
}

pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

fn provenance(args: &Args, cfg: &EsmConfig, work: &WorkDir) {
    let layout = args.workload.layout(host::nproc());
    println!(
        "provenance {{\"commit\": \"{}\", \"host_threads\": {}, \"llc_mb\": {}, \
         \"checkpoint_fs\": \"{}\", \"workload\": \"{}\", \"pool_width\": {}, \
         \"side_mode\": \"{}\", \"cells\": {}, \"atm_levels\": {}, \"oce_levels\": {}, \
         \"windows\": {}, \"coupling_s\": {}, \"seed\": {}, \"trace\": {}}}",
        host::commit(&bench_dir().join("..")),
        host::nproc(),
        host::llc_mb(),
        host::fs_type(work.path()),
        args.workload.name(),
        layout.width,
        if layout.concurrent {
            "concurrent"
        } else {
            "sequential"
        },
        20 * 4usize.pow(cfg.bisections),
        cfg.atm_levels,
        cfg.oce_levels,
        WINDOWS,
        cfg.coupling_s,
        cfg.seed,
        args.trace,
    );
}

/// The untraced run: episodes for `seconds`, end-to-end metrics.
fn measure(args: &Args, cfg: &EsmConfig, work: &mut WorkDir) -> Result<Outcome, String> {
    let wl = args.workload;
    let layout = wl.layout(host::nproc());
    host::set_pool_width(1)?;
    let reference = match guarded(|| workload::reference_digest(cfg)) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("reference run failed: {e}");
            return Ok(Outcome {
                attempted: 1,
                failed: 1,
                metrics: end_to_end(&[], &[], cfg, 1, 1),
            });
        }
    };
    println!("reference digest {reference:016x}");
    host::set_pool_width(layout.width)?;

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut episodes = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    while attempted < MIN_EPISODES || start.elapsed() < budget {
        attempted += 1;
        match checked_episode(wl, cfg, layout.concurrent, reference, work, None) {
            Ok(ep) => {
                println!(
                    "episode {attempted}: setup {:.4} s, {:.2} ms/window, tau {:.1}",
                    ep.setup_s,
                    ep.window_ms(),
                    ep.tau(cfg)
                );
                episodes.push(ep);
            }
            Err(e) => {
                failed += 1;
                eprintln!("episode {attempted} failed: {e}");
            }
        }
    }
    let mut setups: Vec<f64> = episodes.iter().map(|e| e.setup_s).collect();
    while setups.len() < MIN_SETUPS && failed == 0 {
        match guarded(|| workload::setup_s(cfg, layout.concurrent)) {
            Ok(s) => setups.push(s),
            Err(e) => {
                attempted += 1;
                failed += 1;
                eprintln!("set-up failed: {e}");
            }
        }
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: end_to_end(&episodes, &setups, cfg, attempted, failed),
    })
}

fn end_to_end(
    eps: &[Episode],
    setups: &[f64],
    cfg: &EsmConfig,
    attempted: usize,
    failed: usize,
) -> Vec<Metric> {
    vec![
        ("tau", median(eps.iter().map(|e| e.tau(cfg)).collect()), "1"),
        (
            "cpu_s_per_sim_day",
            median(eps.iter().map(|e| e.cpu_s_per_sim_day(cfg)).collect()),
            "s/day",
        ),
        ("peak_rss_mb", host::peak_rss_mb(), "MiB"),
        ("setup_s", median(setups.to_vec()), "s"),
        (
            "success_rate",
            (attempted - failed) as f64 / attempted as f64,
            "1",
        ),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "esmbench: {e}\nusage: esmbench --workload <plain|resilient|recovery|supervised> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let cfg = EsmConfig {
        seed: args.seed,
        ..EsmConfig::demo()
    };
    let result = WorkDir::create(args.workload).and_then(|mut work| {
        provenance(&args, &cfg, &work);
        if args.trace {
            trace::traced(args.workload, &cfg, args.seconds, &mut work)
        } else {
            measure(&args, &cfg, &mut work)
        }
    });
    match result {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("esmbench: {e}");
            ExitCode::FAILURE
        }
    }
}
