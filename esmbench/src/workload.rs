//! The four workloads, one episode of each, and the checks every episode
//! must pass.
//!
//! An episode builds a fresh model (`CoupledEsm::new` plus one untimed
//! warm-up window: the set-up), then times one driver call over
//! [`WINDOWS`] coupling windows. Every workload integrates the same
//! 1 + `WINDOWS` windows from the same seed, so every workload must end
//! in the same state, bit for bit.

use crate::host;
use esm_core::budgets::{CarbonBudget, WaterBudget};
use esm_core::{
    CoupledEsm, EsmConfig, ResilienceConfig, ResilienceReport, SdcMode, StateFaultPlan,
    SupervisorConfig,
};
use iosys::{Snapshot, Storage};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Coupling windows in one timed driver call.
pub const WINDOWS: usize = 8;

/// Windows the two `recovery` bit flips fire before. `seeded` would draw
/// them from the seed too: two flips then share a window for one seed in
/// eight (one detection covers both), and the rollback cost swings with
/// where they land. Fixed, distinct windows keep the work of every seed
/// the same; the seed still picks buffer, element and bit.
const FLIP_WINDOWS: [u64; 2] = [3, 6];

/// Relative ledger drift allowed over an episode (the tolerances of the
/// `esm-core` conservation tests).
const CARBON_DRIFT: f64 = 1e-5;
const WATER_DRIFT: f64 = 1e-3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Plain,
    Resilient,
    Recovery,
    Supervised,
}

/// Pool width and whether ocean+HAMOCC run on their own thread.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    pub width: usize,
    pub concurrent: bool,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "plain" => Some(Workload::Plain),
            "resilient" => Some(Workload::Resilient),
            "recovery" => Some(Workload::Recovery),
            "supervised" => Some(Workload::Supervised),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Plain => "plain",
            Workload::Resilient => "resilient",
            Workload::Recovery => "recovery",
            Workload::Supervised => "supervised",
        }
    }

    /// Thread layout. No workload puts more compute threads than `nproc`
    /// on the host: the concurrent drivers add the ocean thread, so they
    /// run the pool at width 1.
    pub fn layout(self, nproc: usize) -> Layout {
        match self {
            Workload::Plain | Workload::Supervised => Layout {
                width: nproc,
                concurrent: false,
            },
            Workload::Resilient | Workload::Recovery => Layout {
                width: 1,
                concurrent: true,
            },
        }
    }
}

/// What one episode measured.
pub struct Episode {
    /// `CoupledEsm::new` plus the warm-up window, without the ledgers
    /// taken between them.
    pub setup_s: f64,
    /// Wall and process CPU seconds of the timed driver call.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Multi-worker pool drives during the timed call.
    pub drives: u64,
    pub digest: u64,
    pub report: Option<ResilienceReport>,
}

impl Episode {
    /// Simulated days per wall-clock day over the timed call.
    pub fn tau(&self, cfg: &EsmConfig) -> f64 {
        WINDOWS as f64 * cfg.coupling_s / self.wall_s
    }

    pub fn cpu_s_per_sim_day(&self, cfg: &EsmConfig) -> f64 {
        self.cpu_s / (WINDOWS as f64 * cfg.coupling_s / 86_400.0)
    }

    pub fn window_ms(&self) -> f64 {
        self.wall_s * 1e3 / WINDOWS as f64
    }
}

/// Run one episode of `wl` with the given side mode, checkpointing into
/// `dir` through `storage` (the real file system when `None`), and check
/// the conservation ledgers and the driver's report.
pub fn run_episode(
    wl: Workload,
    cfg: &EsmConfig,
    concurrent: bool,
    dir: &Path,
    storage: Option<Arc<dyn Storage>>,
) -> Result<Episode, String> {
    let t = Instant::now();
    let mut esm = CoupledEsm::new(cfg.clone());
    let new_s = t.elapsed().as_secs_f64();
    let carbon0 = esm.carbon_budget();
    let water0 = esm.water_budget();
    let t = Instant::now();
    esm.run_windows(1, concurrent)
        .map_err(|e| format!("warm-up window: {e}"))?;
    let warmup_s = t.elapsed().as_secs_f64();

    let n = WINDOWS as u64;
    let drives0 = rayon::parallel_drives();
    let cpu0 = host::process_cpu_s();
    let t = Instant::now();
    let report = match wl {
        Workload::Plain => {
            esm.run_windows(WINDOWS, concurrent)
                .map_err(|e| format!("run_windows: {e}"))?;
            None
        }
        Workload::Resilient | Workload::Recovery => {
            let mut rcfg = ResilienceConfig {
                storage,
                ..ResilienceConfig::default()
            };
            if wl == Workload::Recovery {
                rcfg.audit_every = 4;
                rcfg.sdc = Some(Arc::new(fault_plan(cfg.seed)));
            }
            let r = esm
                .run_windows_resilient(n, concurrent, dir, &rcfg, None)
                .map_err(|e| format!("run_windows_resilient: {e}"))?;
            Some(r)
        }
        Workload::Supervised => {
            let scfg = SupervisorConfig {
                storage,
                ..SupervisorConfig::default()
            };
            let r = esm
                .run_windows_supervised(n, dir, &scfg, None)
                .map_err(|e| format!("run_windows_supervised: {e}"))?;
            Some(r)
        }
    };
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_s() - cpu0;
    let drives = rayon::parallel_drives() - drives0;

    check_ledgers(carbon0, esm.carbon_budget(), water0, esm.water_budget())?;
    if let Some(r) = &report {
        check_report(wl, r)?;
    }
    Ok(Episode {
        setup_s: new_s + warmup_s,
        wall_s,
        cpu_s,
        drives,
        digest: digest(&esm.snapshot()),
        report,
    })
}

/// Seconds to build a model and run its warm-up window: an episode's
/// set-up without the timed driver call.
pub fn setup_s(cfg: &EsmConfig, concurrent: bool) -> Result<f64, String> {
    let t = Instant::now();
    let mut esm = CoupledEsm::new(cfg.clone());
    esm.run_windows(1, concurrent)
        .map_err(|e| format!("warm-up window: {e}"))?;
    Ok(t.elapsed().as_secs_f64())
}

/// Quiescent-buffer flips drawn by `StateFaultPlan::seeded`, moved to
/// [`FLIP_WINDOWS`].
fn fault_plan(seed: u64) -> StateFaultPlan {
    StateFaultPlan::seeded(seed, SdcMode::Quiescent, FLIP_WINDOWS.len(), WINDOWS as u64)
        .pending()
        .into_iter()
        .zip(FLIP_WINDOWS)
        .fold(StateFaultPlan::new(), |plan, (f, window)| {
            plan.flip(window, f.target, f.elem, f.bit)
        })
}

/// Digest of the state after 1 + [`WINDOWS`] windows of plain sequential
/// stepping at the current pool width: the value every episode must
/// reproduce.
pub fn reference_digest(cfg: &EsmConfig) -> Result<u64, String> {
    let mut esm = CoupledEsm::new(cfg.clone());
    esm.run_windows(1 + WINDOWS, false)
        .map_err(|e| format!("reference run: {e}"))?;
    Ok(digest(&esm.snapshot()))
}

fn check_ledgers(
    carbon0: CarbonBudget,
    carbon1: CarbonBudget,
    water0: WaterBudget,
    water1: WaterBudget,
) -> Result<(), String> {
    let carbon = (carbon1.total() - carbon0.total()).abs() / carbon0.total().abs();
    let water = (water1.total() - water0.total()).abs() / water0.total().abs();
    if carbon.is_nan() || carbon >= CARBON_DRIFT {
        return Err(format!("carbon drift {carbon:e} exceeds {CARBON_DRIFT:e}"));
    }
    if water.is_nan() || water >= WATER_DRIFT {
        return Err(format!("water drift {water:e} exceeds {WATER_DRIFT:e}"));
    }
    Ok(())
}

fn check_report(wl: Workload, r: &ResilienceReport) -> Result<(), String> {
    if !r.protocol_violations.is_empty() {
        return Err(format!("protocol violations: {:?}", r.protocol_violations));
    }
    if wl == Workload::Recovery
        && (r.sdc_injected != r.sdc_detected_checksum || r.sdc_false_positives != 0)
    {
        return Err(format!(
            "sdc: injected {} detected by checksum {} false positives {}",
            r.sdc_injected, r.sdc_detected_checksum, r.sdc_false_positives
        ));
    }
    Ok(())
}

/// 64-bit FNV-1a over every snapshot variable except `esm.scalars`, by
/// name and by `f64::to_bits`.
pub fn digest(s: &Snapshot) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (name, data) in &s.vars {
        if name == "esm.scalars" {
            continue;
        }
        for &b in name.as_bytes() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
        for v in data {
            h = (h ^ v.to_bits()).wrapping_mul(PRIME);
        }
    }
    h
}
