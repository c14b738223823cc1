//! The traced run: per-layer numbers timed from outside, around the
//! public calls into each layer.
//!
//! Component and side timings use a throwaway model at the workload's
//! pool width; the coupler overlap is taken at width 1 and the rayon
//! speed-up as width 1 over width `nproc`. Driver-level numbers come from
//! episodes of the workload itself: each untraced episode is paired with
//! one whose checkpoints go through [`TimingFs`], and the `tau`
//! difference between the two is the tracing overhead. Metrics of a
//! driver layer the workload does not run read 0.

use crate::host;
use crate::timing_fs::TimingFs;
use crate::workload::{reference_digest, Episode, Workload, WINDOWS};
use crate::{checked_episode, guarded, median, Metric, Outcome, WorkDir};
use coupler::exchange::FluxSet;
use esm_core::{CoupledEsm, EsmConfig, QuiescenceReference};
use icongrid::{Grid, NoExchange};
use iosys::{CheckpointRing, Snapshot, Storage};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions of each timed layer call; the median is reported.
const REPS: usize = 7;
const MIB: f64 = 1024.0 * 1024.0;

/// Median ms of `f` over [`REPS`] calls, after one untimed call.
fn median_ms(mut f: impl FnMut()) -> f64 {
    f();
    median(
        (0..REPS)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    )
}

/// The pending coupling fluxes stored in a snapshot under `prefix`.
fn pending(snap: &Snapshot, prefix: &str) -> FluxSet {
    let mut f = FluxSet::new();
    for (name, data) in &snap.vars {
        if let Some(field) = name.strip_prefix(prefix) {
            // `FluxSet` keys are `&'static str`; a handful of short names
            // per traced run.
            f.insert(Box::leak(field.to_string().into_boxed_str()), data.clone());
        }
    }
    f
}

/// Median ms of one atmosphere+land window and one ocean+HAMOCC window,
/// each side consuming the other's previous output.
fn side_window_ms(esm: &mut CoupledEsm) -> Result<(f64, f64), String> {
    let snap = esm.snapshot();
    let mut to_fast = pending(&snap, "pend_fast.");
    let mut to_slow = pending(&snap, "pend_slow.");
    let mut fast = Vec::new();
    let mut slow = Vec::new();
    for _ in 0..REPS {
        let window = esm.windows_run();
        let t = Instant::now();
        let out_fast = esm
            .run_fast_window(window, &to_fast)
            .map_err(|e| format!("run_fast_window: {e}"))?;
        fast.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let out_slow = esm
            .run_slow_window(&to_slow)
            .map_err(|e| format!("run_slow_window: {e}"))?;
        slow.push(t.elapsed().as_secs_f64() * 1e3);
        to_fast = out_slow;
        to_slow = out_fast;
    }
    Ok((median(fast), median(slow)))
}

fn window_ms(esm: &mut CoupledEsm, concurrent: bool) -> Result<f64, String> {
    let mut ms = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        esm.run_windows(1, concurrent)
            .map_err(|e| format!("run_windows: {e}"))?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(ms))
}

/// Layer timings on a throwaway model: set-up, components, sides, state,
/// checkpoint I/O, pool and coupler. Returns the snapshot and checkpoint
/// write times in ms, which the driver overheads are split by.
fn layers(
    cfg: &EsmConfig,
    width: usize,
    concurrent: bool,
    work: &mut WorkDir,
    m: &mut Vec<Metric>,
) -> Result<(f64, f64), String> {
    let llc = host::llc_mb();
    let triad = host::triad(llc);
    m.push(("host.triad_gbs", triad.gbs, "GB/s"));
    m.push(("host.triad_mb", triad.arrays_mb, "MiB"));
    m.push(("host.llc_mb", llc, "MiB"));

    host::set_pool_width(width)?;
    let grid_ms = median_ms(|| {
        std::hint::black_box(Grid::build(cfg.bisections, icongrid::EARTH_RADIUS_M));
    });
    m.push(("icongrid.grid_build_ms", grid_ms, "ms"));
    let mut new_ms = Vec::new();
    let mut warm_ms = Vec::new();
    let mut esm = None;
    for _ in 0..3 {
        let t = Instant::now();
        let mut e = CoupledEsm::new(cfg.clone());
        new_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        e.run_windows(1, concurrent)
            .map_err(|e| format!("warm-up window: {e}"))?;
        warm_ms.push(t.elapsed().as_secs_f64() * 1e3);
        esm = Some(e);
    }
    let mut esm = esm.expect("three models were built");
    m.push(("core.esm.new_ms", median(new_ms), "ms"));
    m.push(("core.esm.warmup_window_ms", median(warm_ms), "ms"));

    // Land then atmosphere, in the order a fast window steps them.
    let (mut land, mut atmo) = (Vec::new(), Vec::new());
    for rep in 0..=REPS {
        let t = Instant::now();
        esm.land.step();
        let land_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        esm.atm.step(&NoExchange);
        if rep > 0 {
            land.push(land_s * 1e3);
            atmo.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let (atmo_ms, land_ms) = (median(atmo), median(land));
    m.push(("atmo.step_ms", atmo_ms, "ms"));
    m.push(("land.step_ms", land_ms, "ms"));
    m.push((
        "land.launches_per_step",
        esm.land.recorder.kernels_per_step() as f64,
        "count",
    ));
    let n_cells = esm.grid.n_cells;
    m.push((
        "ocean.step_ms",
        median_ms(|| esm.ocean.step(&NoExchange, n_cells)),
        "ms",
    ));
    m.push((
        "ocean.cg_iterations",
        esm.ocean.last_cg.iterations as f64,
        "count",
    ));
    m.push((
        "ocean.cg_residual",
        esm.ocean.last_cg.final_relative_residual,
        "1",
    ));
    let ham_ms = median_ms(|| esm.hamocc.step(&NoExchange, &esm.ocean));
    m.push(("hamocc.step_ms", ham_ms, "ms"));

    let (fast_ms, slow_ms) = side_window_ms(&mut esm)?;
    let steps = cfg.atm_steps_per_window() as f64;
    m.push(("core.esm.fast_window_ms", fast_ms, "ms"));
    m.push(("core.esm.slow_window_ms", slow_ms, "ms"));
    m.push((
        "core.esm.fast_self_ms",
        fast_ms - steps * (atmo_ms + land_ms),
        "ms",
    ));

    let snap = esm.snapshot();
    let snapshot_ms = median_ms(|| {
        std::hint::black_box(esm.snapshot());
    });
    m.push(("core.esm.snapshot_ms", snapshot_ms, "ms"));
    m.push((
        "core.esm.snapshot_mb",
        snap.payload_bytes() as f64 / MIB,
        "MiB",
    ));
    m.push((
        "host.state_to_llc",
        snap.payload_bytes() as f64 / MIB / llc.max(1e-9),
        "1",
    ));
    m.push((
        "core.esm.restore_ms",
        median_ms(|| esm.restore(&snap)),
        "ms",
    ));
    let side_ms = median_ms(|| {
        std::hint::black_box((esm.snapshot_fast(), esm.snapshot_slow()));
    });
    m.push(("core.esm.side_snapshots_ms", side_ms, "ms"));

    let quiescence = QuiescenceReference::capture(&esm);
    let mut dirty = Vec::new();
    let verify_ms = median_ms(|| dirty = quiescence.verify(&esm));
    if !dirty.is_empty() {
        return Err(format!(
            "quiescent buffers changed without a fault: {dirty:?}"
        ));
    }
    m.push(("core.sdc.quiescence_verify_ms", verify_ms, "ms"));

    let write_ms = checkpoint_io(&snap, work, m)?;

    host::set_pool_width(1)?;
    let (fast1, slow1) = if width == 1 {
        (fast_ms, slow_ms)
    } else {
        side_window_ms(&mut esm)?
    };
    let concurrent1 = window_ms(&mut esm, true)?;
    m.push(("coupler.overlap", 1.0 - concurrent1 / (fast1 + slow1), "1"));
    m.push(("coupler.slow_slack_ms", fast1 - slow1, "ms"));
    let serial1 = window_ms(&mut esm, false)?;
    host::set_pool_width(host::nproc())?;
    let wide = window_ms(&mut esm, false)?;
    m.push(("rayon.speedup", serial1 / wide, "1"));
    Ok((snapshot_ms, write_ms))
}

/// Checkpoint write and read-back of `snap` through [`TimingFs`];
/// returns the median write time in ms.
fn checkpoint_io(snap: &Snapshot, work: &mut WorkDir, m: &mut Vec<Metric>) -> Result<f64, String> {
    let fs = Arc::new(TimingFs::default());
    let dir = work.fresh()?;
    let mut ring = CheckpointRing::new_with(fs.clone(), &dir, "bench", 2)
        .map_err(|e| format!("checkpoint ring: {e}"))?;
    let (mut write_ms, mut storage_ms, mut fsyncs, mut ops, mut mb) =
        (vec![], vec![], vec![], vec![], vec![]);
    for _ in 0..REPS {
        let c0 = fs.counts();
        let t = Instant::now();
        ring.write(snap, 3)
            .map_err(|e| format!("checkpoint write: {e}"))?;
        write_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let d = fs.counts().since(c0);
        storage_ms.push(d.busy_ms());
        fsyncs.push(d.fsyncs as f64);
        ops.push(d.ops as f64);
        mb.push(d.bytes_written as f64 / MIB);
    }
    let (mut read_ms, mut read_storage_ms) = (vec![], vec![]);
    let want = crate::workload::digest(snap);
    for _ in 0..REPS {
        let c0 = fs.counts();
        let t = Instant::now();
        let (_, back) = ring
            .read_latest_intact(2)
            .map_err(|e| format!("checkpoint read: {e}"))?;
        read_ms.push(t.elapsed().as_secs_f64() * 1e3);
        read_storage_ms.push(fs.counts().since(c0).busy_ms());
        if crate::workload::digest(&back) != want {
            return Err("checkpoint read back differs from what was written".into());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let (write, storage) = (median(write_ms), median(storage_ms));
    m.push(("iosys.checkpoint_write_ms", write, "ms"));
    m.push(("iosys.checkpoint_storage_ms", storage, "ms"));
    m.push(("iosys.checkpoint_encode_ms", write - storage, "ms"));
    m.push(("iosys.checkpoint_mb", median(mb), "MiB"));
    m.push(("iosys.fsyncs_per_checkpoint", median(fsyncs), "count"));
    m.push(("iosys.ops_per_checkpoint", median(ops), "count"));
    m.push(("iosys.checkpoint_read_ms", median(read_ms), "ms"));
    m.push(("iosys.read_storage_ms", median(read_storage_ms), "ms"));
    Ok(write)
}

/// Per-window counter of a driver report, summed over episodes.
fn per_window(eps: &[Episode], f: impl Fn(&esm_core::ResilienceReport) -> u64) -> f64 {
    let total: u64 = eps.iter().filter_map(|e| e.report.as_ref()).map(&f).sum();
    total as f64 / (eps.len().max(1) * WINDOWS) as f64
}

pub fn traced(
    wl: Workload,
    cfg: &EsmConfig,
    seconds: u64,
    work: &mut WorkDir,
) -> Result<Outcome, String> {
    let layout = wl.layout(host::nproc());
    let mut m: Vec<Metric> = Vec::new();
    let (snapshot_ms, write_ms) = layers(cfg, layout.width, layout.concurrent, work, &mut m)?;

    let mut attempted = 0;
    let mut failed = 0;
    host::set_pool_width(1)?;
    let reference = guarded(|| reference_digest(cfg))?;
    host::set_pool_width(layout.width)?;

    let mut record = |r: Result<Episode, String>, into: &mut Vec<Episode>| {
        attempted += 1;
        match r {
            Ok(ep) => into.push(ep),
            Err(e) => {
                failed += 1;
                eprintln!("traced episode failed: {e}");
            }
        }
    };
    // Plain stepping at the workload's width and side mode: the base the
    // driver overheads are measured from.
    let mut base = Vec::new();
    if wl != Workload::Plain {
        let r = checked_episode(
            Workload::Plain,
            cfg,
            layout.concurrent,
            reference,
            work,
            None,
        );
        record(r, &mut base);
    }
    let fs = Arc::new(TimingFs::default());
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut storage_ms, mut mb_written, mut storage_errors) = (0.0, 0.0, 0u64);
    let start = Instant::now();
    while untraced.len() + traced.len() < 2 || start.elapsed() < Duration::from_secs(seconds) {
        let r = checked_episode(wl, cfg, layout.concurrent, reference, work, None);
        record(r, &mut untraced);
        let c0 = fs.counts();
        let storage: Arc<dyn Storage> = fs.clone();
        let r = checked_episode(wl, cfg, layout.concurrent, reference, work, Some(storage));
        let d = fs.counts().since(c0);
        storage_ms += d.busy_ms();
        mb_written += d.bytes_written as f64 / MIB;
        storage_errors += d.errors;
        record(r, &mut traced);
    }
    let windows = (traced.len().max(1) * WINDOWS) as f64;
    m.push(("iosys.storage_ms_per_window", storage_ms / windows, "ms"));
    m.push(("iosys.mb_written_per_window", mb_written / windows, "MiB"));
    m.push(("iosys.storage_errors", storage_errors as f64, "count"));

    let tau_untraced = median(untraced.iter().map(|e| e.tau(cfg)).collect());
    let tau_traced = median(traced.iter().map(|e| e.tau(cfg)).collect());
    m.push(("trace.tau_untraced", tau_untraced, "1"));
    m.push(("trace.tau_traced", tau_traced, "1"));
    let tracing_overhead = if tau_untraced > 0.0 {
        1.0 - tau_traced / tau_untraced
    } else {
        0.0
    };
    m.push(("trace.tau_overhead", tracing_overhead, "1"));
    let drives: u64 = untraced.iter().map(|e| e.drives).sum();
    m.push((
        "rayon.drives_per_window",
        drives as f64 / (untraced.len().max(1) * WINDOWS) as f64,
        "count",
    ));

    let overhead = median(untraced.iter().map(|e| e.window_ms()).collect())
        - median(base.iter().map(|e| e.window_ms()).collect());
    let resilient = matches!(wl, Workload::Resilient | Workload::Recovery);
    let supervised = wl == Workload::Supervised;
    let only = |on: bool, v: f64| if on { v } else { 0.0 };
    let checkpoints = per_window(&untraced, |r| r.checkpoints_written);
    m.push((
        "core.resilience.overhead_ms_per_window",
        only(resilient, overhead),
        "ms",
    ));
    m.push((
        "core.resilience.unattributed_ms_per_window",
        only(resilient, overhead - snapshot_ms - write_ms * checkpoints),
        "ms",
    ));
    m.push((
        "core.resilience.checkpoints_per_window",
        only(resilient, checkpoints),
        "count",
    ));
    m.push((
        "core.resilience.protocol_ops_per_window",
        only(resilient, per_window(&untraced, |r| r.protocol_ops_matched)),
        "count",
    ));
    m.push((
        "core.sdc.audit_replays_per_window",
        only(resilient, per_window(&untraced, |r| r.audit_replays)),
        "count",
    ));
    let per_episode =
        |f: fn(&esm_core::ResilienceReport) -> u64| per_window(&untraced, f) * WINDOWS as f64;
    m.push((
        "core.sdc.rollbacks",
        only(resilient, per_episode(|r| r.rollbacks)),
        "count",
    ));
    m.push((
        "core.sdc.replayed_windows",
        only(resilient, per_episode(|r| r.replayed_windows)),
        "count",
    ));
    m.push((
        "core.supervisor.overhead_ms_per_window",
        only(supervised, overhead),
        "ms",
    ));
    m.push((
        "core.supervisor.checkpoints_per_window",
        only(supervised, checkpoints),
        "count",
    ));
    m.push((
        "core.supervisor.protocol_rounds_per_window",
        only(supervised, per_window(&untraced, |r| r.protocol_rounds)),
        "count",
    ));
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}
