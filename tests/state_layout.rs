//! Pins the checkpointed state layout: the ordered variable names of the
//! full and per-side snapshots, the SDC-flippable variables, and the static
//! buffers with their owning side.
//!
//! Three things depend on this order: the round-robin assignment of
//! variables to `.esmr` shards, which buffer a seeded `VarIndex` or
//! `QuiescentIndex` flip lands in, and the guard's reported `var_idx`.
//! A change here is a format change, not a refactor.

use esm_core::sdc::{apply_due_flips, quiescent_side};
use esm_core::{CoupledEsm, EsmConfig, FlipTarget, Side, StateFaultPlan};

const FAST: &[&str] = &[
    "atm.delta", "atm.vn", "atm.qv", "atm.qc", "atm.co2", "atm.o3", "atm.precip_acc",
    "atm.evap_acc", "atm.precip_rate", "atm.evap_rate", "atm.t_surface", "atm.co2_flux",
    "atm.lmf", "atm.is_water", "land.t_soil", "land.w_liquid", "land.w_ice",
    "land.q_organic", "land.pools", "land.lai", "land.river_storage", "land.nee", "land.et",
    "land.nee_acc", "land.et_acc", "land.precip_acc", "land.runoff_acc",
];

const SLOW: &[&str] = &[
    "oce.vn", "oce.temp", "oce.salt", "oce.w", "oce.eta", "oce.ice", "oce.wind_stress",
    "oce.heat_flux", "oce.fw_flux", "oce.pco2", "oce.heat_acc", "oce.salt_acc",
    "oce.ice_fw_acc", "bgc.tr00", "bgc.tr01", "bgc.tr02", "bgc.tr03", "bgc.tr04", "bgc.tr05",
    "bgc.tr06", "bgc.tr07", "bgc.tr08", "bgc.tr09", "bgc.tr10", "bgc.tr11", "bgc.tr12",
    "bgc.tr13", "bgc.tr14", "bgc.tr15", "bgc.tr16", "bgc.tr17", "bgc.tr18", "bgc.sed_p",
    "bgc.sed_c", "bgc.sed_si", "bgc.co2_flux", "bgc.co2_acc", "bgc.sw", "bgc.wind",
    "bgc.pco2",
];

const LAG: &[&str] = &[
    "pend_fast.sst", "pend_fast.ice_conc", "pend_fast.co2_flux_up",
    "pend_slow.wind_stress_n", "pend_slow.heat_flux", "pend_slow.fw_flux",
    "pend_slow.pco2_atm", "pend_slow.sw_down", "pend_slow.wind",
];

fn names(s: iosys::Snapshot) -> Vec<String> {
    s.vars.into_iter().map(|(n, _)| n).collect()
}

fn concat(parts: &[&[&str]]) -> Vec<String> {
    parts.iter().flat_map(|p| p.iter().map(|n| n.to_string())).collect()
}

#[test]
fn snapshot_layouts_are_pinned() {
    let esm = CoupledEsm::new(EsmConfig::tiny());
    assert_eq!(names(esm.snapshot()), concat(&[FAST, SLOW, LAG, &["esm.scalars"]]));
    assert_eq!(names(esm.snapshot_fast()), concat(&[FAST, &["fast.scalars"]]));
    assert_eq!(names(esm.snapshot_slow()), concat(&[SLOW, &["slow.scalars"]]));

    let fast_f64: Vec<&str> = FAST.iter().copied().filter(|&n| n != "atm.is_water").collect();
    assert_eq!(esm.flippable_var_names(), concat(&[&fast_f64, SLOW, LAG]));
}

#[test]
fn static_buffers_and_their_sides_are_pinned() {
    let sides: Vec<(&str, Side)> = CoupledEsm::QUIESCENT_BUFFERS
        .iter()
        .map(|&n| (n, quiescent_side(n)))
        .collect();
    assert_eq!(
        sides,
        [
            ("static.z_surface", Side::Fast),
            ("static.layer_temp", Side::Fast),
            ("static.elevation", Side::Fast),
            ("static.bathymetry", Side::Slow),
            ("static.oce_dz", Side::Slow),
        ]
    );
}

/// Only exact snapshot-variable names resolve; near misses must not
/// silently land a flip in a real buffer.
#[test]
fn misspelled_variable_names_resolve_to_nothing() {
    let mut esm = CoupledEsm::new(EsmConfig::tiny());
    for name in [
        "bgc.tr1", "bgc.tr001", "bgc.tr+1", "bgc.tr19", "bgc.tr", "atm.is_water",
        "esm.scalars", "fast.scalars", "oce.temp ", "OCE.TEMP", "oce", "pend_fast.",
        "pend_fast.nope", "pend_slow.sst", "static.oce_dz", "",
    ] {
        assert!(esm.state_var_mut(name).is_none(), "{name:?} resolved to a buffer");
    }
    for name in esm.flippable_var_names() {
        assert!(esm.state_var_mut(&name).is_some(), "{name} did not resolve");
    }

    let plan = StateFaultPlan::new().flip(1, FlipTarget::Var("bgc.tr1".into()), 0, 3);
    let before = esm.snapshot();
    assert_eq!(apply_due_flips(&mut esm, &plan, 1), 0);
    assert_eq!(plan.injected(), 0);
    assert_eq!(esm.snapshot(), before, "no buffer changed");
}
