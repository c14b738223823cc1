//! Hand-authored communication-protocol specs for the coupled drivers.
//!
//! Each spec is a declarative [`ProtocolSpec`] (one program per mpisim
//! rank) describing exactly the messages a driver round is supposed to
//! exchange, including its degraded-mode branches: a killed guard rank
//! goes silent, a supervised component the monitor already declared down
//! is skipped rather than timed out. The specs are
//!
//! * **statically verified** by `mpisim::verify_spec` (deadlock-freedom,
//!   send/receive/collective matching, tag-collision freedom —
//!   diagnostics E0701–W0706), gated by `esm-lint`'s `protocol` phase;
//! * **dynamically pinned to the real drivers** by trace conformance:
//!   [`crate::CoupledEsm::run_windows_resilient`] and
//!   [`crate::CoupledEsm::run_windows_supervised`] record per-rank
//!   message traces every round and replay them against these specs
//!   ([`mpisim::conform`]), reporting any divergence in
//!   [`crate::ResilienceReport::protocol_violations`].
//!
//! Tag disciplines mirror the drivers: guard partials travel on `2w`,
//! guard verdicts on `2w + 1`, heartbeats on `w` (window-linear
//! [`Tag::Window`] tags, one spec for every window).

use icongrid::Decomposition;
use mpisim::protocol::{arm, branch, recv_deadline, send, ArmCond, Tag};
use mpisim::{halo_spec, ProtocolSpec};

/// Spec for one round of the distributed blow-up guard
/// (`run_windows_resilient`, `resilience::distributed_guard`):
/// every worker rank `r in 1..n` sends its shard verdict to rank 0 on
/// tag `2w` and awaits the global verdict on `2w + 1` under a deadline;
/// rank 0 collects the partials (deadline receives — a dead worker is a
/// timeout, not a hang) and broadcasts the verdict. Any rank may instead
/// be killed by the fault plan before participating: the `killed` arm
/// is its (empty) program for that round.
pub fn guard_spec(n_ranks: usize) -> ProtocolSpec {
    let n = n_ranks.max(2);
    let partial = Tag::w(2, 0);
    let verdict = Tag::w(2, 1);

    let mut monitor = Vec::new();
    for r in 1..n {
        monitor.push(recv_deadline(r, partial));
    }
    for r in 1..n {
        monitor.push(send(r, verdict));
    }
    let rank0 = vec![branch(
        "guard-monitor",
        vec![
            arm("nominal", ArmCond::Nominal, monitor),
            arm("killed", ArmCond::Fault, vec![]),
        ],
    )];

    let mut ranks = vec![rank0];
    for _ in 1..n {
        ranks.push(vec![branch(
            "guard-worker",
            vec![
                arm(
                    "nominal",
                    ArmCond::Nominal,
                    vec![send(0, partial), recv_deadline(0, verdict)],
                ),
                arm("killed", ArmCond::Fault, vec![]),
            ],
        )]);
    }
    ProtocolSpec::new("guard-round", ranks)
}

/// Spec for one heartbeat round (`mpisim::heartbeat_round`): each
/// supervised rank `r in 1..n` sends one beat to the monitor on tag `w`
/// — unless it is down, killed, or hung, in which case it is silent.
/// The monitor takes one deadline receive per peer it still believes
/// alive; a peer already declared down is skipped outright (`skip` arm).
pub fn heartbeat_spec(n_ranks: usize) -> ProtocolSpec {
    let n = n_ranks.max(2);
    let beat = Tag::w(1, 0);

    let mut rank0 = Vec::new();
    for r in 1..n {
        rank0.push(branch(
            "monitor-peer",
            vec![
                arm("await-beat", ArmCond::Nominal, vec![recv_deadline(r, beat)]),
                arm("skip-down", ArmCond::Fault, vec![]),
            ],
        ));
    }

    let mut ranks = vec![rank0];
    for _ in 1..n {
        ranks.push(vec![branch(
            "component",
            vec![
                arm("beat", ArmCond::Nominal, vec![send(0, beat)]),
                arm("silent", ArmCond::Fault, vec![]),
            ],
        )]);
    }
    ProtocolSpec::new("heartbeat-round", ranks)
}

/// Spec for the supervised driver's per-window heartbeat
/// (`run_windows_supervised`): a three-rank world — monitor, fast side
/// (atmosphere + land, rank 1), slow side (ocean + BGC, rank 2).
pub fn supervised_spec() -> ProtocolSpec {
    let mut spec = heartbeat_spec(3);
    spec.name = "supervised-heartbeat".to_string();
    spec
}

/// Spec for one coupler halo-exchange round over a decomposed grid:
/// cell-field halos on `tag_base`, edge-field halos on `tag_base + 1`,
/// each in the [`mpisim::HaloExchanger`] discipline (all eager sends
/// posted, then blocking receives) with peer lists taken from the
/// decomposition's precomputed exchange plans.
pub fn coupler_exchange_spec(decomp: &Decomposition, tag_base: u64) -> ProtocolSpec {
    let peers = |plan: fn(&icongrid::decomp::PartLayout) -> (Vec<usize>, Vec<usize>)| {
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for part in &decomp.parts {
            let (s, r) = plan(part);
            sends.push(s);
            recvs.push(r);
        }
        (sends, recvs)
    };
    let (cell_s, cell_r) = peers(|p| {
        (
            p.cell_exchange.send.iter().map(|(q, _)| *q).collect(),
            p.cell_exchange.recv.iter().map(|(q, _)| *q).collect(),
        )
    });
    let (edge_s, edge_r) = peers(|p| {
        (
            p.edge_exchange.send.iter().map(|(q, _)| *q).collect(),
            p.edge_exchange.recv.iter().map(|(q, _)| *q).collect(),
        )
    });

    let cells = halo_spec("cells", &cell_s, &cell_r, Tag::k(tag_base));
    let edges = halo_spec("edges", &edge_s, &edge_r, Tag::k(tag_base + 1));
    let ranks = cells
        .ranks
        .into_iter()
        .zip(edges.ranks)
        .map(|(mut c, e)| {
            c.extend(e);
            c
        })
        .collect();
    ProtocolSpec::new("coupler-exchange", ranks)
}

/// Every driver spec the static verifier (and `esm-lint`'s `protocol`
/// phase) must prove clean: the resilient guard at its fixed width,
/// the supervised heartbeat, and the coupler halo exchange over a small
/// real decomposition.
pub fn all_specs() -> Vec<ProtocolSpec> {
    let grid = icongrid::Grid::build(2, icongrid::EARTH_RADIUS_M);
    let decomp = Decomposition::new(&grid, 4);
    vec![
        guard_spec(crate::resilience::GUARD_RANKS),
        supervised_spec(),
        coupler_exchange_spec(&decomp, 100),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::verify_spec;

    #[test]
    fn all_driver_specs_verify_clean() {
        for spec in all_specs() {
            let report = verify_spec(&spec);
            assert!(
                report.errors() == 0,
                "spec `{}` must verify with zero E07xx errors:\n{:#?}",
                spec.name,
                report.diags
            );
            assert!(
                report.warnings() == 0,
                "spec `{}` must carry no dead branches:\n{:#?}",
                spec.name,
                report.diags
            );
        }
    }

    #[test]
    fn guard_spec_matches_the_live_guard_tags() {
        let spec = guard_spec(3);
        assert_eq!(spec.n_ranks(), 3);
        // Rank 1 nominal arm: partial on 2w, verdict await on 2w+1.
        let fmt = format!("{:?}", spec.ranks[1]);
        assert!(fmt.contains("mul: 2, add: 0"), "{fmt}");
        assert!(fmt.contains("mul: 2, add: 1"), "{fmt}");
    }

    #[test]
    fn coupler_exchange_spec_covers_every_halo_edge() {
        let grid = icongrid::Grid::build(2, icongrid::EARTH_RADIUS_M);
        let decomp = Decomposition::new(&grid, 4);
        let spec = coupler_exchange_spec(&decomp, 100);
        assert_eq!(spec.n_ranks(), 4);
        // One send + one recv op per (peer, direction, field kind) pair.
        let expected: usize = decomp
            .parts
            .iter()
            .map(|p| {
                p.cell_exchange.send.len()
                    + p.cell_exchange.recv.len()
                    + p.edge_exchange.send.len()
                    + p.edge_exchange.recv.len()
            })
            .sum();
        assert_eq!(spec.op_count(), expected);
        assert!(spec.op_count() > 0, "4-way split must exchange halos");
    }
}
