//! Communication latency models (paper §III-D and §IV).
//!
//! Two regimes share one type:
//!
//! * **Flat** ([`CommModel::new`]) — the paper's model verbatim: profiled
//!   intra-node tables plus the Equation (1) analytical inter-node form.
//!   This is the default and reproduces every seed figure bit-identically.
//! * **Topology-aware** ([`CommModel::with_topology`]) — collectives are
//!   priced by the `vtrain-net` algorithm library against the group's
//!   [placement](vtrain_graph::CommOp::placement): a deterministic
//!   selector picks ring, tree, or hierarchical per collective signature
//!   (payload + placement — the fields the runtime's algorithm choice
//!   actually reads), and [`CommModel::breakdown`] exposes the per-tier
//!   cost split. Intra-node collectives still go through the profiled
//!   tables in both regimes, matching the paper's methodology.

use serde::{Deserialize, Serialize};
use vtrain_gpu::comm::{all_reduce_time, ring_factor, send_recv_time, InterNodeModel};
use vtrain_graph::{CommKind, CommOp, CommScope};
use vtrain_model::{Bytes, TimeNs};
use vtrain_net::flow::{FlowPhase, FlowProgram, NetworkBackend};
use vtrain_net::{collective, Algorithm, Collective, CostBreakdown, PhaseCost, Topology};
use vtrain_parallel::ClusterSpec;

/// Sizes swept when profiling intra-node NCCL primitives (1 MB – 1024 MB,
/// the range the paper reports).
const SWEEP_MIB: [u64; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
/// Rank counts profiled (2/4/8 GPUs of one node).
const SWEEP_RANKS: [usize; 3] = [2, 4, 8];

/// The complete communication model: profiled intra-node tables plus the
/// Equation (1) analytical inter-node model.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CommModel {
    /// Profiled `(ranks, [(bytes, latency)])` anchors for intra-node
    /// All-Reduce, interpolated log-linearly between anchors.
    intra_anchors: Vec<(usize, Vec<(u64, TimeNs)>)>,
    inter: InterNodeModel,
    nvlink_bus_bandwidth: f64,
    nvlink_latency: TimeNs,
    internode_bandwidth: f64,
    internode_latency: TimeNs,
    /// The interconnect hierarchy collectives are priced against.
    topology: Topology,
    /// False = the paper's flat model (default); true = route multi-tier
    /// collectives through the `vtrain-net` algorithm library.
    topology_aware: bool,
    /// Which network-cost regime estimates run under: closed-form
    /// per-collective pricing (default) or fair-sharing flow replay.
    #[serde(default)]
    backend: NetworkBackend,
}

impl CommModel {
    /// Builds the model for a cluster: sweeps intra-node NCCL All-Reduce
    /// latencies in an isolated setting (exactly the paper's methodology —
    /// and, exactly as the paper notes, therefore blind to the ~30 %
    /// contention inflation the ground-truth emulator injects), and
    /// instantiates Equation (1) with bandwidth-effectiveness `alpha`.
    pub fn new(cluster: &ClusterSpec, alpha: f64) -> Self {
        CommModel::build(cluster, alpha, cluster.topology(alpha), false)
    }

    /// Builds a topology-aware model: multi-tier collectives are priced
    /// by the `vtrain-net` algorithm library against `topology` (which
    /// may add a rack tier or differ from the cluster's default two-tier
    /// shape); intra-node collectives keep the profiled tables.
    ///
    /// `alpha` is the single §IV calibration knob: it is applied
    /// uniformly to **every tier above the node level**, superseding any
    /// per-tier `alpha` the caller set on `topology` (the same semantics
    /// [`CommModel::with_alpha`] applies during a calibration sweep).
    /// Per-tier effectiveness differences belong in the tiers'
    /// `bandwidth` values.
    pub fn with_topology(cluster: &ClusterSpec, alpha: f64, topology: Topology) -> Self {
        CommModel::build(cluster, alpha, topology.with_inter_tier_alpha(alpha), true)
    }

    /// [`CommModel::with_topology`] without the uniform α rewrite: every
    /// tier's declared `alpha` is used exactly as given (heterogeneous
    /// fabrics keep their per-tier effectiveness). The scalar
    /// [`alpha()`](CommModel::alpha) reports the inter-node tier's.
    pub fn with_topology_tiers(cluster: &ClusterSpec, topology: Topology) -> Self {
        let alpha = topology.tier(1.min(topology.num_tiers() - 1)).alpha;
        CommModel::build(cluster, alpha, topology, true)
    }

    fn build(cluster: &ClusterSpec, alpha: f64, topology: Topology, topology_aware: bool) -> Self {
        let intra_anchors = SWEEP_RANKS
            .iter()
            .map(|&ranks| {
                let anchors = SWEEP_MIB
                    .iter()
                    .map(|&mib| {
                        let bytes = Bytes::from_mib(mib);
                        let t = all_reduce_time(
                            bytes,
                            ranks,
                            cluster.nvlink_bus_bandwidth,
                            cluster.nvlink_latency,
                        );
                        (bytes.as_u64(), t)
                    })
                    .collect();
                (ranks, anchors)
            })
            .collect();
        CommModel {
            intra_anchors,
            inter: InterNodeModel::new(
                cluster.internode_bandwidth,
                alpha,
                cluster.internode_latency,
            ),
            nvlink_bus_bandwidth: cluster.nvlink_bus_bandwidth,
            nvlink_latency: cluster.nvlink_latency,
            internode_bandwidth: cluster.internode_bandwidth,
            internode_latency: cluster.internode_latency,
            topology,
            topology_aware,
            backend: NetworkBackend::default(),
        }
    }

    /// Returns a copy running under `backend`. The backend never changes
    /// what a lone collective costs (the flow replay reproduces the
    /// closed forms bit-for-bit without contention); it changes what
    /// *concurrent* collectives cost.
    pub fn with_backend(mut self, backend: NetworkBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The active network-cost regime.
    pub fn backend(&self) -> NetworkBackend {
        self.backend
    }

    /// Returns a copy with a different bandwidth-effectiveness factor
    /// (used by the §IV α-calibration sweep).
    pub fn with_alpha(&self, alpha: f64) -> Self {
        let mut out = self.clone();
        out.inter = InterNodeModel::new(self.internode_bandwidth, alpha, self.internode_latency);
        out.topology = self.topology.clone().with_inter_tier_alpha(alpha);
        out
    }

    /// The configured `α`.
    pub fn alpha(&self) -> f64 {
        self.inter.alpha
    }

    /// The interconnect hierarchy this model prices against.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// True if multi-tier collectives route through the `vtrain-net`
    /// algorithm library instead of the flat Equation (1) model.
    pub fn is_topology_aware(&self) -> bool {
        self.topology_aware
    }

    /// Latency of an intra-node All-Reduce by table interpolation
    /// (log-linear between profiled anchors; linear extrapolation
    /// outside). Boundary semantics match the flat primitives: zero
    /// bytes are free, a single rank pays one launch latency.
    pub fn intra_all_reduce(&self, bytes: Bytes, ranks: usize) -> TimeNs {
        if bytes == Bytes::ZERO {
            return TimeNs::ZERO;
        }
        if ranks <= 1 {
            return self.nvlink_latency;
        }
        let Some((_, anchors)) = self.intra_anchors.iter().find(|(r, _)| *r == ranks) else {
            // Unprofiled rank count: fall back to the ring model directly.
            return all_reduce_time(bytes, ranks, self.nvlink_bus_bandwidth, self.nvlink_latency);
        };
        interpolate(anchors, bytes.as_u64())
    }

    /// Latency of an operator from the execution graph.
    pub fn latency(&self, op: &CommOp) -> TimeNs {
        if self.topology_aware {
            return self.latency_topology(op);
        }
        match (op.kind, op.scope) {
            (CommKind::TpAllReduce, _) | (CommKind::DpAllReduce, CommScope::IntraNode) => {
                self.intra_all_reduce(op.bytes, op.ranks)
            }
            (CommKind::DpAllReduce, CommScope::InterNode) => {
                self.inter.all_reduce(op.bytes, op.ranks)
            }
            (CommKind::PpSendRecv, CommScope::IntraNode) => {
                send_recv_time(op.bytes, self.nvlink_bus_bandwidth, self.nvlink_latency)
            }
            (CommKind::PpSendRecv, CommScope::InterNode) => {
                send_recv_time(op.bytes, self.internode_bandwidth, self.internode_latency)
            }
        }
    }

    /// Topology-aware routing: intra-node collectives keep the profiled
    /// tables (the paper's methodology), multi-tier collectives go to
    /// the selected `vtrain-net` algorithm, and pipeline transfers price
    /// against the exact tier their boundary crosses.
    fn latency_topology(&self, op: &CommOp) -> TimeNs {
        match op.kind {
            CommKind::TpAllReduce | CommKind::DpAllReduce => {
                if op.placement.top_tier() == 0 {
                    self.intra_all_reduce(op.bytes, op.ranks)
                } else {
                    self.multi_tier_cost(op).total()
                }
            }
            CommKind::PpSendRecv => {
                let tier = self.topology.tier(op.placement.top_tier());
                send_recv_time(op.bytes, tier.effective_bandwidth(), tier.base_latency)
            }
        }
    }

    /// The collective algorithm the deterministic selector picks for
    /// `op`. The choice is keyed only by the fields an algorithm choice
    /// actually reads — collective class, payload, and placement — never
    /// by runtime flags (overlappability, interference groups), so two
    /// operators with equal selection signatures always agree.
    pub fn chosen_algorithm(&self, op: &CommOp) -> Algorithm {
        match op.kind {
            CommKind::PpSendRecv => Algorithm::Ring,
            CommKind::TpAllReduce | CommKind::DpAllReduce if self.topology_aware => {
                collective::select(&self.topology, op.placement, Collective::AllReduce, op.bytes)
            }
            CommKind::TpAllReduce | CommKind::DpAllReduce => Algorithm::Ring,
        }
    }

    /// Per-tier cost decomposition of `op`. Multi-tier collectives in
    /// topology-aware mode split across their phases; everything else is
    /// a single phase at the operator's top tier. The total always
    /// equals [`CommModel::latency`].
    pub fn breakdown(&self, op: &CommOp) -> CostBreakdown {
        let multi_tier = matches!(op.kind, CommKind::TpAllReduce | CommKind::DpAllReduce)
            && op.placement.top_tier() > 0;
        if self.topology_aware && multi_tier {
            return self.multi_tier_cost(op);
        }
        CostBreakdown {
            phases: vec![PhaseCost { tier: op.placement.top_tier(), time: self.latency(op) }],
        }
    }

    fn multi_tier_cost(&self, op: &CommOp) -> CostBreakdown {
        let algo = self.chosen_algorithm(op);
        collective::cost(&self.topology, op.placement, Collective::AllReduce, algo, op.bytes)
    }

    /// The flow program `op` contributes to the fair-sharing network —
    /// the same phases [`CommModel::latency`] prices, as bandwidth demand
    /// instead of a fixed cost.
    ///
    /// Returns `None` when `op` does not touch a shareable link under
    /// this model: the backend is [`NetworkBackend::ClosedForm`], the
    /// transfer is intra-node (profiled tables — the paper's methodology
    /// — or NVLink point-to-point, both opaque to the tier allocator),
    /// or the payload prices to zero. Such operators keep their
    /// closed-form latency even under fair sharing.
    pub fn flow_program(&self, op: &CommOp) -> Option<FlowProgram> {
        if self.backend != NetworkBackend::FairSharing || op.bytes == Bytes::ZERO {
            return None;
        }
        if self.topology_aware {
            return match op.kind {
                CommKind::TpAllReduce | CommKind::DpAllReduce => {
                    if op.placement.top_tier() == 0 {
                        None
                    } else {
                        let program = collective::plan(
                            &self.topology,
                            op.placement,
                            Collective::AllReduce,
                            self.chosen_algorithm(op),
                            op.bytes,
                        );
                        (!program.is_empty()).then_some(program)
                    }
                }
                CommKind::PpSendRecv => {
                    let tier = op.placement.top_tier();
                    (tier > 0).then(|| FlowProgram {
                        phases: vec![FlowPhase {
                            tier,
                            work: op.bytes.as_f64(),
                            latency_rounds: 1,
                        }],
                    })
                }
            };
        }
        // Flat regime: only the two Equation (1) inter-node paths cross a
        // shareable link. The flat pipeline path prices against the *raw*
        // inter-node bandwidth while tier 1's capacity is the effective
        // α·B, so its work is pre-scaled to drain in `bytes / B_raw` solo.
        match (op.kind, op.scope) {
            (CommKind::DpAllReduce, CommScope::InterNode) if op.ranks > 1 => Some(FlowProgram {
                phases: vec![FlowPhase {
                    tier: 1,
                    work: op.bytes.as_f64() * ring_factor(op.ranks),
                    latency_rounds: 1,
                }],
            }),
            (CommKind::PpSendRecv, CommScope::InterNode) => {
                let eff = self.topology.tier(1).effective_bandwidth();
                Some(FlowProgram {
                    phases: vec![FlowPhase {
                        tier: 1,
                        work: op.bytes.as_f64() * (eff / self.internode_bandwidth),
                        latency_rounds: 1,
                    }],
                })
            }
            _ => None,
        }
    }
}

/// Log-linear interpolation over `(bytes, latency)` anchors sorted by bytes.
fn interpolate(anchors: &[(u64, TimeNs)], bytes: u64) -> TimeNs {
    debug_assert!(!anchors.is_empty());
    let bytes = bytes.max(1);
    let first = anchors.first().expect("nonempty anchors");
    let last = anchors.last().expect("nonempty anchors");
    if bytes <= first.0 {
        // Below the sweep floor latency is launch-dominated: scale the
        // transfer share linearly, keep the floor's latency share.
        let scale = bytes as f64 / first.0 as f64;
        return first.1.scale(scale.max(0.05)).max(TimeNs::from_micros(5));
    }
    if bytes >= last.0 {
        let scale = bytes as f64 / last.0 as f64;
        return last.1.scale(scale);
    }
    let hi = anchors.iter().position(|(b, _)| *b >= bytes).expect("bytes below max anchor");
    let (b0, t0) = anchors[hi - 1];
    let (b1, t1) = anchors[hi];
    let frac = ((bytes as f64).ln() - (b0 as f64).ln()) / ((b1 as f64).ln() - (b0 as f64).ln());
    let t = t0.as_secs_f64() + frac * (t1.as_secs_f64() - t0.as_secs_f64());
    TimeNs::from_secs_f64(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn model() -> CommModel {
        CommModel::new(&ClusterSpec::aws_p4d(64), 1.0)
    }

    fn op(kind: CommKind, scope: CommScope, mib: u64, ranks: usize) -> CommOp {
        use vtrain_net::GroupPlacement;
        let placement = match scope {
            CommScope::IntraNode => GroupPlacement::intra_node(ranks),
            CommScope::InterNode => {
                GroupPlacement { ranks_per_node: 1, nodes_per_rack: ranks, racks: 1 }
            }
        };
        CommOp {
            kind,
            bytes: Bytes::from_mib(mib),
            ranks,
            scope,
            placement,
            overlappable: false,
            concurrent_groups: 1,
        }
    }

    #[test]
    fn interpolation_agrees_with_anchors_exactly() {
        let m = model();
        for mib in SWEEP_MIB {
            let expect = all_reduce_time(Bytes::from_mib(mib), 8, 235e9, TimeNs::from_micros(8));
            let got = m.intra_all_reduce(Bytes::from_mib(mib), 8);
            let rel = (got.as_secs_f64() - expect.as_secs_f64()).abs() / expect.as_secs_f64();
            assert!(rel < 1e-6, "anchor {mib}MiB: got {got}, expect {expect}");
        }
    }

    #[test]
    fn inter_node_uses_equation_one() {
        let m = model();
        let o = op(CommKind::DpAllReduce, CommScope::InterNode, 512, 8);
        // 512 MiB · 2·7/8 / 100 GB/s ≈ 9.4 ms (+20 µs latency).
        let t = m.latency(&o).as_secs_f64();
        assert!((t - 0.0094).abs() < 0.0005, "got {t}");
    }

    #[test]
    fn alpha_half_doubles_inter_node_time() {
        let m = model();
        let o = op(CommKind::DpAllReduce, CommScope::InterNode, 256, 16);
        let base = m.latency(&o).as_secs_f64();
        let half = m.with_alpha(0.5).latency(&o).as_secs_f64();
        assert!((half / base - 2.0).abs() < 0.01);
    }

    #[test]
    fn alpha_does_not_touch_intra_node() {
        let m = model();
        let o = op(CommKind::TpAllReduce, CommScope::IntraNode, 64, 8);
        assert_eq!(m.latency(&o), m.with_alpha(0.3).latency(&o));
    }

    #[test]
    fn pp_send_recv_cheaper_than_all_reduce() {
        // §II-B: Send-Receive just moves the payload once; All-Reduce moves
        // ~2× across the ring.
        let m = model();
        let send = m.latency(&op(CommKind::PpSendRecv, CommScope::InterNode, 128, 2));
        let ar = m.latency(&op(CommKind::DpAllReduce, CommScope::InterNode, 128, 8));
        assert!(send < ar);
    }

    #[test]
    fn unprofiled_rank_count_falls_back_to_ring_model() {
        let m = model();
        let got = m.intra_all_reduce(Bytes::from_mib(64), 6);
        let expect = all_reduce_time(Bytes::from_mib(64), 6, 235e9, TimeNs::from_micros(8));
        assert_eq!(got, expect);
    }

    fn aware_model() -> CommModel {
        let cluster = ClusterSpec::aws_p4d(64);
        CommModel::with_topology(&cluster, 1.0, cluster.topology(1.0))
    }

    #[test]
    fn flat_is_the_default_and_aware_opts_in() {
        assert!(!model().is_topology_aware());
        assert!(aware_model().is_topology_aware());
        assert_eq!(model().topology().num_tiers(), 2);
    }

    #[test]
    fn aware_intra_node_keeps_the_profiled_tables() {
        let flat = model();
        let aware = aware_model();
        for mib in [1, 16, 256] {
            let o = op(CommKind::TpAllReduce, CommScope::IntraNode, mib, 8);
            assert_eq!(flat.latency(&o), aware.latency(&o), "intra path must stay table-driven");
        }
    }

    #[test]
    fn aware_multi_node_all_reduce_goes_hierarchical_and_beats_flat() {
        let flat = model();
        let aware = aware_model();
        // A d = 8 gradient All-Reduce with full nodes on each side: the
        // hierarchical algorithm only sends S/8 across InfiniBand.
        let mut o = op(CommKind::DpAllReduce, CommScope::InterNode, 512, 8);
        o.placement = vtrain_net::GroupPlacement { ranks_per_node: 8, nodes_per_rack: 8, racks: 1 };
        assert_eq!(aware.chosen_algorithm(&o), Algorithm::Hierarchical);
        assert!(aware.latency(&o) < flat.latency(&o));
        let b = aware.breakdown(&o);
        assert_eq!(b.total(), aware.latency(&o));
        assert!(b.phases.len() >= 3, "reduce-scatter / inter ring / all-gather phases");
    }

    #[test]
    fn aware_spread_group_falls_back_to_the_flat_ring() {
        let aware = aware_model();
        // One rank per node: nothing to reduce locally; ring at the
        // inter-node tier is exactly Equation (1).
        let o = op(CommKind::DpAllReduce, CommScope::InterNode, 256, 8);
        assert_eq!(aware.chosen_algorithm(&o), Algorithm::Ring);
        assert_eq!(aware.latency(&o), model().latency(&o));
    }

    #[test]
    fn aware_pp_transfer_prices_the_crossed_tier() {
        let aware = aware_model();
        let intra = op(CommKind::PpSendRecv, CommScope::IntraNode, 64, 2);
        let mut inter = op(CommKind::PpSendRecv, CommScope::InterNode, 64, 2);
        inter.placement = vtrain_net::GroupPlacement::pair(1);
        assert_eq!(aware.latency(&intra), model().latency(&intra));
        assert_eq!(aware.latency(&inter), model().latency(&inter));
        assert!(aware.latency(&intra) < aware.latency(&inter));
    }

    #[test]
    fn breakdown_total_always_matches_latency() {
        for m in [model(), aware_model()] {
            for (kind, scope) in [
                (CommKind::TpAllReduce, CommScope::IntraNode),
                (CommKind::DpAllReduce, CommScope::IntraNode),
                (CommKind::DpAllReduce, CommScope::InterNode),
                (CommKind::PpSendRecv, CommScope::InterNode),
            ] {
                let o = op(kind, scope, 128, 8);
                assert_eq!(m.breakdown(&o).total(), m.latency(&o), "{kind:?}/{scope:?}");
            }
        }
    }

    #[test]
    fn aware_alpha_recalibrates_the_inter_tiers() {
        let aware = aware_model();
        let mut o = op(CommKind::DpAllReduce, CommScope::InterNode, 512, 8);
        o.placement = vtrain_net::GroupPlacement { ranks_per_node: 8, nodes_per_rack: 8, racks: 1 };
        let half = aware.with_alpha(0.5);
        assert!(half.is_topology_aware(), "alpha sweep keeps the regime");
        let b_full = aware.breakdown(&o);
        let b_half = half.breakdown(&o);
        // Intra phases untouched; inter phase slower with α = 0.5.
        assert_eq!(b_full.tier_time(0), b_half.tier_time(0));
        assert!(b_half.tier_time(1) > b_full.tier_time(1));
    }

    #[test]
    fn closed_form_backend_never_emits_flow_programs() {
        for m in [model(), aware_model()] {
            assert_eq!(m.backend(), NetworkBackend::ClosedForm);
            for (kind, scope) in [
                (CommKind::TpAllReduce, CommScope::IntraNode),
                (CommKind::DpAllReduce, CommScope::InterNode),
                (CommKind::PpSendRecv, CommScope::InterNode),
            ] {
                assert!(m.flow_program(&op(kind, scope, 128, 8)).is_none());
            }
        }
    }

    #[test]
    fn solo_flow_replay_matches_latency_for_every_link_crossing_op() {
        use vtrain_net::FlowSim;
        for m in [model(), aware_model()] {
            let m = m.with_backend(NetworkBackend::FairSharing);
            let mut hier = op(CommKind::DpAllReduce, CommScope::InterNode, 512, 64);
            hier.placement =
                vtrain_net::GroupPlacement { ranks_per_node: 8, nodes_per_rack: 8, racks: 1 };
            let mut pp = op(CommKind::PpSendRecv, CommScope::InterNode, 64, 2);
            pp.placement = vtrain_net::GroupPlacement::pair(1);
            for o in [op(CommKind::DpAllReduce, CommScope::InterNode, 256, 8), hier, pp] {
                let program = m.flow_program(&o).expect("inter-node ops cross a link");
                let mut sim = FlowSim::new(m.topology());
                sim.start(TimeNs::ZERO, &program);
                let done = sim.drain_all();
                let want = m.latency(&o);
                let rel = (done.as_secs_f64() - want.as_secs_f64()).abs() / want.as_secs_f64();
                assert!(rel < 1e-6, "{:?}: replay {done} vs latency {want}", o.kind);
            }
        }
    }

    #[test]
    fn intra_node_ops_stay_on_the_closed_form_even_under_fair_sharing() {
        let m = aware_model().with_backend(NetworkBackend::FairSharing);
        assert_eq!(m.backend(), NetworkBackend::FairSharing);
        assert!(m.flow_program(&op(CommKind::TpAllReduce, CommScope::IntraNode, 64, 8)).is_none());
        assert!(m.flow_program(&op(CommKind::PpSendRecv, CommScope::IntraNode, 64, 2)).is_none());
        assert!(m.flow_program(&op(CommKind::DpAllReduce, CommScope::InterNode, 0, 8)).is_none());
    }

    proptest! {
        #[test]
        fn interpolated_latency_monotone_in_bytes(a in 1u64..2048, b in 1u64..2048) {
            let m = model();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let tl = m.intra_all_reduce(Bytes::from_mib(lo), 8);
            let th = m.intra_all_reduce(Bytes::from_mib(hi), 8);
            prop_assert!(tl <= th, "{}MiB -> {}, {}MiB -> {}", lo, tl, hi, th);
        }
    }
}
