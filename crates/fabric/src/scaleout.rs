//! Bulk-synchronous scale-out estimation over a simulated fabric.
//!
//! The analytic scaling path ([`project_system`]) multiplies node
//! throughput by the node count: communication is free. This module
//! simulates what the analytic path abstracts away. One iteration of a
//! bulk-synchronous application is
//!
//! ```text
//! iteration = max over nodes (compute x straggler slowdown)
//!           + halo exchange + all-reduce
//! ```
//!
//! with the collective times compiled against the concrete (possibly
//! degraded) fabric by [`crate::collective::schedule`]. The fraction of
//! the iteration a *healthy* node spends computing is the fleet
//! efficiency; achieved exaflops are the linear projection derated by
//! exactly that factor — computed with the same floating-point
//! expression as [`SystemProjection::derated`], so at full health the
//! analytic and simulated paths agree *bitwise*, and the end-to-end
//! consistency suite can assert equality rather than tolerance.
//!
//! [`project_system`]: ena_core::system::project_system
//! [`SystemProjection`]: ena_core::system::SystemProjection

use std::collections::BTreeMap;

use ena_core::node::{EvalOptions, NodeSimulator};
use ena_core::system::SystemProjection;
use ena_model::config::EhpConfig;
use ena_model::hash::{StableHash, StableHasher};
use ena_workloads::profile_for;

use crate::collective::{schedule, CollectiveKind};
use crate::topology::{FabricError, FabricGraph};

/// Relative tolerance within which the analytic linear projection must
/// agree with the simulated fabric estimate at small node counts
/// (N in {2, 4, 8}).
///
/// The gap between the two paths *is* the communication efficiency
/// `1 - e`: the linear projection assumes `e = 1`. With the standard
/// 8 GB working set, the compute phase of a memory-bound kernel runs
/// ~2.7 ms while halo + all-reduce cost tens to a few hundred
/// microseconds on any shipped topology, so `e` stays above 0.9 at
/// small N and the relative gap below this bound. A breach means a
/// calibration drifted on one side — the consistency suite in
/// `tests/end_to_end.rs` exists to catch exactly that.
pub const SMALL_N_TOLERANCE: f64 = 0.10;

/// Everything that determines one scale-out estimate besides the fabric.
#[derive(Clone, Debug)]
pub struct ScaleOutSpec {
    /// Paper workload driving the node model (e.g. `"CoMD"`).
    pub workload: String,
    /// Per-node hardware configuration.
    pub base: EhpConfig,
    /// Per-node working set in bytes (sets the compute phase and, via
    /// its surface-to-volume ratio, the halo size).
    pub payload_bytes: f64,
    /// Per-node all-reduce contribution in bytes (residuals, dot
    /// products).
    pub reduce_bytes: f64,
}

impl ScaleOutSpec {
    /// The standard fleet spec: paper-baseline nodes, an 8 GB working
    /// set (the EHP's in-package capacity), 1 MB reductions.
    pub fn standard(workload: impl Into<String>) -> Self {
        Self {
            workload: workload.into(),
            base: EhpConfig::paper_baseline(),
            payload_bytes: 8e9,
            reduce_bytes: 1e6,
        }
    }

    /// Halo bytes from the working set's surface-to-volume ratio: a 3D
    /// domain of `V` bytes has faces of order `V^(2/3)`.
    pub fn halo_bytes(&self) -> f64 {
        self.payload_bytes.max(0.0).powf(2.0 / 3.0)
    }
}

/// Every field shapes an estimate, so every field is hashed: fabric
/// sweeps fold this digest into their cache campaign keys.
impl StableHash for ScaleOutSpec {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_str(&self.workload);
        self.base.stable_hash(h);
        h.write_f64(self.payload_bytes);
        h.write_f64(self.reduce_bytes);
    }
}

/// One fleet-level estimate over a concrete fabric state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScaleOutEstimate {
    /// Surviving nodes.
    pub nodes_alive: usize,
    /// Healthy-node compute phase (us).
    pub compute_us: f64,
    /// Slowest node's compute phase after straggler slowdowns (us).
    pub slowest_compute_us: f64,
    /// Halo exchange + all-reduce time on this fabric (us).
    pub comm_us: f64,
    /// Fraction of the iteration a healthy node spends computing.
    pub efficiency: f64,
    /// Achieved fleet throughput in exaflops.
    pub exaflops: f64,
    /// Fleet power in megawatts (stragglers and blocked nodes still
    /// burn full power).
    pub power_mw: f64,
    /// Per-node throughput in teraflops.
    pub node_teraflops: f64,
}

impl ScaleOutEstimate {
    /// Relative gap between this estimate and an analytic projection's
    /// exaflops (the quantity bounded by [`SMALL_N_TOLERANCE`]).
    pub fn analytic_gap(&self, projection: &SystemProjection) -> f64 {
        if projection.exaflops == 0.0 {
            0.0
        } else {
            (self.exaflops - projection.exaflops).abs() / projection.exaflops
        }
    }
}

/// Estimates fleet throughput for `spec` on the current state of
/// `graph`, with `stragglers` mapping node index to compute-slowdown
/// factor (1.0 = healthy; dead nodes are read from the graph).
///
/// # Errors
///
/// [`FabricError::UnknownWorkload`] for an uncalibrated workload name,
/// plus any routing error while compiling the collectives.
pub fn estimate(
    graph: &FabricGraph,
    spec: &ScaleOutSpec,
    stragglers: &BTreeMap<u32, f64>,
) -> Result<ScaleOutEstimate, FabricError> {
    let profile = profile_for(&spec.workload)
        .ok_or_else(|| FabricError::UnknownWorkload(spec.workload.clone()))?;
    let sim = NodeSimulator::new();
    let eval = sim.evaluate(&spec.base, &profile, &EvalOptions::default());
    let node_gflops = eval.perf.throughput.value();
    let node_tf = eval.perf.throughput.teraflops();

    // Compute phase: the iteration touches the working set once at the
    // kernel's arithmetic intensity, at the node's *achieved* rate.
    let ops = spec.payload_bytes * profile.ops_per_byte.max(1e-6);
    let compute_us = if node_gflops > 0.0 {
        ops / (node_gflops * 1e3)
    } else {
        0.0
    };

    // Bulk-synchronous barrier: everyone waits for the slowest node.
    let alive = graph.alive_ehp();
    let worst_slowdown = alive
        .iter()
        .map(|&i| stragglers.get(&(i as u32)).copied().unwrap_or(1.0).max(1.0))
        .fold(1.0f64, f64::max);
    let slowest_compute_us = compute_us * worst_slowdown;

    let halo = schedule(graph, CollectiveKind::HaloExchange, spec.halo_bytes())?;
    let reduce = schedule(graph, CollectiveKind::AllReduceRing, spec.reduce_bytes)?;
    let comm_us = halo.total.value() + reduce.total.value();

    let iteration_us = slowest_compute_us + comm_us;
    let efficiency = if iteration_us > 0.0 {
        compute_us / iteration_us
    } else {
        1.0
    };

    // Bitwise-identical to project_system(..).derated(efficiency) for a
    // fully-alive fleet: same sub-expressions in the same order.
    let exaflops = (node_tf * alive.len() as f64 / 1e6) * efficiency.clamp(0.0, 1.0);
    let power_mw = eval.node_power().value() * alive.len() as f64 / 1e6;

    Ok(ScaleOutEstimate {
        nodes_alive: alive.len(),
        compute_us,
        slowest_compute_us,
        comm_us,
        efficiency,
        exaflops,
        power_mw,
        node_teraflops: node_tf,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FabricKind;
    use ena_core::system::project_system;

    fn healthy_estimate(kind: FabricKind, nodes: u32) -> ScaleOutEstimate {
        let graph = FabricGraph::build(kind, nodes).unwrap();
        estimate(&graph, &ScaleOutSpec::standard("CoMD"), &BTreeMap::new()).unwrap()
    }

    #[test]
    fn healthy_fleets_are_communication_efficient() {
        for kind in FabricKind::ALL {
            let est = healthy_estimate(kind, 8);
            assert!(
                est.efficiency > 1.0 - SMALL_N_TOLERANCE && est.efficiency <= 1.0,
                "{kind}: efficiency = {}",
                est.efficiency
            );
            assert!(est.comm_us > 0.0);
            assert!(est.compute_us > est.comm_us);
        }
    }

    #[test]
    fn the_estimate_matches_the_derated_projection_bitwise() {
        let spec = ScaleOutSpec::standard("CoMD");
        let profile = profile_for("CoMD").unwrap();
        for nodes in [2u32, 4, 8] {
            let est = healthy_estimate(FabricKind::Torus, nodes);
            let projection = project_system(
                &NodeSimulator::new(),
                &spec.base,
                &profile,
                &EvalOptions::default(),
                u64::from(nodes),
            );
            let derated = projection.derated(est.efficiency);
            assert_eq!(est.exaflops, derated.exaflops, "nodes = {nodes}");
            assert!(est.analytic_gap(&projection) < SMALL_N_TOLERANCE);
        }
    }

    #[test]
    fn stragglers_stretch_the_barrier_without_changing_power() {
        let graph = FabricGraph::build(FabricKind::DragonflyLite, 16).unwrap();
        let spec = ScaleOutSpec::standard("CoMD");
        let healthy = estimate(&graph, &spec, &BTreeMap::new()).unwrap();
        let mut stragglers = BTreeMap::new();
        stragglers.insert(5u32, 1.5);
        let slow = estimate(&graph, &spec, &stragglers).unwrap();
        assert!(slow.slowest_compute_us > healthy.slowest_compute_us);
        assert!(slow.efficiency < healthy.efficiency);
        assert!(slow.exaflops < healthy.exaflops);
        assert_eq!(slow.power_mw, healthy.power_mw);
        // Sub-unity slowdowns clamp to healthy rather than speeding up.
        let mut bogus = BTreeMap::new();
        bogus.insert(5u32, 0.5);
        let clamped = estimate(&graph, &spec, &bogus).unwrap();
        assert_eq!(clamped.slowest_compute_us, healthy.slowest_compute_us);
    }

    #[test]
    fn dead_nodes_shrink_the_fleet() {
        let mut graph = FabricGraph::build(FabricKind::Torus, 16).unwrap();
        let spec = ScaleOutSpec::standard("CoMD");
        let healthy = estimate(&graph, &spec, &BTreeMap::new()).unwrap();
        graph.fail_ehp(7).unwrap();
        let degraded = estimate(&graph, &spec, &BTreeMap::new()).unwrap();
        assert_eq!(degraded.nodes_alive, 15);
        assert!(degraded.exaflops < healthy.exaflops);
        assert!(degraded.power_mw < healthy.power_mw);
    }

    #[test]
    fn unknown_workloads_are_errors() {
        let graph = FabricGraph::build(FabricKind::Torus, 4).unwrap();
        let mut spec = ScaleOutSpec::standard("CoMD");
        spec.workload = "NoSuchKernel".into();
        assert!(matches!(
            estimate(&graph, &spec, &BTreeMap::new()),
            Err(FabricError::UnknownWorkload(_))
        ));
    }
}
