//! Cross-validation of the analytic model against the cycle-approximate
//! wavefront timing simulator (the paper's "use gem5-APU to adjust the
//! high-level simulation" step, Section III).
//!
//! For every workload profile we synthesize wavefront programs, run them
//! on one timing-simulated CU with a bandwidth share matching the baseline
//! configuration, and compare the achieved compute efficiency against the
//! analytic model's prediction. The two views are built from the same
//! profile parameters through entirely different mechanisms, so agreement
//! in *ordering* (and rough magnitude) is real evidence the analytic
//! shortcuts are sound.

use ena_core::perf::PerfModel;
use ena_gpu::backend::{FixedLatency, HbmBackend};
use ena_gpu::sim::{CuConfig, GpuSim};
use ena_gpu::synth::wavefronts_for;
use ena_model::config::EhpConfig;
use ena_workloads::paper_profiles;

use crate::TextTable;

/// One workload's pair of efficiency estimates.
#[derive(Clone, Debug, PartialEq)]
pub struct ValidationRow {
    /// Application name.
    pub app: String,
    /// Analytic model: achieved/peak throughput at the baseline.
    pub analytic_efficiency: f64,
    /// Timing simulation: achieved/peak FLOPs per cycle on one CU.
    pub simulated_efficiency: f64,
    /// Timing simulation over the banked-HBM backend (row conflicts and
    /// bank queueing included).
    pub simulated_hbm_efficiency: f64,
}

/// Computes the validation rows.
pub fn rows() -> Vec<ValidationRow> {
    let config = EhpConfig::paper_baseline();
    let peak = config.gpu.peak_throughput().value();
    let analytic = PerfModel::default();

    // Per-CU bandwidth share of the baseline: 3 TB/s over 320 CUs at
    // 1 GHz is ~9.4 B/cycle, i.e. one 64 B line every ~7 cycles.
    let cycles_per_request = 7;
    let hbm_latency = 170;

    paper_profiles()
        .iter()
        .map(|p| {
            let analytic_eff = analytic.evaluate(&config, p, 0.15).throughput.value() / peak;

            let wavefronts = wavefronts_for(p, 24, 0xABCD);
            let mut memory = FixedLatency::new(hbm_latency, cycles_per_request);
            let stats = GpuSim::new(CuConfig::default(), &mut memory).run(&wavefronts);
            // One CU peaks at 64 DP FLOPs per cycle.
            let simulated_eff = stats.flops_per_cycle() / 64.0;

            let mut banked = HbmBackend::new(8);
            let hbm_stats = GpuSim::new(CuConfig::default(), &mut banked).run(wavefronts);
            let simulated_hbm_eff = hbm_stats.flops_per_cycle() / 64.0;

            ValidationRow {
                app: p.name.clone(),
                analytic_efficiency: analytic_eff,
                simulated_efficiency: simulated_eff,
                simulated_hbm_efficiency: simulated_hbm_eff,
            }
        })
        .collect()
}

/// Spearman-style rank agreement between the two views (1.0 = identical
/// ordering).
pub fn rank_agreement(rows: &[ValidationRow]) -> f64 {
    let rank = |key: &dyn Fn(&ValidationRow) -> f64| -> Vec<usize> {
        let mut idx: Vec<usize> = (0..rows.len()).collect();
        idx.sort_by(|&a, &b| key(&rows[a]).partial_cmp(&key(&rows[b])).expect("finite"));
        let mut ranks = vec![0usize; rows.len()];
        for (r, &i) in idx.iter().enumerate() {
            ranks[i] = r;
        }
        ranks
    };
    let ra = rank(&|r: &ValidationRow| r.analytic_efficiency);
    let rs = rank(&|r: &ValidationRow| r.simulated_efficiency);
    let n = rows.len() as f64;
    let d2: f64 = ra
        .iter()
        .zip(&rs)
        .map(|(&a, &b)| ((a as f64) - (b as f64)).powi(2))
        .sum();
    1.0 - 6.0 * d2 / (n * (n * n - 1.0))
}

/// Regenerates the validation report.
pub fn run() -> String {
    let rs = rows();
    let mut t = TextTable::new([
        "app",
        "analytic eff.",
        "timing-sim eff.",
        "timing-sim eff. (banked HBM)",
    ]);
    for r in &rs {
        t.row([
            r.app.clone(),
            format!("{:.3}", r.analytic_efficiency),
            format!("{:.3}", r.simulated_efficiency),
            format!("{:.3}", r.simulated_hbm_efficiency),
        ]);
    }
    format!(
        "Validation: analytic model vs wavefront timing simulation\n\
         (compute efficiency = achieved/peak DP throughput at the baseline)\n\n{}\n\
         rank agreement (Spearman): {:.2}\n",
        t.render(),
        rank_agreement(&rs)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_two_views_rank_workloads_consistently() {
        let rs = rows();
        let rho = rank_agreement(&rs);
        assert!(rho > 0.7, "rank agreement {rho}:\n{rs:#?}");
    }

    #[test]
    fn maxflops_is_near_peak_in_both_views() {
        let rs = rows();
        let mf = rs.iter().find(|r| r.app == "MaxFlops").unwrap();
        assert!(mf.analytic_efficiency > 0.8, "{mf:?}");
        assert!(mf.simulated_efficiency > 0.5, "{mf:?}");
    }

    #[test]
    fn memory_intensive_apps_are_far_from_peak_in_both_views() {
        let rs = rows();
        for name in ["XSBench", "LULESH"] {
            let r = rs.iter().find(|r| r.app == name).unwrap();
            assert!(r.analytic_efficiency < 0.3, "{r:?}");
            assert!(r.simulated_efficiency < 0.4, "{r:?}");
        }
    }

    #[test]
    fn the_banked_backend_orders_apps_like_the_idealized_pipe() {
        // Bank conflicts and row misses move the magnitudes, not the
        // ordering: MaxFlops on top, XSBench at the bottom.
        let rs = rows();
        let eff = |name: &str| {
            rs.iter()
                .find(|r| r.app == name)
                .unwrap()
                .simulated_hbm_efficiency
        };
        assert!(eff("MaxFlops") > 0.5);
        assert!(eff("XSBench") < eff("MaxFlops"));
        assert!(eff("XSBench") < eff("CoMD"));
    }
}
