//! Benchmarks the wavefront timing simulator on validation's CU setup:
//! LULESH (memory-bound, the scheduling scan) and MaxFlops (compute-bound,
//! the compute-train step), each over the fixed-latency pipe and the
//! banked-HBM backend.
//!
//! Run with `cargo bench -p ena-bench --features timing --bench gpu_timing`.
//! The measurements land in `artifacts/BENCH_gpu_timing.json`, guarded
//! against the previous run's by `Harness::record_guarded`.

use ena_gpu::backend::{FixedLatency, HbmBackend};
use ena_gpu::sim::{CuConfig, GpuSim};
use ena_gpu::synth::wavefronts_for;
use ena_testkit::timing::Harness;
use ena_workloads::profile_for;

fn main() {
    let mut h = Harness::new("gpu_timing");
    let mut results = Vec::new();
    for app in ["LULESH", "MaxFlops"] {
        let profile = profile_for(app).unwrap();
        let wavefronts = wavefronts_for(&profile, 24, 7);
        let fixed = h
            .bench(&format!("{app}/fixed_latency"), || {
                let mut mem = FixedLatency::new(170, 7);
                GpuSim::new(CuConfig::default(), &mut mem).run(&wavefronts)
            })
            .clone();
        let banked = h
            .bench(&format!("{app}/hbm_backend"), || {
                let mut mem = HbmBackend::new(8);
                GpuSim::new(CuConfig::default(), &mut mem).run(&wavefronts)
            })
            .clone();
        results.extend([fixed, banked]);
    }
    h.record_guarded(&results.iter().collect::<Vec<_>>());
}
