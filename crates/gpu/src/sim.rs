//! The wavefront-level timing simulator.
//!
//! Models one or more compute units, each multiplexing a set of wavefront
//! contexts over its SIMD issue slots. Wavefronts hide memory latency by
//! switching: while one waits on outstanding requests, others issue. This
//! is the mechanism behind the paper's Finding that "the GPU's massive
//! parallelism is effective at latency hiding" (Section V-A), and the
//! cycle-level complement to the analytic model's `parallelism` /
//! `latency_sensitivity` parameters.
//!
//! # The scheduling rule
//!
//! Time advances in scheduler iterations. One iteration at cycle `now`
//! visits every wavefront once, round-robin from a pointer that moves by
//! one per iteration, and stops after `issue_width` issues:
//!
//! - a `Compute` issues if the wavefront's SIMD is idle and a shared
//!   compute pipe is free, holding both for the op's cycles;
//! - a `Load`/`Store` issues into the memory backend if fewer than
//!   `max_outstanding` of the wavefront's requests are in flight;
//! - a `Wait` retires, without using an issue slot, once few enough
//!   requests remain in flight.
//!
//! An iteration that issued anything is followed by one at `now + 1`. A
//! fully stalled one jumps to the earliest cycle at which any wavefront
//! could progress, with one coarsening, the *stall-jump rule*: when that
//! cycle is `now + 1` and every compute pipe is busy, the jump goes to the
//! first pipe-free cycle instead. The rule exists for compute wavefronts
//! gated on a pipe, but it applies to every wavefront, so a
//! memory-blocked wavefront whose requests complete before the pipe frees
//! is not resumed until it does. Correcting the rule moves the validation
//! report's efficiencies by up to 0.07 (EXPERIMENTS.md, "Validation"); it
//! is kept so the reported numbers stay pinned.
//!
//! # The event loop
//!
//! [`GpuSim::run`] executes exactly the iterations above, but does not
//! scan every wavefront in each:
//!
//! - Each wavefront keeps a *wake* cycle, the first at which its current
//!   op could issue: the later of its SIMD's idle cycle and the completion
//!   that brings its in-flight requests under the op's limit. The wake
//!   changes only when the wavefront advances, so completed requests are
//!   drained lazily.
//! - Wavefronts whose wake has passed sit in a bitset scanned in
//!   round-robin order; blocked ones sit in a min-heap of wake cycles; a
//!   wavefront holding a compute pipe is woken by that pipe, because it
//!   becomes idle exactly when the pipe frees. The stall jump is computed
//!   from these three, not from a scan.
//! - The *compute-train step* fuses two iterations into one. With a single
//!   free pipe, only `Compute` ops ready, a chosen op of at least two
//!   cycles, another ready wavefront left behind and nothing waking at
//!   `now + 1`, the next two iterations are determined: one issue, then a
//!   stall that jumps to the pipe-free cycle. Compute-bound kernels such as
//!   MaxFlops spend nearly all their time in such trains.
//!
//! The contract is exactness: `run` returns bit-identical [`TimingStats`]
//! and makes the same backend requests, in the same order and at the same
//! cycles, as a plain loop that scans every wavefront in every iteration.
//! The tests keep that loop as a differential oracle.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::backend::MemoryBackend;
use crate::program::{Op, WavefrontProgram};

/// Configuration of one simulated compute unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CuConfig {
    /// Ops issued per cycle across ready wavefronts (SIMD scheduler width).
    /// Values below 1 are treated as 1.
    pub issue_width: u32,
    /// Maximum in-flight memory requests per wavefront. Values below 1 are
    /// treated as 1: with none allowed a load could never issue.
    pub max_outstanding: u32,
    /// Shared compute pipelines: a `Compute` op occupies one for its full
    /// duration. One pipe at 64 FLOPs/cycle models a whole CU's vector
    /// throughput. Values below 1 are treated as 1.
    pub compute_pipes: u32,
}

impl Default for CuConfig {
    fn default() -> Self {
        Self {
            issue_width: 4,
            max_outstanding: 8,
            compute_pipes: 1,
        }
    }
}

/// Aggregate results of a timing simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimingStats {
    /// Total cycles until the last wavefront finished.
    pub cycles: u64,
    /// DP FLOPs retired.
    pub flops: u64,
    /// Memory requests issued.
    pub requests: u64,
    /// Issue slots actually used.
    pub issued_ops: u64,
    /// Issue slots available (`cycles x issue_width x CUs`).
    pub issue_slots: u64,
}

impl TimingStats {
    /// Achieved FLOPs per cycle.
    pub fn flops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.flops as f64 / self.cycles as f64
        }
    }

    /// Fraction of issue slots used.
    pub fn issue_utilization(&self) -> f64 {
        if self.issue_slots == 0 {
            0.0
        } else {
            self.issued_ops as f64 / self.issue_slots as f64
        }
    }
}

/// One wavefront's execution state.
struct Wave<'p> {
    ops: &'p [Op],
    pc: usize,
    /// The SIMD is occupied by this wavefront's compute until this cycle.
    busy_until: u64,
    /// Completion cycles of issued requests, ascending. Completed entries
    /// are dropped only when a new request issues: `wake` counts back from
    /// the latest completions, so stale early entries do not change it.
    outstanding: Vec<u64>,
    /// The first cycle at which the current op can issue, pipe permitting.
    wake: u64,
}

impl Wave<'_> {
    fn op(&self) -> Option<Op> {
        self.ops.get(self.pc).copied()
    }

    fn at_compute(&self) -> bool {
        matches!(self.op(), Some(Op::Compute { .. }))
    }

    /// Moves to the next op and recomputes `wake` for it.
    fn advance(&mut self, max_outstanding: usize) {
        self.pc += 1;
        // In-flight requests the op tolerates.
        let limit = match self.op() {
            Some(Op::Load { .. } | Op::Store { .. }) => max_outstanding - 1,
            Some(Op::Wait { max_outstanding }) => max_outstanding as usize,
            _ => usize::MAX,
        };
        // The op waits for all but `limit` of the latest completions.
        let memory = self
            .outstanding
            .len()
            .checked_sub(limit.saturating_add(1))
            .map_or(0, |i| self.outstanding[i]);
        self.wake = self.busy_until.max(memory);
    }
}

/// A set of wavefront indices as a word bitset.
struct IndexSet {
    words: Vec<u64>,
    len: usize,
}

impl IndexSet {
    fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
            len: 0,
        }
    }

    fn insert(&mut self, i: usize) {
        let bit = 1u64 << (i % 64);
        if self.words[i / 64] & bit == 0 {
            self.words[i / 64] |= bit;
            self.len += 1;
        }
    }

    fn remove(&mut self, i: usize) {
        let bit = 1u64 << (i % 64);
        if self.words[i / 64] & bit != 0 {
            self.words[i / 64] &= !bit;
            self.len -= 1;
        }
    }

    /// The smallest member in `from..to`.
    fn first_in(&self, from: usize, to: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = self.words.get(word)? & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                let i = word * 64 + bits.trailing_zeros() as usize;
                return (i < to).then_some(i);
            }
            word += 1;
            if word * 64 >= to {
                return None;
            }
            bits = *self.words.get(word)?;
        }
    }
}

/// One shared compute pipe.
#[derive(Clone, Copy)]
struct Pipe {
    /// Busy until this cycle.
    free: u64,
    /// The live wavefront whose compute holds the pipe; it wakes when the
    /// pipe frees.
    owner: Option<usize>,
}

/// The event loop's bookkeeping: every live wavefront is in exactly one of
/// `ready`, `blocked` or a pipe's `owner`.
struct Scheduler<'p> {
    waves: Vec<Wave<'p>>,
    max_outstanding: usize,
    /// Wavefronts whose wake has passed.
    ready: IndexSet,
    /// Ready wavefronts whose current op is not a `Compute`.
    ready_memory: usize,
    /// Blocked wavefronts by wake cycle.
    blocked: BinaryHeap<Reverse<(u64, usize)>>,
    pipes: Vec<Pipe>,
    /// Wavefronts with ops left.
    live: usize,
    /// The latest compute end or request completion so far.
    drain: u64,
}

impl<'p> Scheduler<'p> {
    fn new(programs: &'p [WavefrontProgram], config: &CuConfig) -> Self {
        let mut s = Self {
            waves: programs
                .iter()
                .map(|p| Wave {
                    ops: p.ops(),
                    pc: 0,
                    busy_until: 0,
                    outstanding: Vec::new(),
                    wake: 0,
                })
                .collect(),
            max_outstanding: config.max_outstanding.max(1) as usize,
            ready: IndexSet::new(programs.len()),
            ready_memory: 0,
            blocked: BinaryHeap::new(),
            pipes: vec![
                Pipe {
                    free: 0,
                    owner: None
                };
                config.compute_pipes.max(1) as usize
            ],
            live: 0,
            drain: 0,
        };
        for w in 0..s.waves.len() {
            if s.waves[w].op().is_some() {
                s.live += 1;
                s.place(w, 0);
            }
        }
        s
    }

    /// Files a live wavefront that is in no set by its wake cycle.
    fn place(&mut self, w: usize, now: u64) {
        let wave = &self.waves[w];
        if wave.wake > now {
            self.blocked.push(Reverse((wave.wake, w)));
        } else {
            self.ready_memory += usize::from(!wave.at_compute());
            self.ready.insert(w);
        }
    }

    /// Moves every wavefront whose wake has come to `ready`.
    fn wake_up(&mut self, now: u64) {
        for p in 0..self.pipes.len() {
            let pipe = self.pipes[p];
            if let Some(w) = pipe.owner.filter(|_| pipe.free <= now) {
                self.pipes[p].owner = None;
                self.place(w, now);
            }
        }
        while let Some(&Reverse((wake, w))) = self.blocked.peek() {
            if wake > now {
                break;
            }
            self.blocked.pop();
            self.place(w, now);
        }
    }

    /// The compute-train step at `now`: if the next two iterations are one
    /// issue and a stall to pipe-free time, issues that op and returns the
    /// pipe-free cycle.
    fn train(&mut self, now: u64, rr: usize, stats: &mut TimingStats) -> Option<u64> {
        let [pipe] = self.pipes.as_slice() else {
            return None;
        };
        let waking = self
            .blocked
            .peek()
            .is_some_and(|&Reverse((wake, _))| wake <= now + 1);
        if pipe.free > now || self.ready.len < 2 || self.ready_memory > 0 || waking {
            return None;
        }
        let n = self.waves.len();
        let w = self
            .ready
            .first_in(rr, n)
            .or_else(|| self.ready.first_in(0, rr))?;
        match self.waves[w].op() {
            Some(Op::Compute { cycles, flops }) if cycles >= 2 => {
                Some(self.compute(w, 0, now, cycles, flops, stats))
            }
            _ => None,
        }
    }

    /// Issues or retires ready wavefront `w`'s current op at `now`.
    /// Returns whether it took an issue slot; a `Compute` with no free pipe
    /// stays ready and takes none.
    fn step<B: MemoryBackend>(
        &mut self,
        w: usize,
        now: u64,
        backend: &mut B,
        stats: &mut TimingStats,
    ) -> bool {
        match self.waves[w].op() {
            None => false,
            Some(Op::Compute { cycles, flops }) => {
                let Some(p) = self.pipes.iter().position(|p| p.free <= now) else {
                    return false;
                };
                self.compute(w, p, now, cycles, flops, stats);
                true
            }
            Some(op) => {
                self.ready_memory -= 1;
                self.ready.remove(w);
                let wave = &mut self.waves[w];
                let issued = if let Op::Load { addr } | Op::Store { addr } = op {
                    let complete = backend.request(addr, matches!(op, Op::Store { .. }), now);
                    wave.outstanding.retain(|&c| c > now);
                    let at = wave.outstanding.partition_point(|&c| c <= complete);
                    wave.outstanding.insert(at, complete);
                    stats.requests += 1;
                    self.drain = self.drain.max(complete);
                    true
                } else {
                    // A satisfied `Wait` retires without an issue slot.
                    false
                };
                wave.advance(self.max_outstanding);
                if wave.op().is_none() {
                    self.live -= 1;
                } else {
                    self.place(w, now);
                }
                issued
            }
        }
    }

    /// Issues ready wavefront `w`'s `Compute` on free pipe `p` at `now`,
    /// returning the cycle at which both the pipe and the SIMD free.
    fn compute(
        &mut self,
        w: usize,
        p: usize,
        now: u64,
        cycles: u32,
        flops: u32,
        stats: &mut TimingStats,
    ) -> u64 {
        self.ready.remove(w);
        let end = now + u64::from(cycles);
        let wave = &mut self.waves[w];
        wave.busy_until = end;
        wave.advance(self.max_outstanding);
        self.pipes[p].free = end;
        stats.flops += u64::from(flops);
        self.drain = self.drain.max(end);
        if wave.op().is_none() {
            self.live -= 1;
        } else if cycles > 0 {
            self.pipes[p].owner = Some(w);
        } else {
            // A zero-cycle op frees the pipe within this iteration.
            self.place(w, now);
        }
        end
    }

    /// The cycle a fully stalled iteration at `now` jumps to.
    fn stall_jump(&self, now: u64) -> u64 {
        let ready = (self.ready.len > 0).then_some(now);
        let blocked = self.blocked.peek().map(|&Reverse((wake, _))| wake);
        let holding = self
            .pipes
            .iter()
            .filter_map(|p| p.owner)
            .map(|w| self.waves[w].wake)
            .min();
        let Some(earliest) = [ready, blocked, holding].into_iter().flatten().min() else {
            return now + 1;
        };
        let next = earliest.max(now + 1);
        // A compute-ready wavefront may be gated on a pipe.
        let pipe = self.pipes.iter().map(|p| p.free).min().unwrap_or(0);
        if next == now + 1 && pipe > now {
            pipe
        } else {
            next
        }
    }
}

/// The timing simulator for one CU cluster sharing a memory backend.
pub struct GpuSim<'a, B: MemoryBackend> {
    config: CuConfig,
    backend: &'a mut B,
}

impl<'a, B: MemoryBackend> GpuSim<'a, B> {
    /// Creates a simulator over `backend`.
    pub fn new(config: CuConfig, backend: &'a mut B) -> Self {
        Self { config, backend }
    }

    /// Runs the given wavefronts to completion, returning timing stats.
    /// Takes the programs by value or by reference (`&Vec`, slice).
    ///
    /// # Panics
    ///
    /// Panics if `wavefronts` is empty.
    pub fn run(&mut self, wavefronts: impl AsRef<[WavefrontProgram]>) -> TimingStats {
        let programs = wavefronts.as_ref();
        assert!(!programs.is_empty(), "no wavefronts to run");
        let issue_width = self.config.issue_width.max(1);
        let n = programs.len();
        let mut s = Scheduler::new(programs, &self.config);
        let mut now = 0u64;
        let mut stats = TimingStats::default();
        let mut rr = 0usize; // round-robin pointer

        while s.live > 0 {
            s.wake_up(now);

            if let Some(pipe_free) = s.train(now, rr, &mut stats) {
                stats.issued_ops += 1;
                rr = (rr + 2) % n;
                now = pipe_free;
                continue;
            }

            // Issue up to issue_width ops this cycle, round-robin.
            let mut issued = 0u32;
            for (from, to) in [(rr, n), (0, rr)] {
                let mut next = from;
                while issued < issue_width {
                    let Some(w) = s.ready.first_in(next, to) else {
                        break;
                    };
                    next = w + 1;
                    issued += u32::from(s.step(w, now, self.backend, &mut stats));
                }
            }
            rr = (rr + 1) % n;
            stats.issued_ops += u64::from(issued);

            // Advance time: next cycle, or jump to the next event if the
            // machine is fully stalled.
            now = if issued == 0 {
                s.stall_jump(now)
            } else {
                now + 1
            };
        }

        // The makespan runs to the last completion, not the last issue:
        // in-flight compute and memory must drain.
        stats.cycles = now.max(s.drain).max(1);
        stats.issue_slots = stats.cycles * u64::from(issue_width);
        stats
    }
}

/// One wavefront's state in the reference loop.
#[cfg(test)]
#[derive(Clone, Debug)]
struct WavefrontState {
    program: WavefrontProgram,
    pc: usize,
    /// The SIMD is occupied by this wavefront's compute until this cycle.
    busy_until: u64,
    /// Completion cycles of in-flight requests (unsorted).
    outstanding: Vec<u64>,
    flops: u64,
}

#[cfg(test)]
impl WavefrontState {
    fn new(program: WavefrontProgram) -> Self {
        Self {
            program,
            pc: 0,
            busy_until: 0,
            outstanding: Vec::new(),
            flops: 0,
        }
    }

    fn done(&self) -> bool {
        self.pc >= self.program.ops().len()
    }

    fn drain(&mut self, now: u64) {
        self.outstanding.retain(|&c| c > now);
    }

    /// The earliest cycle at which this wavefront could make progress, or
    /// `None` if it is finished.
    fn next_event(&self, now: u64, cfg: &CuConfig) -> Option<u64> {
        if self.done() {
            return None;
        }
        let mut earliest = self.busy_until.max(now);
        match self.program.ops()[self.pc] {
            Op::Wait { max_outstanding } => {
                if self.outstanding.len() > max_outstanding as usize {
                    // Must wait for enough completions.
                    let mut c: Vec<u64> = self.outstanding.clone();
                    c.sort_unstable();
                    let need = self.outstanding.len() - max_outstanding as usize;
                    earliest = earliest.max(c[need - 1]);
                }
            }
            Op::Load { .. } | Op::Store { .. } => {
                if self.outstanding.len() >= cfg.max_outstanding as usize {
                    if let Some(&min) = self.outstanding.iter().min() {
                        earliest = earliest.max(min);
                    }
                }
            }
            Op::Compute { .. } => {}
        }
        Some(earliest)
    }
}

#[cfg(test)]
impl<B: MemoryBackend> GpuSim<'_, B> {
    /// Reference loop: every iteration drains, scans and re-derives the
    /// next event of every wavefront. Slow, but written straight from the
    /// scheduling rule, so tests can check the event loop against it.
    pub(crate) fn run_reference(&mut self, wavefronts: Vec<WavefrontProgram>) -> TimingStats {
        assert!(!wavefronts.is_empty(), "no wavefronts to run");
        let mut waves: Vec<WavefrontState> =
            wavefronts.into_iter().map(WavefrontState::new).collect();
        let mut now = 0u64;
        let mut stats = TimingStats::default();
        let mut rr = 0usize; // round-robin pointer
        let mut pipe_free = vec![0u64; self.config.compute_pipes.max(1) as usize];

        while waves.iter().any(|w| !w.done()) {
            for w in waves.iter_mut() {
                w.drain(now);
            }

            // Issue up to issue_width ops this cycle, round-robin.
            let mut issued = 0u32;
            let n = waves.len();
            for k in 0..n {
                if issued >= self.config.issue_width {
                    break;
                }
                let idx = (rr + k) % n;
                let cfg = self.config;
                let w = &mut waves[idx];
                if w.done() || w.busy_until > now {
                    continue;
                }
                match w.program.ops()[w.pc] {
                    Op::Compute { cycles, flops } => {
                        // Needs a free shared compute pipe.
                        let Some(pipe) = pipe_free.iter_mut().find(|f| **f <= now) else {
                            continue;
                        };
                        *pipe = now + u64::from(cycles);
                        w.busy_until = now + u64::from(cycles);
                        w.flops += u64::from(flops);
                        stats.flops += u64::from(flops);
                        w.pc += 1;
                        issued += 1;
                    }
                    Op::Load { addr } | Op::Store { addr }
                        if w.outstanding.len() < cfg.max_outstanding as usize =>
                    {
                        let is_write = matches!(w.program.ops()[w.pc], Op::Store { .. });
                        let complete = self.backend.request(addr, is_write, now);
                        w.outstanding.push(complete);
                        stats.requests += 1;
                        w.pc += 1;
                        issued += 1;
                    }
                    Op::Wait { max_outstanding }
                        if w.outstanding.len() <= max_outstanding as usize =>
                    {
                        // Waits retire for free once satisfied.
                        w.pc += 1;
                    }
                    _ => {}
                }
            }
            rr = (rr + 1) % n;
            stats.issued_ops += u64::from(issued);

            // Advance time: next cycle, or jump to the next event if the
            // machine is fully stalled.
            if issued == 0 {
                let next = waves
                    .iter()
                    .filter_map(|w| w.next_event(now + 1, &self.config))
                    .min()
                    .map(|e| {
                        // A compute-ready wavefront may be gated on a pipe.
                        let pipe = pipe_free.iter().copied().min().unwrap_or(0);
                        if e <= now + 1 && pipe > now {
                            e.max(pipe)
                        } else {
                            e
                        }
                    });
                now = next.unwrap_or(now + 1).max(now + 1);
            } else {
                now += 1;
            }
        }

        // The makespan runs to the last completion, not the last issue:
        // in-flight compute and memory must drain.
        let drain = waves
            .iter()
            .map(|w| {
                w.busy_until
                    .max(w.outstanding.iter().copied().max().unwrap_or(0))
            })
            .max()
            .unwrap_or(0);
        stats.cycles = now.max(drain).max(1);
        stats.issue_slots = stats.cycles * u64::from(self.config.issue_width);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FixedLatency, HbmBackend};
    use crate::synth::wavefronts_for;
    use ena_testkit::collection::vec as vec_of;
    use ena_testkit::prelude::*;

    /// A backend that logs every request it forwards.
    struct Recording<B> {
        inner: B,
        log: Vec<(u64, bool, u64)>,
    }

    impl<B: MemoryBackend> MemoryBackend for Recording<B> {
        fn request(&mut self, addr: u64, is_write: bool, cycle: u64) -> u64 {
            self.log.push((addr, is_write, cycle));
            self.inner.request(addr, is_write, cycle)
        }
    }

    type Trace = (TimingStats, Vec<(u64, bool, u64)>);

    /// Runs `wavefronts` through the event loop and the reference loop,
    /// each on a fresh backend.
    fn both<B: MemoryBackend>(
        config: CuConfig,
        backend: impl Fn() -> B,
        wavefronts: &[WavefrontProgram],
    ) -> (Trace, Trace) {
        let mut fast = Recording {
            inner: backend(),
            log: Vec::new(),
        };
        let stats = GpuSim::new(config, &mut fast).run(wavefronts);
        let mut slow = Recording {
            inner: backend(),
            log: Vec::new(),
        };
        let reference = GpuSim::new(config, &mut slow).run_reference(wavefronts.to_vec());
        ((stats, fast.log), (reference, slow.log))
    }

    fn arbitrary_op() -> impl Strategy<Value = Op> {
        let compute =
            || (0u32..=20, 1u32..=1024).prop_map(|(cycles, flops)| Op::Compute { cycles, flops });
        // Compute is weighted up so that compute trains form; zero-cycle
        // compute frees its pipe within the issuing iteration.
        prop_oneof![
            compute(),
            compute(),
            (0u64..1 << 20).prop_map(|line| Op::Load { addr: line * 64 }),
            (0u64..1 << 20).prop_map(|line| Op::Store { addr: line * 64 }),
            (0u32..=8).prop_map(|m| Op::Wait { max_outstanding: m }),
        ]
    }

    fn arbitrary_config() -> impl Strategy<Value = CuConfig> {
        (1u32..=4, 1u32..=8, 1u32..=3).prop_map(|(issue_width, max_outstanding, compute_pipes)| {
            CuConfig {
                issue_width,
                max_outstanding,
                compute_pipes,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn run_matches_the_reference_loop(
            config in arbitrary_config(),
            programs in vec_of(vec_of(arbitrary_op(), 0..40), 1..=80),
            banked in any::<bool>(),
            latency in 1u64..300,
            interval in 1u64..8,
        ) {
            let wavefronts: Vec<WavefrontProgram> =
                programs.into_iter().map(|ops| ops.into_iter().collect()).collect();
            let (fast, reference) = if banked {
                both(config, || HbmBackend::new(8), &wavefronts)
            } else {
                both(config, || FixedLatency::new(latency, interval), &wavefronts)
            };
            prop_assert_eq!(fast, reference);
        }
    }

    #[test]
    fn paper_profiles_match_the_reference_loop() {
        // The validation experiment's wavefronts and backends.
        for p in ena_workloads::paper_profiles() {
            let wavefronts = wavefronts_for(&p, 24, 0xABCD);
            let config = CuConfig::default();
            let (fast, reference) = both(config, || FixedLatency::new(170, 7), &wavefronts);
            assert!(fast == reference, "{}: fixed latency", p.name);
            let (fast, reference) = both(config, || HbmBackend::new(8), &wavefronts);
            assert!(fast == reference, "{}: banked HBM", p.name);
        }
    }

    #[test]
    fn a_memory_wavefront_ready_before_the_pipe_frees_waits_for_it() {
        // The stall-jump rule. Wavefront 1's first load completes at 10;
        // its wait retires then, and the second load could issue at 11.
        // But the stalled iteration at 10 sees a wavefront ready at 11
        // while wavefront 0 holds the only pipe until 100, so it jumps to
        // 100 and the second load issues there.
        let hog = WavefrontProgram::new().push(Op::Compute {
            cycles: 100,
            flops: 64,
        });
        let loads = WavefrontProgram::new()
            .push(Op::Load { addr: 0 })
            .push(Op::Wait { max_outstanding: 0 })
            .push(Op::Load { addr: 64 });
        let mut mem = Recording {
            inner: FixedLatency::new(10, 1),
            log: Vec::new(),
        };
        let stats = GpuSim::new(CuConfig::default(), &mut mem).run([hog, loads]);
        assert_eq!(mem.log, [(0, false, 0), (64, false, 100)]);
        assert_eq!(stats.cycles, 110);
    }

    #[test]
    fn degenerate_limits_are_clamped_instead_of_hanging() {
        let program = WavefrontProgram::new()
            .push(Op::Load { addr: 0 })
            .push(Op::Load { addr: 64 })
            .push(Op::Compute {
                cycles: 4,
                flops: 64,
            });
        let run = |issue_width, max_outstanding| {
            let mut mem = FixedLatency::new(100, 1);
            let config = CuConfig {
                issue_width,
                max_outstanding,
                compute_pipes: 0,
            };
            GpuSim::new(config, &mut mem).run(vec![program.clone(); 2])
        };
        let one = run(1, 1);
        assert_eq!(run(0, 0), one);
        assert_eq!(one.requests, 4);
    }

    fn compute_only(iters: u32) -> WavefrontProgram {
        (0..iters)
            .map(|_| Op::Compute {
                cycles: 1,
                flops: 64,
            })
            .collect()
    }

    fn streaming(iters: u32, mlp: u32) -> WavefrontProgram {
        let mut p = WavefrontProgram::new();
        for i in 0..iters {
            for j in 0..mlp {
                p = p.push(Op::Load {
                    addr: u64::from(i * mlp + j) * 64,
                });
            }
            p = p.push(Op::Wait { max_outstanding: 0 });
            p = p.push(Op::Compute {
                cycles: 1,
                flops: 64,
            });
        }
        p
    }

    #[test]
    fn compute_bound_wavefronts_saturate_the_pipes() {
        let mut mem = FixedLatency::new(100, 1);
        let cfg = CuConfig {
            compute_pipes: 4,
            ..CuConfig::default()
        };
        let mut sim = GpuSim::new(cfg, &mut mem);
        let stats = sim.run(vec![compute_only(100); 8]);
        // 8 wavefronts x 100 ops / 4 pipes = 200 cycles minimum.
        assert!(stats.cycles >= 200);
        assert!(stats.cycles < 230, "cycles = {}", stats.cycles);
        assert!(stats.issue_utilization() > 0.85);
        assert_eq!(stats.flops, 8 * 100 * 64);
    }

    #[test]
    fn a_single_pipe_serializes_compute() {
        let mut mem = FixedLatency::new(100, 1);
        let mut sim = GpuSim::new(CuConfig::default(), &mut mem);
        let stats = sim.run(vec![compute_only(100); 8]);
        // One shared pipe: 800 one-cycle compute ops serialize.
        assert!(stats.cycles >= 800, "cycles = {}", stats.cycles);
        // The pipe itself stays fully busy: 64 FLOPs every cycle.
        assert!(stats.flops_per_cycle() > 60.0);
    }

    #[test]
    fn a_single_memory_wavefront_is_latency_bound() {
        let mut mem = FixedLatency::new(200, 1);
        let mut sim = GpuSim::new(CuConfig::default(), &mut mem);
        let stats = sim.run(vec![streaming(20, 1)]);
        // Each iteration serializes one 200-cycle round trip.
        assert!(stats.cycles >= 20 * 200, "cycles = {}", stats.cycles);
        assert!(stats.issue_utilization() < 0.05);
    }

    #[test]
    fn more_wavefronts_hide_memory_latency() {
        let run = |count: usize| {
            let mut mem = FixedLatency::new(200, 2);
            let mut sim = GpuSim::new(CuConfig::default(), &mut mem);
            sim.run(vec![streaming(20, 4); count]).flops_per_cycle()
        };
        let one = run(1);
        let eight = run(8);
        let sixteen = run(16);
        assert!(eight > 3.0 * one, "1: {one}, 8: {eight}");
        assert!(sixteen >= eight * 0.95, "8: {eight}, 16: {sixteen}");
    }

    #[test]
    fn bandwidth_limits_cap_wavefront_scaling() {
        // With a 4-cycle service interval the pipe sustains 0.25 req/cycle;
        // piling on wavefronts cannot exceed it.
        let run = |count: usize| {
            let mut mem = FixedLatency::new(100, 4);
            let mut sim = GpuSim::new(CuConfig::default(), &mut mem);
            let s = sim.run(vec![streaming(50, 4); count]);
            s.requests as f64 / s.cycles as f64
        };
        let heavy = run(32);
        assert!(heavy <= 0.26, "requests/cycle = {heavy}");
    }

    #[test]
    fn mlp_improves_latency_bound_throughput() {
        let run = |mlp: u32| {
            let mut mem = FixedLatency::new(200, 1);
            let mut sim = GpuSim::new(CuConfig::default(), &mut mem);
            // Same total loads regardless of mlp.
            sim.run(vec![streaming(24 / mlp, mlp); 2]).cycles
        };
        assert!(run(4) < run(1), "mlp 4: {}, mlp 1: {}", run(4), run(1));
    }

    #[test]
    fn stats_are_internally_consistent() {
        let mut mem = FixedLatency::new(50, 2);
        let mut sim = GpuSim::new(CuConfig::default(), &mut mem);
        let wf = streaming(10, 2);
        let expect_flops = wf.total_flops() * 3;
        let expect_reqs = wf.total_requests() * 3;
        let stats = sim.run(vec![wf; 3]);
        assert_eq!(stats.flops, expect_flops);
        assert_eq!(stats.requests, expect_reqs);
        assert!(stats.issued_ops <= stats.issue_slots);
    }
}
