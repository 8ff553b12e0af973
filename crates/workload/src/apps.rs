//! Grid application workload generation.
//!
//! Produces timed streams of [`JobSpec`] submissions: Poisson arrivals over
//! a horizon, with a configurable mix of sequential, bag-of-tasks and BSP
//! applications (the paper's "broad range of parallel applications") and
//! heavy-tailed work sizes.

use integrade_core::asct::{JobRequirements, JobSpec, SchedulingPreference};
use integrade_simnet::rng::DetRng;
use integrade_simnet::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Relative weights of job kinds in the mix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobMix {
    /// Weight of sequential jobs.
    pub sequential: f64,
    /// Weight of bag-of-tasks jobs.
    pub bag_of_tasks: f64,
    /// Weight of BSP parallel jobs.
    pub bsp: f64,
}

impl Default for JobMix {
    fn default() -> Self {
        JobMix {
            sequential: 0.4,
            bag_of_tasks: 0.4,
            bsp: 0.2,
        }
    }
}

impl JobMix {
    /// Only high-throughput work (no inter-task communication) — the
    /// BOINC-compatible subset.
    pub fn throughput_only() -> Self {
        JobMix {
            sequential: 0.5,
            bag_of_tasks: 0.5,
            bsp: 0.0,
        }
    }
}

/// Workload-stream parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Mean inter-arrival time.
    pub mean_interarrival: SimDuration,
    /// Job-kind mix.
    pub mix: JobMix,
    /// Mean sequential work, MIPS-s (exponentially distributed).
    pub mean_seq_work: f64,
    /// Bag size range (inclusive).
    pub bag_tasks: (u64, u64),
    /// BSP process-count range (inclusive).
    pub bsp_procs: (u64, u64),
    /// BSP superstep-count range (inclusive).
    pub bsp_supersteps: (u64, u64),
    /// Requirements applied to every job.
    pub requirements: JobRequirements,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            mean_interarrival: SimDuration::from_mins(30),
            mix: JobMix::default(),
            mean_seq_work: 300_000.0, // ~33 min at a 500-MIPS node's 30% cap
            bag_tasks: (4, 16),
            bsp_procs: (2, 8),
            bsp_supersteps: (20, 80),
            requirements: JobRequirements::default(),
        }
    }
}

/// Generates `(submit_time, spec)` pairs over `[start, start + horizon)`.
pub fn generate_stream(
    config: &WorkloadConfig,
    start: SimTime,
    horizon: SimDuration,
    rng: &mut DetRng,
) -> Vec<(SimTime, JobSpec)> {
    let mut out = Vec::new();
    let mut t = start;
    let end = start + horizon;
    let mut index = 0u64;
    loop {
        let gap =
            SimDuration::from_secs_f64(rng.exponential(config.mean_interarrival.as_secs_f64()));
        t = t.saturating_add(gap);
        if t >= end {
            break;
        }
        out.push((t, generate_job(config, index, rng)));
        index += 1;
    }
    out
}

/// Generates one job from the mix.
pub fn generate_job(config: &WorkloadConfig, index: u64, rng: &mut DetRng) -> JobSpec {
    let weights = [
        config.mix.sequential,
        config.mix.bag_of_tasks,
        config.mix.bsp,
    ];
    let kind = rng.choose_weighted(&weights).unwrap_or(0);
    let mut spec = match kind {
        0 => {
            let work = rng.exponential(config.mean_seq_work).max(1000.0) as u64;
            JobSpec::sequential(&format!("seq-{index}"), work)
        }
        1 => {
            let tasks = rng.uniform_range(config.bag_tasks.0, config.bag_tasks.1 + 1) as usize;
            let work = rng.exponential(config.mean_seq_work / 2.0).max(1000.0) as u64;
            JobSpec::bag_of_tasks(&format!("bag-{index}"), tasks, work)
        }
        _ => {
            let procs = rng.uniform_range(config.bsp_procs.0, config.bsp_procs.1 + 1) as usize;
            let steps = rng.uniform_range(config.bsp_supersteps.0, config.bsp_supersteps.1 + 1);
            let work = rng.exponential(config.mean_seq_work / 50.0).max(500.0) as u64;
            JobSpec::bsp(&format!("bsp-{index}"), procs, steps, work, 8 * 1024)
        }
    };
    spec.requirements = config.requirements.clone();
    spec.preference = SchedulingPreference::FastestCpu;
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use integrade_core::asct::JobKind;

    #[test]
    fn stream_respects_horizon_and_order() {
        let mut rng = DetRng::new(1);
        let start = SimTime::from_secs(100);
        let horizon = SimDuration::from_hours(24);
        let jobs = generate_stream(&WorkloadConfig::default(), start, horizon, &mut rng);
        assert!(!jobs.is_empty());
        for window in jobs.windows(2) {
            assert!(window[0].0 <= window[1].0, "sorted by arrival");
        }
        assert!(jobs.first().unwrap().0 >= start);
        assert!(jobs.last().unwrap().0 < start + horizon);
    }

    #[test]
    fn arrival_rate_matches_mean() {
        let mut rng = DetRng::new(2);
        let config = WorkloadConfig {
            mean_interarrival: SimDuration::from_mins(10),
            ..Default::default()
        };
        let jobs = generate_stream(&config, SimTime::ZERO, SimDuration::from_days(10), &mut rng);
        let expected = 10.0 * 24.0 * 6.0; // 1440 arrivals
        let got = jobs.len() as f64;
        assert!(
            (got - expected).abs() / expected < 0.1,
            "got {got}, expected ~{expected}"
        );
    }

    #[test]
    fn mix_weights_respected() {
        let mut rng = DetRng::new(3);
        let config = WorkloadConfig::default();
        let mut counts = [0usize; 3];
        for i in 0..3000 {
            let spec = generate_job(&config, i, &mut rng);
            match spec.kind {
                JobKind::Sequential { .. } => counts[0] += 1,
                JobKind::BagOfTasks { .. } => counts[1] += 1,
                JobKind::Bsp { .. } => counts[2] += 1,
            }
        }
        let frac = |c: usize| c as f64 / 3000.0;
        assert!((frac(counts[0]) - 0.4).abs() < 0.05);
        assert!((frac(counts[1]) - 0.4).abs() < 0.05);
        assert!((frac(counts[2]) - 0.2).abs() < 0.05);
    }

    #[test]
    fn throughput_only_has_no_bsp() {
        let mut rng = DetRng::new(4);
        let config = WorkloadConfig {
            mix: JobMix::throughput_only(),
            ..Default::default()
        };
        for i in 0..500 {
            let spec = generate_job(&config, i, &mut rng);
            assert!(!spec.kind.is_parallel(), "{:?}", spec.kind);
        }
    }

    #[test]
    fn job_shapes_within_ranges() {
        let mut rng = DetRng::new(5);
        let config = WorkloadConfig::default();
        for i in 0..1000 {
            match generate_job(&config, i, &mut rng).kind {
                JobKind::Sequential { work_mips_s } => assert!(work_mips_s >= 1000),
                JobKind::BagOfTasks { task_work_mips_s } => {
                    assert!((4..=16).contains(&task_work_mips_s.len()));
                }
                JobKind::Bsp {
                    procs, supersteps, ..
                } => {
                    assert!((2..=8).contains(&procs));
                    assert!((20..=80).contains(&supersteps));
                }
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = |seed| {
            let mut rng = DetRng::new(seed);
            generate_stream(
                &WorkloadConfig::default(),
                SimTime::ZERO,
                SimDuration::from_hours(12),
                &mut rng,
            )
        };
        assert_eq!(gen(9), gen(9));
    }
}
