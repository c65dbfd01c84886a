//! # vtrain-core
//!
//! The vTrain simulator proper (paper §III-D/E/F and §V-A).
//!
//! The estimation path is a staged pipeline ([`Estimator`]): **validate**
//! (cheap feasibility/memory checks, also the sweep's pruning predicate) →
//! **lower** (the plan's latency slots priced once, compute operators
//! through a shared concurrent profile cache, then graph construction
//! streamed into a [`TaskGraph`] whose tasks read their slots' prices) →
//! **simulate** ([`simulate`] replays **Algorithm 1** — the paper's FIFO
//! ready-queue traversal over per-(GPU, stream) timelines honoring
//! dependencies and computation/communication overlap, run as a provably
//! equivalent dataflow pass because every lowered graph is
//! stream-chained, the one input contract) →
//! **summarize** (fold the replay into an [`IterationEstimate`]).
//! [`Estimator::estimate`] composes the stages with lowering and replay
//! fused on a run-aggregated compact graph (bit-identical to the full
//! task-graph replay, which `measure` and `timeline` still run, and which
//! the fair-sharing network backend runs with fair-shared flows over the
//! unrolled compact graph); [`search`] sweeps the
//! `(t, d, p, m)` design space on a work-stealing executor that shares the
//! profile cache across workers (each unique operator signature is
//! profiled once per sweep, §III-C/F) and reports
//! [`SweepStats`](search::SweepStats); [`CostModel`] converts GPU-hours
//! to dollars.
//!
//! Two execution modes mirror the paper's validation methodology:
//! * **Predicted** — clean lookup-table replay (what vTrain reports);
//! * **Measured** — the same replay perturbed by the ground-truth
//!   [`NoiseModel`](vtrain_gpu::NoiseModel), standing in for the real
//!   GPU-cluster measurements of Fig. 9 / Table II.
//!
//! # Examples
//!
//! ```
//! use vtrain_core::Estimator;
//! use vtrain_model::presets;
//! use vtrain_parallel::{ClusterSpec, ParallelConfig};
//!
//! let cluster = ClusterSpec::aws_p4d(64);
//! let estimator = Estimator::builder(cluster).build();
//! let plan = ParallelConfig::builder()
//!     .tensor(8).data(4).pipeline(2).micro_batch(2).global_batch(64)
//!     .build()?;
//! let est = estimator.estimate(&presets::megatron("18.4B"), &plan)?;
//! assert!(est.iteration_time.as_secs_f64() > 0.0);
//! assert!(est.utilization > 0.0 && est.utilization <= 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod compact;
mod cost;
mod estimate;
mod flow_replay;
pub mod search;
mod sim;
mod task_graph;

pub use cost::{CostModel, TrainingProjection};
pub use estimate::{
    EstimateError, Estimator, EstimatorBuilder, EstimatorScratch, IterationEstimate,
    IterationTimeline, StageNanos, MAX_FULL_GRAPH_TASKS,
};
pub use sim::{simulate, simulate_into, BusyBreakdown, SimMode, SimReport, SimScratch};
pub use task_graph::{MissingProfile, Task, TaskGraph, TaskKind};
