//! # vTrain — a simulation framework for cost-effective and compute-optimal
//! LLM training
//!
//! Rust reproduction of *vTrain* (Bang et al., MICRO 2024): a
//! profiling-driven simulator that predicts the single-iteration training
//! time of transformer LLMs under `(t, d, p)`-way 3D parallelism, and the
//! three case studies built on it — cost-effective training-plan search,
//! multi-tenant GPU cluster scheduling, and compute-optimal model sizing.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`model`] | `vtrain-model` | LLM descriptions, parameter/FLOPs/memory accounting |
//! | [`parallel`] | `vtrain-parallel` | 3D-parallel plans, clusters, pipeline schedules |
//! | [`graph`] | `vtrain-graph` | operator-granularity execution graphs |
//! | [`gpu`] | `vtrain-gpu` | A100 device model + ground-truth emulation |
//! | [`net`] | `vtrain-net` | hierarchical interconnect topology, collective-algorithm costs |
//! | [`profile`] | `vtrain-profile` | CUPTI-like profiling, communication models |
//! | [`engine`] | `vtrain-engine` | deterministic discrete-event simulation kernel |
//! | [`obs`] | `vtrain-obs` | structured spans, metrics registry, Chrome-trace timelines |
//! | [`sim`] | `vtrain-core` | task graphs, Algorithm 1, cost model, DSE |
//! | [`cluster`] | `vtrain-cluster` | multi-tenant scheduler experiments |
//! | [`scaling`] | `vtrain-scaling` | Chinchilla law, compute-optimal sizing |
//!
//! # Quickstart
//!
//! ```
//! use vtrain::prelude::*;
//!
//! // A 512-GPU A100 cluster and an 18.4B-parameter model.
//! let cluster = ClusterSpec::aws_p4d(512);
//! let model = presets::megatron("18.4B");
//!
//! // An (8, 8, 8)-way 3D-parallel plan.
//! let plan = ParallelConfig::builder()
//!     .tensor(8).data(8).pipeline(8)
//!     .micro_batch(2).global_batch(512)
//!     .build()?;
//!
//! // Predict one training iteration.
//! let estimator = Estimator::builder(cluster).build();
//! let estimate = estimator.estimate(&model, &plan)?;
//! println!(
//!     "iteration {}, utilization {:.1}%",
//!     estimate.iteration_time,
//!     estimate.utilization * 100.0
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Or declaratively, from a scenario file (the `vtrain` CLI is a thin
//! wrapper over exactly this):
//!
//! ```
//! use vtrain::prelude::*;
//!
//! let scenario = Scenario::from_json(r#"{
//!     "model": { "preset": "megatron-1.7B" },
//!     "cluster": { "preset": "aws-p4d", "total_gpus": 16 },
//!     "parallelism": { "tensor": 2, "data": 2, "pipeline": 2,
//!                      "micro_batch": 1, "global_batch": 8 }
//! }"#)?;
//! let estimate = scenario.estimator()?.estimate(&scenario.model()?, &scenario.plan()?)?;
//! assert!(estimate.utilization > 0.0);
//! # Ok::<(), vtrain::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod description;
mod error;
pub mod serve;

pub use description::{Description, NetworkSection, Scenario};
pub use error::Error;

pub use vtrain_cluster as cluster;
pub use vtrain_core as sim;
pub use vtrain_engine as engine;
pub use vtrain_gpu as gpu;
pub use vtrain_graph as graph;
pub use vtrain_model as model;
pub use vtrain_net as net;
pub use vtrain_obs as obs;
pub use vtrain_parallel as parallel;
pub use vtrain_profile as profile;
pub use vtrain_scaling as scaling;

/// The types most programs need, in one import.
///
/// Engine, graph, and profiler internals (`Simulation`, `Handler`,
/// `visit_plan_slots`, `EstimatorScratch`, …) are deliberately absent:
/// programs that drive those layers directly should import them from
/// their home crates.
pub mod prelude {
    pub use crate::api::{
        ErrorCode, Outcome, Report, Request, RequestKind, Response, WIRE_VERSION,
    };
    pub use crate::client::{Client, ClientConfig};
    pub use crate::description::{Description, NetworkSection, Scenario};
    pub use crate::error::Error;
    pub use crate::serve::faults::FaultPlan;
    pub use crate::serve::{DegradeMode, Server, ServerConfig};
    pub use vtrain_core::search::{
        self, AbortReason, CancelToken, DesignPoint, PlacementSweep, SearchLimits, StageProfile,
        Sweep, SweepGoal, SweepOutcome, SweepRun, SweepStats,
    };
    pub use vtrain_core::{
        CostModel, Estimator, EstimatorBuilder, IterationEstimate, IterationTimeline, SimMode,
        SimReport, StageNanos, TrainingProjection,
    };
    pub use vtrain_gpu::{NoiseConfig, NoiseModel};
    pub use vtrain_model::{presets, Bytes, Flops, ModelConfig, TimeNs};
    pub use vtrain_net::flow::{FlowPhase, FlowProgram, FlowSim};
    pub use vtrain_net::{GroupPlacement, NetworkBackend, TierSpec, Topology};
    pub use vtrain_obs::{MetricsRegistry, TimelineRecorder};
    pub use vtrain_parallel::{ClusterSpec, GpuSpec, ParallelConfig, PipelineSchedule};
    pub use vtrain_profile::{CacheStats, ProfileCache};
    pub use vtrain_scaling::ChinchillaLaw;
}
