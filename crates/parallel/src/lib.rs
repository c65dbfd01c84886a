//! # vtrain-parallel
//!
//! 3D-parallelism training plans, GPU cluster topology descriptions, and
//! pipeline schedules (GPipe / 1F1B) for the vTrain simulation framework.
//!
//! A `(t, d, p)`-way 3D-parallel plan (paper §II-B, Fig. 3) combines
//! `t`-way tensor parallelism (intra-node, over NVLink), `d`-way data
//! parallelism, and `p`-way pipeline parallelism, with each pipeline replica
//! processing the global batch as a sequence of micro-batches.
//!
//! # Examples
//!
//! ```
//! use vtrain_model::presets;
//! use vtrain_parallel::{ClusterSpec, ParallelConfig, PipelineSchedule};
//!
//! let cluster = ClusterSpec::aws_p4d(512);
//! let plan = ParallelConfig::builder()
//!     .tensor(8)
//!     .data(4)
//!     .pipeline(8)
//!     .micro_batch(2)
//!     .global_batch(512)
//!     .schedule(PipelineSchedule::OneFOneB)
//!     .build()?;
//! assert_eq!(plan.num_gpus(), 256);
//! assert_eq!(plan.num_micro_batches(), 64);
//! plan.validate(&presets::megatron("18.4B"), &cluster)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod config;
mod placement;
mod schedule;

pub use cluster::{ClusterSpec, GpuSpec};
pub use config::{ParallelConfig, ParallelConfigBuilder, PlanError};
pub use placement::ProcessGroups;
pub use schedule::{layer_partition, Pass, PipelineSchedule, Section, SlotPattern, StageSlot};
