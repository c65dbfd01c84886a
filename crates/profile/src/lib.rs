//! # vtrain-profile
//!
//! The profiling module of vTrain (paper §III-C) and its communication
//! models (§III-D, §IV).
//!
//! The published system executes each *necessary operator* once on the
//! target GPU and harvests its CUDA-kernel trace through CUPTI, building an
//! operator-to-task lookup table. Here the role of the physical GPU is
//! played by [`vtrain_gpu::DeviceModel`]: [`Profiler::profile`] decomposes
//! every distinct [`OpSignature`](vtrain_graph::OpSignature) into the
//! CUDA-kernel sequence Megatron-style training would launch, "runs" each
//! kernel against the device model, and records `(kernel name, latency)`
//! task lists — the same artifact, produced the same way, minus the silicon.
//!
//! Communication costs follow the paper exactly:
//! * intra-node collectives are *profiled*: an NCCL latency sweep from 1 MB
//!   to 1024 MB across 2/4/8 ranks, interpolated log-linearly
//!   ([`CommModel`]);
//! * inter-node collectives use the NCCL analytical model of Equation (1)
//!   with a bandwidth-effectiveness factor `α`.
//!
//! # Examples
//!
//! ```
//! use vtrain_graph::{build_op_graph, GraphOptions};
//! use vtrain_model::presets;
//! use vtrain_parallel::{ClusterSpec, ParallelConfig};
//! use vtrain_profile::{CommModel, Profiler};
//!
//! let model = presets::megatron("1.7B");
//! let plan = ParallelConfig::builder()
//!     .tensor(2).data(2).pipeline(2).micro_batch(2).global_batch(16)
//!     .build()?;
//! let cluster = ClusterSpec::aws_p4d(8);
//! let graph = build_op_graph(&model, &plan, &GraphOptions::default());
//!
//! let table = Profiler::new(cluster.gpu.clone()).profile(&graph.necessary_operators());
//! assert!(!table.is_empty());
//! let comm = CommModel::new(&cluster, 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod comm_model;
mod decompose;
mod profiler;
mod table;

pub use cache::{CacheStats, GpuKey, ProfileCache, SnapshotError, SNAPSHOT_VERSION};
pub use comm_model::CommModel;
pub use decompose::{canonical, decompose};
pub use profiler::Profiler;
pub use table::{OpProfile, OperatorTaskTable, TaskRecord};
