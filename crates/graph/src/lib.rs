//! # vtrain-graph
//!
//! Operator-granularity execution graphs for LLM training (paper §III-B).
//!
//! The graph captures *which* computation and communication operators run,
//! *where* (which pipeline stage's representative GPU), and *in what order*
//! (dependency edges), as dictated by the model architecture and the
//! `(t, d, p)` 3D-parallelism plan:
//!
//! * tensor parallelism inserts an intra-node All-Reduce after every MHA and
//!   FFN block in both passes (Fig. 6);
//! * data parallelism inserts gradient All-Reduces — one per gradient bucket
//!   when bucketing is enabled, overlappable with backward compute
//!   (Fig. 5);
//! * pipeline parallelism inserts Send-Receive operators at stage
//!   boundaries, ordered by the GPipe or 1F1B schedule (Fig. 7);
//! * the repetitive structure of stacked identical decoder layers yields a
//!   tiny set of [`OpSignature`]s — the paper's *necessary operators* —
//!   regardless of layer count or micro-batch count (§III-C).
//!
//! TP ranks and DP replicas are symmetric, so one pipeline replica with one
//! representative GPU per stage is materialized (cf. the paper's Fig. 8,
//! which also draws one GPU per node).
//!
//! # Examples
//!
//! ```
//! use vtrain_graph::{build_op_graph, GraphOptions};
//! use vtrain_model::presets;
//! use vtrain_parallel::ParallelConfig;
//!
//! let model = presets::megatron("1.7B");
//! let plan = ParallelConfig::builder()
//!     .tensor(2).data(2).pipeline(2).micro_batch(2).global_batch(16)
//!     .build()?;
//! let graph = build_op_graph(&model, &plan, &GraphOptions::default());
//! assert!(graph.num_nodes() > 0);
//! // Necessary operators stay O(1) in micro-batch and layer count.
//! assert!(graph.necessary_operators().len() < 16);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod graph;
mod ops;

pub use builder::{
    build_op_graph, build_op_graph_into, plan_shape_key, plan_task_count, visit_plan_slots,
    visit_slot_multiplicities, ChainOp, GraphOptions, GraphSink, PlanShapeKey, SlotOp,
};
pub use graph::{OpGraph, OpNode, StreamKind};
pub use ops::{CommKind, CommOp, CommScope, CompKind, ComputeOp, Op, OpSignature};
