//! The scenario file (paper Fig. 4, step ①) — vTrain's single input.
//!
//! A [`Scenario`] describes everything a run needs declaratively: the
//! target LLM, the training system, and optionally the parallelization
//! strategy to evaluate, the interconnect topology, the ground-truth
//! noise model, and a design-space sweep (limits + goal + placement
//! axis). New workloads enter the system as JSON files, not Rust code:
//!
//! ```json
//! {
//!   "model": { "preset": "megatron-18.4B" },
//!   "cluster": { "preset": "aws-p4d", "total_gpus": 512 },
//!   "parallelism": { "tensor": 8, "data": 8, "pipeline": 8,
//!                    "micro_batch": 2, "global_batch": 512,
//!                    "schedule": "1f1b" },
//!   "topology": { "alpha": 1.0 },
//!   "sweep": { "goal": "front",
//!              "limits": { "max_tensor": 8, "max_data": 16 },
//!              "placements": [ {}, { "nodes_per_rack": 4 } ] },
//!   "tokens": 300000000000
//! }
//! ```
//!
//! Unknown fields are rejected (a typo'd key is an error, not a silent
//! no-op), and every resolution error is a [`crate::Error`].
//!
//! [`Description`] is an alias for [`Scenario`]: the paper calls the
//! minimal (model, cluster, parallelism) file an "input description";
//! the scenario schema extends it with the optional sections.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use vtrain_core::search::{SearchLimits, Sweep, SweepGoal};
use vtrain_core::{CostModel, Estimator, EstimatorBuilder};
use vtrain_gpu::NoiseConfig;
use vtrain_model::{presets, ModelConfig, TimeNs};
use vtrain_net::{NetworkBackend, TierSpec, Topology};
use vtrain_parallel::{ClusterSpec, ParallelConfig, PipelineSchedule};
use vtrain_profile::ProfileCache;

use crate::Error;

/// Default rack-spine bandwidth (bytes/s) when a placement or rack
/// section omits it — a 200 Gb/s-class aggregation uplink.
const DEFAULT_SPINE_BANDWIDTH: f64 = 25e9;
/// Default rack-spine base latency (µs) when omitted.
const DEFAULT_SPINE_LATENCY_US: f64 = 35.0;

/// Root of the scenario file.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Scenario {
    /// The target LLM.
    pub model: ModelSection,
    /// The training system.
    pub cluster: ClusterSection,
    /// The `(t, d, p)` strategy to evaluate (required by `predict`;
    /// optional when the scenario only sweeps).
    #[serde(default)]
    pub parallelism: Option<ParallelismSection>,
    /// Interconnect topology overrides (α calibration, rack tier).
    #[serde(default)]
    pub topology: Option<TopologySection>,
    /// Communication pricing backend (closed-form vs. fair sharing).
    #[serde(default)]
    pub network: Option<NetworkSection>,
    /// Ground-truth emulation effects for "measured" runs.
    #[serde(default)]
    pub noise: Option<NoiseSection>,
    /// Design-space sweep: limits, goal, and placement axis.
    #[serde(default)]
    pub sweep: Option<SweepSection>,
    /// Total training tokens (enables the end-to-end projection).
    #[serde(default)]
    pub tokens: Option<u64>,
    /// Dollars per GPU-hour (default $5.00, the paper's P4d rate).
    #[serde(default)]
    pub cost_per_gpu_hour: Option<f64>,
}

/// The paper's name for the minimal input file; the scenario schema is
/// its superset, so the alias keeps both spellings valid.
pub type Description = Scenario;

/// Model: either a named preset or explicit hyperparameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(untagged, deny_unknown_fields)]
pub enum ModelSection {
    /// A named preset, e.g. `"gpt3-175b"`, `"mt-nlg-530b"`,
    /// `"megatron-18.4B"`.
    Preset {
        /// Preset name.
        preset: String,
    },
    /// Explicit hyperparameters (paper Fig. 2 notation).
    Explicit {
        /// Display name.
        #[serde(default)]
        name: Option<String>,
        /// Hidden size `h`.
        hidden_size: usize,
        /// Decoder layers `L`.
        num_layers: usize,
        /// Attention heads `n`.
        num_heads: usize,
        /// Sequence length `s`.
        seq_len: usize,
        /// Vocabulary size `V`.
        vocab_size: usize,
    },
}

/// Cluster: a platform preset plus size.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ClusterSection {
    /// `"aws-p4d"` (A100-40GB) or `"dgx-a100-80gb"`.
    pub preset: String,
    /// Total GPUs.
    pub total_gpus: usize,
}

/// The 3D-parallelism plan.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ParallelismSection {
    /// Tensor-parallel degree `t`.
    pub tensor: usize,
    /// Data-parallel degree `d`.
    pub data: usize,
    /// Pipeline depth `p`.
    pub pipeline: usize,
    /// Micro-batch size `m`.
    pub micro_batch: usize,
    /// Global batch (sequences per iteration).
    pub global_batch: usize,
    /// `"1f1b"` (default) or `"gpipe"`.
    #[serde(default)]
    pub schedule: Option<String>,
    /// DP gradient bucketing (default true).
    #[serde(default)]
    pub gradient_bucketing: Option<bool>,
}

/// Interconnect topology overrides for prediction.
///
/// `alpha` alone keeps the paper's flat Equation (1) model (it is the
/// flat model's §IV calibration knob); hierarchical topology-aware
/// pricing engages only when a `rack` tier is declared or
/// `hierarchical` is set.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TopologySection {
    /// Bandwidth-effectiveness factor `α ∈ (0, 1]` applied above the
    /// node tier (paper §IV; default 1.0).
    #[serde(default)]
    pub alpha: Option<f64>,
    /// Prices collectives on the cluster's two-tier hierarchy (NVLink /
    /// InfiniBand) via the algorithm library instead of the flat model,
    /// even without a rack tier.
    #[serde(default)]
    pub hierarchical: Option<bool>,
    /// Adds a rack tier: nodes grouped into racks joined by a spine
    /// (implies hierarchical pricing).
    #[serde(default)]
    pub rack: Option<RackSection>,
}

/// One rack tier of the hierarchy.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RackSection {
    /// Nodes per rack.
    pub nodes_per_rack: usize,
    /// Rack-spine bandwidth, bytes/s (default 25e9).
    #[serde(default)]
    pub bandwidth: Option<f64>,
    /// Rack-spine base latency, µs (default 35).
    #[serde(default)]
    pub base_latency_us: Option<f64>,
}

/// How communication time is priced.
///
/// `"closed-form"` (the default) prices every collective in isolation
/// via the paper's Equation (1) family; `"fair-sharing"` replays the
/// task graph with concurrent transfers contending for link bandwidth
/// under progressive-filling max-min fair sharing.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct NetworkSection {
    /// `"closed-form"` or `"fair-sharing"` (case-insensitive).
    pub backend: String,
}

/// Ground-truth emulation magnitudes; every field defaults to the
/// paper's §IV decomposition ([`NoiseConfig::default`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct NoiseSection {
    /// Seed for all deterministic pseudo-randomness.
    #[serde(default)]
    pub seed: Option<u64>,
    /// Mean fractional slow-down of overlapped collectives (~0.30).
    #[serde(default)]
    pub comm_inflation: Option<f64>,
    /// Log-normal σ of per-kernel jitter.
    #[serde(default)]
    pub jitter_sigma: Option<f64>,
    /// Log-normal σ of per-node straggler slow-down.
    #[serde(default)]
    pub straggler_sigma: Option<f64>,
    /// Fractional slow-down per additional DP group sharing uplinks.
    #[serde(default)]
    pub congestion_per_group: Option<f64>,
    /// Host-side launch overhead per kernel, ns.
    #[serde(default)]
    pub launch_overhead_ns: Option<u64>,
    /// Log-normal σ of the per-configuration iteration bias.
    #[serde(default)]
    pub iteration_bias_sigma: Option<f64>,
}

/// Design-space sweep: what to enumerate and what the result must
/// guarantee.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SweepSection {
    /// Grid bounds (each axis defaults to the paper's §V-A limits).
    #[serde(default)]
    pub limits: Option<LimitsSection>,
    /// `"exhaustive"` (default: every feasible point), `"front"` (the
    /// same points, filtered to the `(iteration time, GPUs)` Pareto
    /// frontier), or `"best"` (the fastest point; the only goal that
    /// skips candidates by their busy floor).
    #[serde(default)]
    pub goal: Option<String>,
    /// Global batch for candidate enumeration (defaults to the
    /// parallelism section's).
    #[serde(default)]
    pub global_batch: Option<usize>,
    /// Schedule for enumerated candidates (defaults to the parallelism
    /// section's, else `"1f1b"`).
    #[serde(default)]
    pub schedule: Option<String>,
    /// Worker threads (default: all cores).
    #[serde(default)]
    pub threads: Option<usize>,
    /// Placement axis: the same grid priced under several interconnect
    /// layouts, sharing one profile cache.
    #[serde(default)]
    pub placements: Option<Vec<PlacementSection>>,
}

/// Bounds of the `(t, d, p, m)` grid; omitted axes take the defaults of
/// [`SearchLimits`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct LimitsSection {
    /// Maximum tensor-parallel degree.
    #[serde(default)]
    pub max_tensor: Option<usize>,
    /// Maximum data-parallel degree.
    #[serde(default)]
    pub max_data: Option<usize>,
    /// Maximum pipeline depth.
    #[serde(default)]
    pub max_pipeline: Option<usize>,
    /// Maximum micro-batch size.
    #[serde(default)]
    pub max_micro_batch: Option<usize>,
}

/// One placement variant: `{}` is the cluster's plain two-tier layout;
/// `nodes_per_rack` adds a rack tier with an optional explicit spine.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PlacementSection {
    /// Display label (default `"two-tier"` or `"multi-rack/N"`).
    #[serde(default)]
    pub label: Option<String>,
    /// Nodes per rack (absent → no rack tier).
    #[serde(default)]
    pub nodes_per_rack: Option<usize>,
    /// Rack-spine bandwidth, bytes/s (default 25e9).
    #[serde(default)]
    pub bandwidth: Option<f64>,
    /// Rack-spine base latency, µs (default 35).
    #[serde(default)]
    pub base_latency_us: Option<f64>,
}

/// Builds a rack-spine tier from scenario fields, converting the
/// constructor's panics on nonsense values into scenario errors (user
/// input must never reach an `assert!`).
fn spine(bandwidth: Option<f64>, base_latency_us: Option<f64>) -> Result<TierSpec, Error> {
    let bandwidth = bandwidth.unwrap_or(DEFAULT_SPINE_BANDWIDTH);
    // The 1 MB/s floor keeps transfer times finite on the u64 ns clock;
    // anything slower is not a rack spine.
    const MIN_SPINE_BANDWIDTH: f64 = 1e6;
    if !(bandwidth >= MIN_SPINE_BANDWIDTH && bandwidth.is_finite()) {
        return Err(Error::scenario(format!(
            "spine bandwidth must be at least {MIN_SPINE_BANDWIDTH} bytes/s, got {bandwidth}"
        )));
    }
    let latency_us = base_latency_us.unwrap_or(DEFAULT_SPINE_LATENCY_US);
    // Capped at 1 s, like `noise.launch_overhead_ns`: a larger per-hop
    // latency is nonsense and overflows the u64 nanosecond clock.
    const MAX_SPINE_LATENCY_US: f64 = 1e6;
    if !(0.0..=MAX_SPINE_LATENCY_US).contains(&latency_us) {
        return Err(Error::scenario(format!(
            "spine base latency must be in 0..={MAX_SPINE_LATENCY_US} µs, got {latency_us}"
        )));
    }
    Ok(TierSpec::new(bandwidth, TimeNs::from_secs_f64(latency_us * 1e-6), 1.0))
}

/// Validates a scenario's `nodes_per_rack` before it can trip
/// `Topology::with_rack_tier`'s assertion.
fn checked_rack_size(nodes_per_rack: usize) -> Result<usize, Error> {
    if nodes_per_rack == 0 {
        return Err(Error::scenario("`nodes_per_rack` must be at least 1"));
    }
    Ok(nodes_per_rack)
}

fn parse_schedule(text: Option<&str>) -> Result<PipelineSchedule, Error> {
    // Case-insensitive, like the goal names.
    match text.map(str::to_lowercase).as_deref() {
        None | Some("1f1b") => Ok(PipelineSchedule::OneFOneB),
        Some("gpipe") => Ok(PipelineSchedule::GPipe),
        Some(other) => Err(Error::scenario(format!("unknown schedule `{other}`"))),
    }
}

impl Scenario {
    /// Parses a scenario from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] describing the malformed field, with
    /// line/column context for syntax errors.
    pub fn from_json(text: &str) -> Result<Self, Error> {
        Ok(serde_json::from_str(text)?)
    }

    /// Serializes the scenario back to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario serialization is infallible")
    }

    /// Resolves the model section.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown presets or invalid hyperparameters.
    pub fn model(&self) -> Result<ModelConfig, Error> {
        match &self.model {
            ModelSection::Preset { preset } => match preset.to_lowercase().as_str() {
                "gpt2-1.5b" => Ok(presets::gpt2_1_5b()),
                "gpt3-175b" => Ok(presets::gpt3_175b()),
                "mt-nlg-530b" => Ok(presets::mt_nlg_530b()),
                other => {
                    if let Some(size) = other.strip_prefix("megatron-") {
                        // Exact-name match: suffix matching would let a
                        // typo'd size ("8.4B") silently resolve to a
                        // different model ("18.4B").
                        let target = format!("Megatron {}", size.to_uppercase());
                        presets::megatron_family()
                            .into_iter()
                            .find(|m| m.name() == target)
                            .ok_or_else(|| {
                                Error::scenario(format!("unknown megatron size `{size}`"))
                            })
                    } else {
                        Err(Error::scenario(format!("unknown model preset `{preset}`")))
                    }
                }
            },
            ModelSection::Explicit {
                name,
                hidden_size,
                num_layers,
                num_heads,
                seq_len,
                vocab_size,
            } => Ok(ModelConfig::builder()
                .name(name.clone().unwrap_or_else(|| "scenario".to_owned()))
                .hidden_size(*hidden_size)
                .num_layers(*num_layers)
                .num_heads(*num_heads)
                .seq_len(*seq_len)
                .vocab_size(*vocab_size)
                .build()?),
        }
    }

    /// Resolves the cluster section.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown platform presets.
    pub fn cluster(&self) -> Result<ClusterSpec, Error> {
        match self.cluster.preset.to_lowercase().as_str() {
            "aws-p4d" => Ok(ClusterSpec::aws_p4d(self.cluster.total_gpus)),
            "dgx-a100-80gb" => Ok(ClusterSpec::dgx_a100_80gb(self.cluster.total_gpus)),
            other => Err(Error::scenario(format!("unknown cluster preset `{other}`"))),
        }
    }

    /// Resolves the parallelism section into a typed plan.
    ///
    /// # Errors
    ///
    /// Returns an error if the section is absent, a degree is invalid,
    /// or the schedule is unknown.
    pub fn plan(&self) -> Result<ParallelConfig, Error> {
        let Some(p) = &self.parallelism else {
            return Err(Error::scenario(
                "missing `parallelism` section (required to predict a single plan)",
            ));
        };
        let schedule = parse_schedule(p.schedule.as_deref())?;
        Ok(ParallelConfig::builder()
            .tensor(p.tensor)
            .data(p.data)
            .pipeline(p.pipeline)
            .micro_batch(p.micro_batch)
            .global_batch(p.global_batch)
            .schedule(schedule)
            .gradient_bucketing(p.gradient_bucketing.unwrap_or(true))
            .build()?)
    }

    /// The §IV bandwidth-effectiveness factor (default 1.0).
    pub fn alpha(&self) -> f64 {
        self.topology.as_ref().and_then(|t| t.alpha).unwrap_or(1.0)
    }

    /// [`Scenario::alpha`], rejecting values outside `(0, 1]` before
    /// they can trip a tier constructor's assertion.
    fn checked_alpha(&self) -> Result<f64, Error> {
        let alpha = self.alpha();
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(Error::scenario(format!(
                "`topology.alpha` must be in (0, 1], got {alpha}"
            )));
        }
        Ok(alpha)
    }

    /// The communication pricing backend the scenario selects (default
    /// [`NetworkBackend::ClosedForm`]).
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown backend name.
    pub fn network_backend(&self) -> Result<NetworkBackend, Error> {
        match &self.network {
            None => Ok(NetworkBackend::default()),
            Some(section) => NetworkBackend::parse(&section.backend).ok_or_else(|| {
                Error::scenario(format!(
                    "unknown network backend `{}` (expected closed-form|fair-sharing)",
                    section.backend
                ))
            }),
        }
    }

    /// The noise configuration: the optional section's overrides merged
    /// over [`NoiseConfig::default`]. `None` when no section is present.
    ///
    /// # Errors
    ///
    /// Returns an error for negative or non-finite magnitudes — the
    /// noise model scales times by these factors, and they must never
    /// reach its assertions from user input.
    pub fn noise_config(&self) -> Result<Option<NoiseConfig>, Error> {
        let Some(n) = &self.noise else { return Ok(None) };
        let base = NoiseConfig::default();
        let merged = NoiseConfig {
            seed: n.seed.unwrap_or(base.seed),
            comm_inflation: n.comm_inflation.unwrap_or(base.comm_inflation),
            jitter_sigma: n.jitter_sigma.unwrap_or(base.jitter_sigma),
            straggler_sigma: n.straggler_sigma.unwrap_or(base.straggler_sigma),
            congestion_per_group: n.congestion_per_group.unwrap_or(base.congestion_per_group),
            launch_overhead: n
                .launch_overhead_ns
                .map(TimeNs::from_nanos)
                .unwrap_or(base.launch_overhead),
            iteration_bias_sigma: n.iteration_bias_sigma.unwrap_or(base.iteration_bias_sigma),
        };
        // 10 is far beyond any physical magnitude (the paper's largest
        // is 0.30) yet small enough that `exp(σ·z)` and the inflation
        // factors stay finite through the replay's multiplications.
        const MAX_NOISE_MAGNITUDE: f64 = 10.0;
        for (value, field) in [
            (merged.comm_inflation, "comm_inflation"),
            (merged.jitter_sigma, "jitter_sigma"),
            (merged.straggler_sigma, "straggler_sigma"),
            (merged.congestion_per_group, "congestion_per_group"),
            (merged.iteration_bias_sigma, "iteration_bias_sigma"),
        ] {
            if !(0.0..=MAX_NOISE_MAGNITUDE).contains(&value) {
                return Err(Error::scenario(format!(
                    "`noise.{field}` must be in 0..={MAX_NOISE_MAGNITUDE}, got {value}"
                )));
            }
        }
        // A per-kernel overhead beyond 1 s is nonsense and, accumulated
        // over a replay, overflows the u64 nanosecond clock.
        const MAX_LAUNCH_OVERHEAD_NS: u64 = 1_000_000_000;
        if merged.launch_overhead.as_nanos() > MAX_LAUNCH_OVERHEAD_NS {
            return Err(Error::scenario(format!(
                "`noise.launch_overhead_ns` must be at most {MAX_LAUNCH_OVERHEAD_NS} (1 s), \
                 got {}",
                merged.launch_overhead.as_nanos()
            )));
        }
        Ok(Some(merged))
    }

    /// The topology the prediction estimator prices communication on:
    /// `None` for the flat Equation (1) model (no topology section, or
    /// one that only calibrates `alpha`), otherwise the cluster's
    /// two-tier layout, extended by a rack tier if the section declares
    /// one.
    ///
    /// # Errors
    ///
    /// Returns an error if the cluster preset is unknown or a section
    /// value is out of range.
    pub fn topology(&self) -> Result<Option<Topology>, Error> {
        let Some(section) = &self.topology else { return Ok(None) };
        // A rack tier only exists under hierarchical pricing; an
        // explicit opt-out alongside one is contradictory, not a
        // precedence question.
        if section.hierarchical == Some(false) && section.rack.is_some() {
            return Err(Error::scenario(
                "`topology.hierarchical: false` contradicts `topology.rack` — a rack tier \
                 requires hierarchical pricing",
            ));
        }
        // `alpha` alone calibrates the flat model; it must not silently
        // switch pricing models (the numbers differ).
        if section.rack.is_none() && !section.hierarchical.unwrap_or(false) {
            self.checked_alpha()?;
            return Ok(None);
        }
        let cluster = self.cluster()?;
        let mut topo = cluster.topology(self.checked_alpha()?);
        if let Some(rack) = &section.rack {
            topo = topo.with_rack_tier(
                checked_rack_size(rack.nodes_per_rack)?,
                spine(rack.bandwidth, rack.base_latency_us)?,
            );
        }
        Ok(Some(topo))
    }

    /// Builds the estimator the scenario describes: cluster + α +
    /// optional topology + optional noise, via [`Estimator::builder`].
    ///
    /// # Errors
    ///
    /// Returns an error if the cluster or topology cannot be resolved.
    pub fn estimator(&self) -> Result<Estimator, Error> {
        Ok(self.estimator_builder()?.build())
    }

    /// [`Scenario::estimator`] over a shared profile cache — the serving
    /// path, where one cache spans every request's estimator.
    ///
    /// # Errors
    ///
    /// Returns an error if the cluster or topology cannot be resolved.
    pub fn estimator_with(&self, cache: Arc<ProfileCache>) -> Result<Estimator, Error> {
        Ok(self.estimator_builder()?.cache(cache).build())
    }

    fn estimator_builder(&self) -> Result<EstimatorBuilder, Error> {
        let mut builder = Estimator::builder(self.cluster()?)
            .alpha(self.checked_alpha()?)
            .network(self.network_backend()?);
        if let Some(topology) = self.topology()? {
            builder = builder.topology(topology);
        }
        if let Some(noise) = self.noise_config()? {
            builder = builder.noise(noise);
        }
        Ok(builder)
    }

    /// The cost model: the scenario's GPU-hour rate, or the paper's
    /// default P4d rate when unset.
    ///
    /// # Errors
    ///
    /// Returns an error for a non-positive or non-finite rate — the
    /// cost model asserts positivity, and user input must never reach
    /// that assertion.
    pub fn cost_model(&self) -> Result<CostModel, Error> {
        match self.cost_per_gpu_hour {
            None => Ok(CostModel::default()),
            Some(rate) if rate > 0.0 && rate.is_finite() => Ok(CostModel::new(rate)),
            Some(rate) => Err(Error::scenario(format!(
                "`cost_per_gpu_hour` must be a positive finite number, got {rate}"
            ))),
        }
    }

    /// Resolves the sweep section's grid bounds (defaults where omitted).
    pub fn limits(&self) -> SearchLimits {
        let defaults = SearchLimits::default();
        let Some(l) = self.sweep.as_ref().and_then(|s| s.limits.as_ref()) else {
            return defaults;
        };
        SearchLimits {
            max_tensor: l.max_tensor.unwrap_or(defaults.max_tensor),
            max_data: l.max_data.unwrap_or(defaults.max_data),
            max_pipeline: l.max_pipeline.unwrap_or(defaults.max_pipeline),
            max_micro_batch: l.max_micro_batch.unwrap_or(defaults.max_micro_batch),
        }
    }

    /// Resolves the sweep section's goal (default exhaustive).
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown goal name.
    pub fn goal(&self) -> Result<SweepGoal, Error> {
        // Case-insensitive, like the schedule names.
        match self.sweep.as_ref().and_then(|s| s.goal.as_deref()).map(str::to_lowercase).as_deref()
        {
            None | Some("exhaustive") => Ok(SweepGoal::Exhaustive),
            Some("front") => Ok(SweepGoal::Front),
            Some("best") => Ok(SweepGoal::Best),
            Some(other) => Err(Error::scenario(format!(
                "unknown sweep goal `{other}` (expected exhaustive|front|best)"
            ))),
        }
    }

    /// Builds the configured [`Sweep`] the scenario describes (not yet
    /// run). The global batch comes from the sweep section, falling back
    /// to the parallelism section's.
    ///
    /// # Errors
    ///
    /// Returns an error if no global batch is available, or any section
    /// fails to resolve.
    pub fn sweep(&self) -> Result<Sweep, Error> {
        let model = self.model()?;
        let cluster = self.cluster()?;
        let section = self.sweep.as_ref();
        let batch = section
            .and_then(|s| s.global_batch)
            .or_else(|| self.parallelism.as_ref().map(|p| p.global_batch))
            .ok_or_else(|| {
                Error::scenario(
                    "no global batch for the sweep (set `sweep.global_batch` or a \
                     `parallelism` section)",
                )
            })?;
        if batch == 0 {
            return Err(Error::scenario("the sweep's global batch must be at least 1"));
        }
        let schedule = parse_schedule(
            section
                .and_then(|s| s.schedule.as_deref())
                .or_else(|| self.parallelism.as_ref().and_then(|p| p.schedule.as_deref())),
        )?;
        let limits = self.limits();
        for (value, field) in [
            (limits.max_tensor, "max_tensor"),
            (limits.max_data, "max_data"),
            (limits.max_pipeline, "max_pipeline"),
            (limits.max_micro_batch, "max_micro_batch"),
        ] {
            if value == 0 {
                return Err(Error::scenario(format!(
                    "`sweep.limits.{field}` must be at least 1 (a zero limit sweeps nothing)"
                )));
            }
        }
        let mut sweep = Sweep::over(&model, &cluster)
            .batch(batch)
            .schedule(schedule)
            .limits(limits)
            .goal(self.goal()?)
            .alpha(self.checked_alpha()?)
            .network(self.network_backend()?);
        if let Some(threads) = section.and_then(|s| s.threads) {
            // Bound worker threads: a runaway value would panic at OS
            // thread-spawn instead of erroring like every other field.
            const MAX_SWEEP_THREADS: usize = 512;
            if !(1..=MAX_SWEEP_THREADS).contains(&threads) {
                return Err(Error::scenario(format!(
                    "`sweep.threads` must be in 1..={MAX_SWEEP_THREADS}, got {threads}"
                )));
            }
            sweep = sweep.threads(threads);
        }
        // An empty placement list means "no placement axis", not "flat
        // sweep": fall through to the scenario's topology section.
        let placements = section.and_then(|s| s.placements.as_ref()).filter(|p| !p.is_empty());
        if let Some(placements) = placements {
            // The placement axis defines each variant's rack structure
            // and always prices hierarchically; a scenario-level rack
            // tier would be silently overridden, and an explicit flat
            // opt-out silently ignored.
            if self.topology.as_ref().is_some_and(|t| t.rack.is_some()) {
                return Err(Error::scenario(
                    "`topology.rack` conflicts with `sweep.placements` — declare rack tiers \
                     per placement variant instead",
                ));
            }
            if self.topology.as_ref().is_some_and(|t| t.hierarchical == Some(false)) {
                return Err(Error::scenario(
                    "`topology.hierarchical: false` conflicts with `sweep.placements` — \
                     placement variants are always priced hierarchically",
                ));
            }
            let base = cluster.topology(self.checked_alpha()?);
            let resolved: Vec<(String, Topology)> = placements
                .iter()
                .map(|p| match p.nodes_per_rack {
                    None => {
                        // Spine fields describe the rack tier; without
                        // one they would be silently meaningless.
                        if p.bandwidth.is_some() || p.base_latency_us.is_some() {
                            return Err(Error::scenario(
                                "placement sets spine fields (`bandwidth`/`base_latency_us`) \
                                 without `nodes_per_rack`",
                            ));
                        }
                        Ok((p.label.clone().unwrap_or_else(|| "two-tier".to_owned()), base.clone()))
                    }
                    Some(nodes) => Ok((
                        p.label.clone().unwrap_or_else(|| format!("multi-rack/{nodes}")),
                        base.clone().with_rack_tier(
                            checked_rack_size(nodes)?,
                            spine(p.bandwidth, p.base_latency_us)?,
                        ),
                    )),
                })
                .collect::<Result<_, Error>>()?;
            let mut sorted: Vec<&(String, Topology)> = resolved.iter().collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            for pair in sorted.windows(2) {
                if pair[0].0 != pair[1].0 {
                    continue;
                }
                return Err(if pair[0].1 == pair[1].1 {
                    Error::scenario(format!(
                        "duplicate placement `{}` — each copy would run the identical sweep \
                         under an indistinguishable label",
                        pair[0].0
                    ))
                } else {
                    Error::scenario(format!(
                        "distinct placements share the label `{}` — set explicit `label`s to \
                         tell the variants apart",
                        pair[0].0
                    ))
                });
            }
            sweep = sweep.placements(resolved);
        } else if let Some(topology) = self.topology()? {
            sweep = sweep.topology(topology);
        }
        Ok(sweep)
    }

    /// Resolves every section that is present, returning the first
    /// error — the `vtrain validate` subcommand.
    ///
    /// # Errors
    ///
    /// Returns the first resolution error across sections.
    pub fn check(&self) -> Result<(), Error> {
        let model = self.model()?;
        let cluster = self.cluster()?;
        if self.parallelism.is_some() {
            let plan = self.plan()?;
            plan.validate(&model, &cluster)?;
        }
        self.topology()?;
        self.network_backend()?;
        self.noise_config()?;
        self.cost_model()?;
        self.goal()?;
        if self.sweep.is_some() {
            self.sweep()?;
        }
        if self.parallelism.is_none() && self.sweep.is_none() {
            return Err(Error::scenario(
                "scenario has neither a `parallelism` nor a `sweep` section — nothing to run",
            ));
        }
        // Noise only drives `predict`'s measured emulation; in a
        // sweep-only scenario it would be silently ignored.
        if self.noise.is_some() && self.parallelism.is_none() {
            return Err(Error::scenario(
                "`noise` requires a `parallelism` section — sweeps use clean predictions, so \
                 noise would be silently ignored",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"{
        "model": { "preset": "megatron-18.4B" },
        "cluster": { "preset": "aws-p4d", "total_gpus": 512 },
        "parallelism": { "tensor": 8, "data": 8, "pipeline": 8,
                         "micro_batch": 2, "global_batch": 512,
                         "schedule": "1f1b" },
        "tokens": 300000000000
    }"#;

    #[test]
    fn example_description_resolves() {
        let d = Scenario::from_json(EXAMPLE).unwrap();
        assert_eq!(d.model().unwrap().hidden_size(), 6144);
        assert_eq!(d.cluster().unwrap().total_gpus, 512);
        let plan = d.plan().unwrap();
        assert_eq!(plan.num_gpus(), 512);
        assert_eq!(d.tokens, Some(300_000_000_000));
        d.check().unwrap();
    }

    #[test]
    fn explicit_model_resolves() {
        let text = r#"{
            "model": { "hidden_size": 1024, "num_layers": 8, "num_heads": 16,
                       "seq_len": 512, "vocab_size": 50257 },
            "cluster": { "preset": "dgx-a100-80gb", "total_gpus": 8 },
            "parallelism": { "tensor": 2, "data": 2, "pipeline": 2,
                             "micro_batch": 1, "global_batch": 8 }
        }"#;
        let d = Scenario::from_json(text).unwrap();
        assert_eq!(d.model().unwrap().num_layers(), 8);
        assert_eq!(d.plan().unwrap().schedule(), PipelineSchedule::OneFOneB);
    }

    #[test]
    fn unknown_preset_is_an_error() {
        let text = EXAMPLE.replace("megatron-18.4B", "bert-base");
        let d = Scenario::from_json(&text).unwrap();
        let err = d.model().unwrap_err();
        assert!(err.to_string().contains("unknown"));
        // A typo'd size must error, not suffix-match a larger model.
        let text = EXAMPLE.replace("megatron-18.4B", "megatron-8.4B");
        let err = Scenario::from_json(&text).unwrap().model().unwrap_err();
        assert!(err.to_string().contains("unknown megatron size"), "{err}");
    }

    #[test]
    fn unknown_schedule_is_an_error() {
        let text = EXAMPLE.replace("1f1b", "interleaved");
        let d = Scenario::from_json(&text).unwrap();
        assert!(d.plan().is_err());
    }

    #[test]
    fn malformed_json_reports_position() {
        let err = Scenario::from_json("{\n  \"model\": }").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "position context in: {msg}");
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let text = EXAMPLE.replace("\"tokens\"", "\"tokns\"");
        let err = Scenario::from_json(&text).unwrap_err();
        assert!(err.to_string().contains("unknown field `tokns`"), "{err}");
        // ... in nested sections too.
        let text = EXAMPLE.replace("\"tensor\"", "\"tensr\"");
        assert!(Scenario::from_json(&text).is_err());
    }

    #[test]
    fn topology_and_noise_sections_resolve() {
        let text = r#"{
            "model": { "preset": "megatron-1.7B" },
            "cluster": { "preset": "aws-p4d", "total_gpus": 64 },
            "parallelism": { "tensor": 2, "data": 4, "pipeline": 2,
                             "micro_batch": 1, "global_batch": 16 },
            "topology": { "alpha": 0.8, "rack": { "nodes_per_rack": 2 } },
            "noise": { "seed": 7, "comm_inflation": 0.25 }
        }"#;
        let d = Scenario::from_json(text).unwrap();
        assert_eq!(d.alpha(), 0.8);
        let topo = d.topology().unwrap().unwrap();
        assert_eq!(topo.num_tiers(), 3);
        let noise = d.noise_config().unwrap().unwrap();
        assert_eq!(noise.seed, 7);
        assert_eq!(noise.comm_inflation, 0.25);
        // Unset noise fields keep their defaults.
        assert_eq!(noise.jitter_sigma, NoiseConfig::default().jitter_sigma);
        let est = d.estimator().unwrap();
        assert!(est.is_topology_aware());
        assert_eq!(est.alpha(), 0.8);
    }

    #[test]
    fn alpha_only_topology_section_keeps_the_flat_model() {
        let text = r#"{
            "model": { "preset": "megatron-1.7B" },
            "cluster": { "preset": "aws-p4d", "total_gpus": 16 },
            "parallelism": { "tensor": 2, "data": 2, "pipeline": 2,
                             "micro_batch": 1, "global_batch": 8 },
            "topology": { "alpha": 0.9 }
        }"#;
        let d = Scenario::from_json(text).unwrap();
        // α is the flat model's calibration knob: stating it must not
        // silently switch to hierarchical pricing.
        assert_eq!(d.topology().unwrap(), None);
        let est = d.estimator().unwrap();
        assert!(!est.is_topology_aware());
        assert_eq!(est.alpha(), 0.9);
        // Explicit opt-in engages the hierarchy without a rack tier.
        let aware = Scenario::from_json(&text.replace(
            r#""topology": { "alpha": 0.9 }"#,
            r#""topology": { "alpha": 0.9, "hierarchical": true }"#,
        ))
        .unwrap();
        assert!(aware.estimator().unwrap().is_topology_aware());
        // An explicit opt-out next to a rack tier is contradictory.
        let conflicted = Scenario::from_json(&text.replace(
            r#""topology": { "alpha": 0.9 }"#,
            r#""topology": { "hierarchical": false, "rack": { "nodes_per_rack": 2 } }"#,
        ))
        .unwrap();
        assert!(conflicted.topology().unwrap_err().to_string().contains("contradicts"));
        // Schedule names are case-insensitive, like goals.
        let cased =
            Scenario::from_json(&text.replace("\"topology\"", "\"tokens\": 1, \"topology\""))
                .unwrap();
        assert!(cased.plan().is_ok());
        let mut scenario = cased;
        scenario.parallelism.as_mut().unwrap().schedule = Some("GPIPE".to_owned());
        assert_eq!(scenario.plan().unwrap().schedule(), PipelineSchedule::GPipe);
    }

    #[test]
    fn network_section_selects_the_pricing_backend() {
        let base = r#"{
            "model": { "preset": "megatron-1.7B" },
            "cluster": { "preset": "aws-p4d", "total_gpus": 16 },
            "parallelism": { "tensor": 2, "data": 4, "pipeline": 2,
                             "micro_batch": 1, "global_batch": 8 }
        }"#;
        let d = Scenario::from_json(base).unwrap();
        assert_eq!(d.network_backend().unwrap(), NetworkBackend::ClosedForm);
        assert_eq!(d.estimator().unwrap().network(), NetworkBackend::ClosedForm);

        let with = |backend: &str| {
            let text = format!(
                "{}, \"network\": {{ \"backend\": \"{backend}\" }}}}",
                &base[..base.rfind('}').unwrap()]
            );
            Scenario::from_json(&text).unwrap()
        };
        // Both canonical spellings parse, case-insensitively.
        let fair = with("fair-sharing");
        fair.check().unwrap();
        assert_eq!(fair.network_backend().unwrap(), NetworkBackend::FairSharing);
        assert_eq!(fair.estimator().unwrap().network(), NetworkBackend::FairSharing);
        assert_eq!(with("Closed-Form").network_backend().unwrap(), NetworkBackend::ClosedForm);
        // An unknown backend errors at resolution and at validation.
        let bad = with("tdma");
        let err = bad.network_backend().unwrap_err();
        assert!(err.to_string().contains("unknown network backend `tdma`"), "{err}");
        assert!(bad.check().is_err(), "validate must flag the unknown backend");
        // The section round-trips through serialization.
        let reparsed = Scenario::from_json(&fair.to_json()).unwrap();
        assert_eq!(reparsed.network_backend().unwrap(), NetworkBackend::FairSharing);
    }

    #[test]
    fn sweep_section_builds_a_goal_guided_placement_sweep() {
        let text = r#"{
            "model": { "preset": "megatron-1.7B" },
            "cluster": { "preset": "aws-p4d", "total_gpus": 32 },
            "sweep": {
                "global_batch": 16,
                "goal": "best",
                "threads": 2,
                "limits": { "max_tensor": 2, "max_data": 4, "max_pipeline": 2,
                            "max_micro_batch": 2 },
                "placements": [ {}, { "nodes_per_rack": 2 } ]
            }
        }"#;
        let d = Scenario::from_json(text).unwrap();
        d.check().unwrap();
        assert_eq!(d.goal().unwrap(), SweepGoal::Best);
        let cased = Scenario::from_json(&text.replace("\"best\"", "\"Best\"")).unwrap();
        assert_eq!(cased.goal().unwrap(), SweepGoal::Best, "goal names are case-insensitive");
        let run = d.sweep().unwrap().run();
        let variants = run.variants();
        assert_eq!(variants.len(), 2);
        assert_eq!(variants[0].label, "two-tier");
        assert_eq!(variants[1].label, "multi-rack/2");
        for v in variants {
            assert_eq!(v.outcome.points.len(), 1, "Best returns exactly the winner");
        }
    }

    #[test]
    fn nonsense_numeric_inputs_error_instead_of_panicking() {
        let base = r#"{
            "model": { "preset": "megatron-1.7B" },
            "cluster": { "preset": "aws-p4d", "total_gpus": 32 },
            "parallelism": { "tensor": 2, "data": 4, "pipeline": 2,
                             "micro_batch": 1, "global_batch": 16 }
        }"#;
        let with = |extra: &str| {
            let text = format!("{}{}{}", &base[..base.rfind('}').unwrap()], extra, "}");
            Scenario::from_json(&text).unwrap()
        };
        // α outside (0, 1].
        let d = with(r#", "topology": { "alpha": 1.5 }"#);
        assert!(d.estimator().unwrap_err().to_string().contains("alpha"));
        assert!(d.check().is_err());
        // Zero-node racks.
        let d = with(r#", "topology": { "rack": { "nodes_per_rack": 0 } }"#);
        assert!(d.topology().unwrap_err().to_string().contains("nodes_per_rack"));
        // Non-positive spine bandwidth on the placement axis.
        let d =
            with(r#", "sweep": { "placements": [ { "nodes_per_rack": 2, "bandwidth": 0.0 } ] }"#);
        assert!(d.sweep().unwrap_err().to_string().contains("bandwidth"));
        // A zero global batch cannot enumerate candidates.
        let d = with(r#", "sweep": { "global_batch": 0 }"#);
        assert!(d.sweep().unwrap_err().to_string().contains("global batch"));
        // Zero limits sweep nothing — error like the other zero fields.
        let d = with(r#", "sweep": { "global_batch": 8, "limits": { "max_tensor": 0 } }"#);
        assert!(d.sweep().unwrap_err().to_string().contains("max_tensor"));
        // Noise in a sweep-only scenario would be silently ignored.
        {
            let mut scenario = with(r#", "sweep": { "global_batch": 8 }"#);
            scenario.parallelism = None;
            scenario.noise = Some(NoiseSection {
                seed: Some(1),
                comm_inflation: None,
                jitter_sigma: None,
                straggler_sigma: None,
                congestion_per_group: None,
                launch_overhead_ns: None,
                iteration_bias_sigma: None,
            });
            assert!(scenario.check().unwrap_err().to_string().contains("noise"));
        }
        // Duplicate placement variants would run identical sweeps under
        // indistinguishable labels.
        let d = with(r#", "sweep": { "global_batch": 8, "placements": [ {}, {} ] }"#);
        assert!(d.sweep().unwrap_err().to_string().contains("duplicate placement"));
        // Distinct variants colliding on a default label need explicit
        // labels, not a false "identical sweep" claim.
        let d = with(
            r#", "sweep": { "global_batch": 8, "placements": [
                 { "nodes_per_rack": 2, "bandwidth": 25e9 },
                 { "nodes_per_rack": 2, "bandwidth": 12.5e9 } ] }"#,
        );
        assert!(d.sweep().unwrap_err().to_string().contains("set explicit `label`s"));
        // ... and with labels the same pair is a legitimate comparison.
        let d = with(
            r#", "sweep": { "global_batch": 8, "placements": [
                 { "nodes_per_rack": 2, "bandwidth": 25e9, "label": "thick" },
                 { "nodes_per_rack": 2, "bandwidth": 12.5e9, "label": "thin" } ] }"#,
        );
        assert!(d.sweep().is_ok());
        // Runaway thread counts would panic at OS thread-spawn.
        let d = with(r#", "sweep": { "global_batch": 8, "threads": 1000000 }"#);
        assert!(d.sweep().unwrap_err().to_string().contains("threads"));
        let d = with(r#", "sweep": { "global_batch": 8, "threads": 0 }"#);
        assert!(d.sweep().unwrap_err().to_string().contains("threads"));
        // Negative or non-finite noise magnitudes would reach
        // `TimeNs::scale`'s assertion inside the noise model.
        let d = with(r#", "noise": { "comm_inflation": -2.0 }"#);
        assert!(d.estimator().unwrap_err().to_string().contains("comm_inflation"));
        assert!(d.check().is_err(), "validate must flag what predict would panic on");
        let d = with(r#", "noise": { "jitter_sigma": 1e400 }"#);
        assert!(d.noise_config().is_err(), "non-finite sigma must be rejected");
        let d = with(r#", "noise": { "jitter_sigma": 1e308 }"#);
        assert!(d.noise_config().is_err(), "huge finite sigma would overflow exp(sigma*z)");
        // An absurd spine latency would saturate and overflow the ns
        // clock inside the communication model.
        let d =
            with(r#", "topology": { "rack": { "nodes_per_rack": 1, "base_latency_us": 1e25 } }"#);
        assert!(d.topology().unwrap_err().to_string().contains("latency"));
        // An absurd launch overhead would overflow the ns clock.
        let d = with(r#", "noise": { "launch_overhead_ns": 18446744073709551615 }"#);
        assert!(d.noise_config().unwrap_err().to_string().contains("launch_overhead_ns"));
        assert!(d.check().is_err());
        // Placement variants always price hierarchically; an explicit
        // flat opt-out is contradictory.
        let d = with(
            r#", "topology": { "hierarchical": false },
               "sweep": { "global_batch": 8, "placements": [ {} ] }"#,
        );
        assert!(d.sweep().unwrap_err().to_string().contains("hierarchical"));
        // Non-positive or non-finite GPU-hour rates would reach
        // `CostModel::new`'s assertion via the projection.
        for rate in ["-1.0", "0.0", "1e400"] {
            let d = with(&format!(r#", "tokens": 1000, "cost_per_gpu_hour": {rate}"#));
            assert!(
                d.cost_model().unwrap_err().to_string().contains("cost_per_gpu_hour"),
                "rate {rate} must be rejected"
            );
            assert!(d.check().is_err(), "validate must flag rate {rate}");
        }
        // Spine fields are meaningless without a rack tier — reject
        // rather than silently pricing the plain two-tier layout.
        let d = with(r#", "sweep": { "placements": [ { "bandwidth": 100e9 } ] }"#);
        assert!(d.sweep().unwrap_err().to_string().contains("nodes_per_rack"));
        assert!(d.check().is_err());
        // A scenario-level rack tier would be silently overridden by the
        // placement axis — reject the ambiguous combination.
        let d = with(
            r#", "topology": { "rack": { "nodes_per_rack": 2 } },
               "sweep": { "placements": [ {} ] }"#,
        );
        assert!(d.sweep().unwrap_err().to_string().contains("conflicts"));
    }

    #[test]
    fn empty_placement_list_falls_back_to_the_topology_section() {
        let text = r#"{
            "model": { "preset": "megatron-1.7B" },
            "cluster": { "preset": "aws-p4d", "total_gpus": 16 },
            "topology": { "rack": { "nodes_per_rack": 1 } },
            "sweep": { "global_batch": 8, "threads": 1, "placements": [],
                       "limits": { "max_tensor": 2, "max_data": 2, "max_pipeline": 2,
                                   "max_micro_batch": 1 } }
        }"#;
        let d = Scenario::from_json(text).unwrap();
        // `placements: []` must not silently discard the declared rack
        // tier: the single-variant sweep prices on the 3-tier topology.
        let run = d.sweep().unwrap().run();
        assert_eq!(run.variants().len(), 1);
        assert!(!run.outcome().points.is_empty());
        let est = d.estimator().unwrap();
        assert_eq!(est.topology().num_tiers(), 3);
        let flat = {
            let mut scenario = d.clone();
            scenario.topology = None;
            scenario.sweep().unwrap().run()
        };
        for (racked, flat) in run.outcome().points.iter().zip(&flat.outcome().points) {
            assert!(racked.estimate.iteration_time >= flat.estimate.iteration_time);
        }
    }

    #[test]
    fn scenario_without_work_is_invalid() {
        let text = r#"{
            "model": { "preset": "megatron-1.7B" },
            "cluster": { "preset": "aws-p4d", "total_gpus": 32 }
        }"#;
        let d = Scenario::from_json(text).unwrap();
        let err = d.check().unwrap_err();
        assert!(err.to_string().contains("nothing to run"), "{err}");
    }
}
