//! Pipeline-parallel schedules: GPipe and 1F1B (paper Fig. 7).
//!
//! A schedule determines, for each pipeline stage, the order in which
//! forward and backward passes of micro-batches execute on that stage's
//! GPUs, and therefore both the pipeline-bubble overhead and the peak number
//! of in-flight micro-batches (activation memory pressure).

use std::ops::Range;

use serde::{Deserialize, Serialize};

/// Direction of a pass through one pipeline stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Pass {
    /// Forward pass of a micro-batch.
    Forward,
    /// Backward pass of a micro-batch.
    Backward,
}

/// One entry of a stage's execution program: which micro-batch, which pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StageSlot {
    /// Micro-batch index, `0..num_micro_batches`.
    pub micro_batch: usize,
    /// Forward or backward.
    pub pass: Pass,
}

impl StageSlot {
    fn fwd(micro_batch: usize) -> Self {
        StageSlot { micro_batch, pass: Pass::Forward }
    }
    fn bwd(micro_batch: usize) -> Self {
        StageSlot { micro_batch, pass: Pass::Backward }
    }
}

/// The pipeline scheduling policy (paper Fig. 7).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PipelineSchedule {
    /// GPipe: all forwards, then all backwards (in reverse micro-batch
    /// order). Activations of every micro-batch are simultaneously live.
    GPipe,
    /// One-forward-one-backward (PipeDream-flush): warm up, then alternate,
    /// bounding in-flight micro-batches by the pipeline depth.
    #[default]
    OneFOneB,
}

impl PipelineSchedule {
    /// The per-stage execution program for `stage` (0-indexed from the
    /// input side) of a `pipeline_depth`-stage pipeline processing
    /// `num_micro_batches` micro-batches.
    ///
    /// The returned slots are the *intra-GPU* order the paper's operator
    /// graph enforces (Fig. 7); cross-stage precedence is added separately
    /// when the execution graph is built.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= pipeline_depth` or either count is zero.
    pub fn stage_program(
        self,
        stage: usize,
        pipeline_depth: usize,
        num_micro_batches: usize,
    ) -> Vec<StageSlot> {
        assert!(pipeline_depth > 0 && num_micro_batches > 0, "counts must be positive");
        assert!(stage < pipeline_depth, "stage {stage} out of range {pipeline_depth}");
        let n = num_micro_batches;
        let mut program = Vec::with_capacity(2 * n);
        match self {
            PipelineSchedule::GPipe => {
                program.extend((0..n).map(StageSlot::fwd));
                program.extend((0..n).rev().map(StageSlot::bwd));
            }
            PipelineSchedule::OneFOneB => {
                let warmup = (pipeline_depth - 1 - stage).min(n);
                let mut next_fwd = 0;
                let mut next_bwd = 0;
                for _ in 0..warmup {
                    program.push(StageSlot::fwd(next_fwd));
                    next_fwd += 1;
                }
                while next_fwd < n {
                    program.push(StageSlot::fwd(next_fwd));
                    next_fwd += 1;
                    program.push(StageSlot::bwd(next_bwd));
                    next_bwd += 1;
                }
                while next_bwd < n {
                    program.push(StageSlot::bwd(next_bwd));
                    next_bwd += 1;
                }
            }
        }
        program
    }

    /// The micro-batch count from which [`stage_sections`] keeps one
    /// shape: at or above it, a larger count only raises the steady
    /// sections' period counts. Below it the period counts of some
    /// sections are 0 or 1, which changes what a periodic graph holds.
    ///
    /// 1F1B needs `p + 2` micro-batches (two steady pairs, so the steady
    /// section repeats); GPipe needs three (two copies of the backward
    /// train besides the final backward).
    ///
    /// [`stage_sections`]: PipelineSchedule::stage_sections
    pub fn sections_stable_from(self, pipeline_depth: usize) -> usize {
        match self {
            PipelineSchedule::GPipe => 3,
            PipelineSchedule::OneFOneB => pipeline_depth + 2,
        }
    }

    /// The period counts of the sections [`stage_sections`] returns for
    /// `stage`, in order, without building them. Every stage has the same
    /// number of sections.
    ///
    /// [`stage_sections`]: PipelineSchedule::stage_sections
    ///
    /// # Panics
    ///
    /// Same conditions as [`PipelineSchedule::stage_program`].
    pub fn section_periods(
        self,
        stage: usize,
        pipeline_depth: usize,
        num_micro_batches: usize,
    ) -> impl Iterator<Item = usize> {
        let (p, n) = (pipeline_depth, num_micro_batches);
        assert!(p > 0 && n > 0, "counts must be positive");
        assert!(stage < p, "stage {stage} out of range {p}");
        let (periods, len) = match self {
            PipelineSchedule::GPipe => ([n, n - 1, 1, 0, 0, 0], 3),
            PipelineSchedule::OneFOneB => {
                let warmup = (p - 1 - stage).min(n);
                let steady = n.saturating_sub(p);
                let last = usize::from(warmup == 0);
                let pairs = n - warmup - steady - last;
                ([warmup, steady, pairs, last, warmup.saturating_sub(1), 1], 6)
            }
        };
        periods.into_iter().take(len)
    }

    /// [`stage_program`] in periodic form: a fixed list of sections whose
    /// expansion, section by section and period by period, is exactly the
    /// stage program. Every section holds one or two slot patterns, so the
    /// list's size depends on neither the micro-batch count nor the
    /// pipeline depth; only the period counts do.
    ///
    /// - 1F1B, with `w = min(p − 1 − stage, n)` warm-up forwards and
    ///   `N = n − p` (at least 0) steady pairs: the warm-up `F(k)` × `w`;
    ///   the steady `(F(w + k), B(k))` × `N`, the same on every stage; the
    ///   remaining pairs `(F(w + N + k), B(N + k))`, but the last one on
    ///   a stage without warm-up; that stage's last forward `F(n − 1)`;
    ///   the drain `B(n − w + k)` × `w − 1`; and the final backward
    ///   `B(n − 1)`.
    /// - GPipe: the forward train `F(k)` × `n`; the backward train
    ///   `B(n − 1 − k)` × `n − 1`; and the final backward `B(0)`.
    ///
    /// A section may have no period on some stage. The final backward,
    /// which the graph builder emits differently, is always alone in the
    /// last section.
    ///
    /// [`stage_program`]: PipelineSchedule::stage_program
    ///
    /// # Panics
    ///
    /// Same conditions as [`PipelineSchedule::stage_program`].
    pub fn stage_sections(
        self,
        stage: usize,
        pipeline_depth: usize,
        num_micro_batches: usize,
    ) -> Vec<Section> {
        let (p, n) = (pipeline_depth, num_micro_batches);
        let up = |pass, micro_batch| SlotPattern { pass, micro_batch, descending: false };
        let patterns: Vec<Vec<SlotPattern>> = match self {
            PipelineSchedule::GPipe => vec![
                vec![up(Pass::Forward, 0)],
                vec![SlotPattern { pass: Pass::Backward, micro_batch: n - 1, descending: true }],
                vec![up(Pass::Backward, 0)],
            ],
            PipelineSchedule::OneFOneB => {
                let warmup = (p - 1 - stage).min(n);
                let steady = n.saturating_sub(p);
                vec![
                    vec![up(Pass::Forward, 0)],
                    vec![up(Pass::Forward, warmup), up(Pass::Backward, 0)],
                    vec![up(Pass::Forward, warmup + steady), up(Pass::Backward, steady)],
                    vec![up(Pass::Forward, n - 1)],
                    vec![up(Pass::Backward, n - warmup)],
                    vec![up(Pass::Backward, n - 1)],
                ]
            }
        };
        self.section_periods(stage, p, n)
            .zip(patterns)
            .map(|(periods, slots)| Section { periods, slots })
            .collect()
    }

    /// Peak number of micro-batches whose forward activations are live
    /// simultaneously on the most loaded stage (stage 0).
    ///
    /// GPipe keeps all of them; 1F1B bounds this by the pipeline depth —
    /// the memory-footprint advantage PipeDream is cited for (§II-B).
    pub fn max_in_flight(self, pipeline_depth: usize, num_micro_batches: usize) -> usize {
        match self {
            PipelineSchedule::GPipe => num_micro_batches,
            PipelineSchedule::OneFOneB => pipeline_depth.min(num_micro_batches),
        }
    }
}

/// One slot of a [`Section`]: a pass whose micro-batch is an affine
/// function of the section's period index `k` — `micro_batch + k`, or
/// `micro_batch - k` when `descending`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SlotPattern {
    /// Forward or backward.
    pub pass: Pass,
    /// The micro-batch of period 0.
    pub micro_batch: usize,
    /// Whether the micro-batch falls by one per period (it rises
    /// otherwise).
    pub descending: bool,
}

impl SlotPattern {
    /// The concrete slot of period `k`.
    pub fn at(&self, k: usize) -> StageSlot {
        let micro_batch = if self.descending { self.micro_batch - k } else { self.micro_batch + k };
        StageSlot { micro_batch, pass: self.pass }
    }

    /// The period in which this pattern runs `micro_batch`, if any period
    /// below `periods` does.
    pub fn period_of(&self, micro_batch: usize, periods: usize) -> Option<usize> {
        let k = if self.descending {
            self.micro_batch.checked_sub(micro_batch)?
        } else {
            micro_batch.checked_sub(self.micro_batch)?
        };
        (k < periods).then_some(k)
    }
}

/// A run of a stage program that repeats one slot block: `periods`
/// copies of `slots` (possibly none), period `k` running
/// [`SlotPattern::at`]`(k)` of each slot in order (see
/// [`PipelineSchedule::stage_sections`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Section {
    /// How many times the block repeats on this stage.
    pub periods: usize,
    /// The slot block of one period.
    pub slots: Vec<SlotPattern>,
}

/// Splits `num_layers` decoder layers into `pipeline_depth` contiguous
/// stages as evenly as possible (earlier stages take the remainder).
///
/// # Panics
///
/// Panics if `pipeline_depth == 0` or exceeds `num_layers`.
pub fn layer_partition(num_layers: usize, pipeline_depth: usize) -> Vec<Range<usize>> {
    assert!(pipeline_depth > 0, "pipeline depth must be positive");
    assert!(
        pipeline_depth <= num_layers,
        "cannot split {num_layers} layers into {pipeline_depth} stages"
    );
    let base = num_layers / pipeline_depth;
    let extra = num_layers % pipeline_depth;
    let mut ranges = Vec::with_capacity(pipeline_depth);
    let mut start = 0;
    for stage in 0..pipeline_depth {
        let len = base + usize::from(stage < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Validates the fundamental schedule invariants for any stage program.
    fn check_program(program: &[StageSlot], n: usize) {
        let mut fwd_seen = vec![false; n];
        let mut bwd_seen = vec![false; n];
        for slot in program {
            match slot.pass {
                Pass::Forward => {
                    assert!(!fwd_seen[slot.micro_batch], "duplicate forward");
                    fwd_seen[slot.micro_batch] = true;
                }
                Pass::Backward => {
                    assert!(fwd_seen[slot.micro_batch], "backward before forward");
                    assert!(!bwd_seen[slot.micro_batch], "duplicate backward");
                    bwd_seen[slot.micro_batch] = true;
                }
            }
        }
        assert!(fwd_seen.iter().all(|&x| x) && bwd_seen.iter().all(|&x| x));
        assert_eq!(program.len(), 2 * n);
    }

    #[test]
    fn one_f_one_b_matches_figure_7b() {
        // 2-way pipeline, 4 micro-batches; GPU 1 (last stage) strictly
        // alternates F0 B0 F1 B1 ...
        let last = PipelineSchedule::OneFOneB.stage_program(1, 2, 4);
        assert_eq!(
            last,
            vec![
                StageSlot::fwd(0),
                StageSlot::bwd(0),
                StageSlot::fwd(1),
                StageSlot::bwd(1),
                StageSlot::fwd(2),
                StageSlot::bwd(2),
                StageSlot::fwd(3),
                StageSlot::bwd(3),
            ]
        );
        // GPU 0 warms up with one forward.
        let first = PipelineSchedule::OneFOneB.stage_program(0, 2, 4);
        assert_eq!(first[0], StageSlot::fwd(0));
        assert_eq!(first[1], StageSlot::fwd(1));
        assert_eq!(first[2], StageSlot::bwd(0));
    }

    #[test]
    fn gpipe_runs_all_forwards_first() {
        let program = PipelineSchedule::GPipe.stage_program(0, 4, 3);
        assert_eq!(
            program,
            vec![
                StageSlot::fwd(0),
                StageSlot::fwd(1),
                StageSlot::fwd(2),
                StageSlot::bwd(2),
                StageSlot::bwd(1),
                StageSlot::bwd(0),
            ]
        );
    }

    #[test]
    fn in_flight_bounds() {
        assert_eq!(PipelineSchedule::GPipe.max_in_flight(4, 16), 16);
        assert_eq!(PipelineSchedule::OneFOneB.max_in_flight(4, 16), 4);
        assert_eq!(PipelineSchedule::OneFOneB.max_in_flight(8, 3), 3);
    }

    #[test]
    fn partition_is_contiguous_and_complete() {
        let parts = layer_partition(105, 35);
        assert_eq!(parts.len(), 35);
        assert!(parts.iter().all(|r| r.len() == 3));
        let parts = layer_partition(10, 3);
        assert_eq!(parts, vec![0..4, 4..7, 7..10]);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn partition_rejects_too_deep_pipeline() {
        let _ = layer_partition(4, 5);
    }

    proptest! {
        #[test]
        fn any_program_satisfies_invariants(
            depth in 1usize..12,
            stage_frac in 0.0f64..1.0,
            n in 1usize..40,
            gpipe in proptest::bool::ANY,
        ) {
            let stage = ((depth as f64 - 1.0) * stage_frac) as usize;
            let schedule = if gpipe { PipelineSchedule::GPipe } else { PipelineSchedule::OneFOneB };
            let program = schedule.stage_program(stage, depth, n);
            check_program(&program, n);
        }

        #[test]
        fn sections_expand_to_the_stage_program(
            depth in 1usize..12,
            n in 1usize..40,
            gpipe in proptest::bool::ANY,
        ) {
            let schedule = if gpipe { PipelineSchedule::GPipe } else { PipelineSchedule::OneFOneB };
            for stage in 0..depth {
                let sections = schedule.stage_sections(stage, depth, n);
                let periods: Vec<usize> = schedule.section_periods(stage, depth, n).collect();
                let expanded: Vec<StageSlot> = sections
                    .iter()
                    .flat_map(|s| (0..s.periods).flat_map(move |k| s.slots.iter().map(move |p| p.at(k))))
                    .collect();
                prop_assert_eq!(expanded, schedule.stage_program(stage, depth, n));
                let stage_periods: Vec<usize> = sections.iter().map(|s| s.periods).collect();
                prop_assert_eq!(&stage_periods, &periods);
                // The final backward is alone in the last section.
                let last = sections.last().expect("sections");
                prop_assert_eq!(last.periods, 1);
                prop_assert_eq!(last.slots.len(), 1);
                for s in &sections {
                    for pattern in &s.slots {
                        for k in 0..s.periods {
                            let mb = pattern.at(k).micro_batch;
                            prop_assert_eq!(pattern.period_of(mb, s.periods), Some(k));
                        }
                    }
                }
            }
        }

        #[test]
        fn one_f_one_b_in_flight_never_exceeds_depth(
            depth in 1usize..12,
            n in 1usize..40,
        ) {
            for stage in 0..depth {
                let program = PipelineSchedule::OneFOneB.stage_program(stage, depth, n);
                let mut live = 0i64;
                let mut peak = 0i64;
                for slot in program {
                    match slot.pass {
                        Pass::Forward => { live += 1; peak = peak.max(live); }
                        Pass::Backward => { live -= 1; }
                    }
                }
                prop_assert!(peak as usize <= PipelineSchedule::OneFOneB.max_in_flight(depth, n));
            }
        }

        #[test]
        fn partition_covers_all_layers(layers in 1usize..300, depth_frac in 0.0f64..1.0) {
            let depth = 1 + ((layers - 1) as f64 * depth_frac) as usize;
            let parts = layer_partition(layers, depth);
            prop_assert_eq!(parts.len(), depth);
            let mut expected_start = 0;
            for r in &parts {
                prop_assert_eq!(r.start, expected_start);
                expected_start = r.end;
                prop_assert!(!r.is_empty());
            }
            prop_assert_eq!(expected_start, layers);
            // Heaviest and lightest stages differ by at most one layer.
            let max = parts.iter().map(|r| r.len()).max().unwrap();
            let min = parts.iter().map(|r| r.len()).min().unwrap();
            prop_assert!(max - min <= 1);
        }
    }
}
