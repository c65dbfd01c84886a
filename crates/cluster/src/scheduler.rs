//! The ElasticFlow-style deadline-aware elastic scheduler and its
//! discrete-event cluster simulation (§V-B).
//!
//! The simulation runs on the shared [`vtrain_engine`] kernel: job
//! arrivals, predicted completions, and deadline expirations are typed
//! engine events, and the GPU fleet is a counting
//! [`vtrain_engine::resource::CapacityPool`] resource.
//! Because elastic reallocation changes every running job's completion
//! time at every event, completion predictions carry the epoch of the
//! reallocation that computed them and are lazily invalidated: a stale
//! prediction popping off the queue is skipped without touching state, so
//! the sequence of *effective* events is identical to a loop that
//! recomputes the next event time from scratch each round (the pre-engine
//! implementation).

use serde::{Deserialize, Serialize};
use vtrain_engine::resource::CapacityPool;
use vtrain_engine::{Handler, Simulation};
use vtrain_model::TimeNs;
use vtrain_net::flow::max_min_rates;
use vtrain_net::NetworkBackend;

use crate::catalog::{ModelCatalog, ProfilePolicy, ThroughputProfile};
use crate::job::{JobOutcome, JobSpec};
use crate::racks::assign_racks;

/// Scheduler configuration: which profile source informs decisions and
/// how the fleet is carved into racks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// GPUs in the shared cluster (the paper uses 1,024).
    pub total_gpus: usize,
    /// Throughput profiles consulted: baseline ElasticFlow or vTrain.
    pub policy: ProfilePolicy,
    /// GPUs per rack. Grants are packed rack-locally when possible; the
    /// default ([`SchedulerConfig::new`]) is one rack spanning the whole
    /// fleet, which reproduces the rack-oblivious behaviour exactly.
    pub gpus_per_rack: usize,
    /// Percent slowdown applied to a job's iteration time while its
    /// allocation spans more than one rack (its gradient traffic crosses
    /// the rack spine). 0 disables the penalty.
    ///
    /// Under [`NetworkBackend::ClosedForm`] this scalar is the whole
    /// cross-rack model: every spanning job pays the same fixed factor no
    /// matter how many other jobs cross the spine with it. That regime is
    /// kept as the documented fallback; prefer
    /// [`with_network`](SchedulerConfig::with_network) with
    /// [`NetworkBackend::FairSharing`], where the scalar becomes the cost
    /// of a *sole* occupant's spine crossing and co-resident spanning
    /// jobs additionally contend for the shared spine bandwidth.
    pub cross_rack_slowdown_pct: u32,
    /// How co-scheduled jobs' cross-rack traffic shares the rack spine.
    ///
    /// [`NetworkBackend::ClosedForm`] (the default) applies the scalar
    /// [`cross_rack_slowdown_pct`](SchedulerConfig::cross_rack_slowdown_pct)
    /// to every spanning job independently. With
    /// [`NetworkBackend::FairSharing`], spanning jobs are flows on the
    /// shared spine link under max-min fair sharing: each one's crossing
    /// drains at its fair share, so the slowdown grows with the number of
    /// co-resident spanning jobs. A sole spanning job reproduces the
    /// scalar penalty exactly.
    #[serde(default)]
    pub network: NetworkBackend,
}

impl SchedulerConfig {
    /// Rack-oblivious configuration: one rack, no cross-rack penalty.
    pub fn new(total_gpus: usize, policy: ProfilePolicy) -> Self {
        SchedulerConfig {
            total_gpus,
            policy,
            gpus_per_rack: total_gpus,
            cross_rack_slowdown_pct: 0,
            network: NetworkBackend::default(),
        }
    }

    /// Carves the fleet into racks of `gpus_per_rack` GPUs with a
    /// `slowdown_pct` percent iteration-time penalty for grants that
    /// span racks.
    ///
    /// # Panics
    ///
    /// Panics if `gpus_per_rack == 0`.
    pub fn with_racks(mut self, gpus_per_rack: usize, slowdown_pct: u32) -> Self {
        assert!(gpus_per_rack > 0, "racks must hold at least one GPU");
        self.gpus_per_rack = gpus_per_rack;
        self.cross_rack_slowdown_pct = slowdown_pct;
        self
    }

    /// Selects how spanning jobs share the rack spine (see
    /// [`SchedulerConfig::network`]).
    pub fn with_network(mut self, network: NetworkBackend) -> Self {
        self.network = network;
        self
    }

    /// Number of racks (`ceil(total_gpus / gpus_per_rack)`).
    pub fn num_racks(&self) -> usize {
        self.total_gpus.div_ceil(self.gpus_per_rack)
    }
}

/// Result of simulating a whole trace.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimOutcome {
    /// Per-job verdicts, indexed consistently with the input order.
    pub outcomes: Vec<JobOutcome>,
    /// Time at which the last job left the system.
    pub makespan: TimeNs,
    /// Effective engine events dispatched (arrivals, completions, deadline
    /// expirations; excludes lazily invalidated predictions).
    pub events_processed: u64,
    /// Reallocation rounds in which at least one job's grant spanned
    /// racks (0 on a single-rack fleet).
    pub cross_rack_rounds: u64,
}

impl SimOutcome {
    /// Fraction of jobs that met their deadlines (Fig. 12's metric).
    /// Jobs without deadlines count as satisfied.
    pub fn deadline_satisfactory_ratio(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        let ok = self.outcomes.iter().filter(|o| !o.violated).count();
        ok as f64 / self.outcomes.len() as f64
    }

    /// Mean job completion time over finished jobs (Fig. 13's metric).
    pub fn average_jct(&self, jobs: &[JobSpec]) -> Option<TimeNs> {
        let jcts: Vec<f64> = self
            .outcomes
            .iter()
            .zip(jobs)
            .filter_map(|(o, j)| o.jct(j).map(|t| t.as_secs_f64()))
            .collect();
        if jcts.is_empty() {
            return None;
        }
        Some(TimeNs::from_secs_f64(jcts.iter().sum::<f64>() / jcts.len() as f64))
    }
}

/// Live state of one admitted job.
struct Active {
    idx: usize,
    remaining: f64,
    alloc: usize, // 0 = paused
    /// Iteration-time factor from the current rack placement (1.0 =
    /// rack-local).
    penalty: f64,
}

/// Progress-tracking tolerance (iterations / seconds).
const EPS: f64 = 1e-6;

/// The cluster simulation's typed engine events.
enum ClusterEvent {
    /// The `k`-th job in arrival order reaches the cluster.
    Arrival(usize),
    /// A running job is predicted to finish, as computed by the
    /// reallocation of the carried epoch; stale epochs are skipped.
    Completion(u64),
    /// An admitted job's absolute deadline passes; skipped if the job
    /// already left the system.
    DeadlineExpiry(usize),
}

/// Engine handler owning all scheduler state.
struct ClusterSim<'a> {
    jobs: &'a [JobSpec],
    profiles: Vec<&'a ThroughputProfile>,
    /// Job indices sorted by `(arrival, id)`.
    order: Vec<usize>,
    next_arrival: usize,
    active: Vec<Active>,
    outcomes: Vec<JobOutcome>,
    pool: CapacityPool,
    cfg: SchedulerConfig,
    cross_rack_rounds: u64,
    /// Largest spanning-job slowdown factor any reallocation produced
    /// (1.0 when nothing ever spanned).
    max_penalty: f64,
    /// Simulation time (seconds) progress was last advanced to.
    last_now: f64,
    makespan: f64,
    /// Bumped by every reallocation; invalidates older completion
    /// predictions.
    epoch: u64,
    /// Effective (non-stale) events dispatched.
    effective_events: u64,
}

impl Handler<ClusterEvent> for ClusterSim<'_> {
    fn handle(&mut self, event: ClusterEvent, sim: &mut Simulation<ClusterEvent>) {
        // Lazy invalidation: skip events that no longer describe the
        // system without advancing any state.
        match event {
            ClusterEvent::Arrival(k) if k < self.next_arrival => return,
            ClusterEvent::Completion(epoch) if epoch != self.epoch => return,
            ClusterEvent::DeadlineExpiry(idx) if !self.active.iter().any(|a| a.idx == idx) => {
                return;
            }
            _ => {}
        }
        self.effective_events += 1;
        let now = sim.now().as_secs_f64();

        // ---- advance running jobs' progress to `now`.
        let dt = now - self.last_now;
        for a in &mut self.active {
            if a.alloc > 0 {
                let it = self.profiles[a.idx].iter_time(a.alloc).expect("allocated rung exists");
                a.remaining -= dt / (it.as_secs_f64() * a.penalty);
            }
        }
        self.last_now = now;

        // ---- completions.
        let (outcomes, makespan) = (&mut self.outcomes, &mut self.makespan);
        self.active.retain(|a| {
            if a.remaining <= EPS {
                outcomes[a.idx].completion = Some(TimeNs::from_secs_f64(now));
                *makespan = makespan.max(now);
                false
            } else {
                true
            }
        });

        // ---- deadline expirations (terminate, count as violated).
        let jobs = self.jobs;
        self.active.retain(|a| {
            let expired = jobs[a.idx].deadline.is_some_and(|d| d.as_secs_f64() <= now + EPS);
            if expired {
                outcomes[a.idx].violated = true;
                *makespan = makespan.max(now);
            }
            !expired
        });

        // ---- arrivals.
        while self.next_arrival < self.order.len()
            && self.jobs[self.order[self.next_arrival]].arrival.as_secs_f64() <= now + EPS
        {
            let idx = self.order[self.next_arrival];
            self.next_arrival += 1;
            let job = &self.jobs[idx];
            let profile = self.profiles[idx];
            if profile.min_gpus() > self.pool.total() {
                self.outcomes[idx].violated = true;
                self.makespan = self.makespan.max(now);
                continue;
            }
            if let Some(d) = job.deadline {
                // Admission control: reject if even the largest profiled
                // allocation cannot make the deadline in isolation.
                let left = TimeNs::from_secs_f64((d.as_secs_f64() - now).max(0.0));
                if profile.min_gpus_to_finish(job.iterations as f64, left).is_none() {
                    self.outcomes[idx].violated = true;
                    self.makespan = self.makespan.max(now);
                    continue;
                }
                // Admitted with a deadline: its expiry is a real event.
                sim.schedule(d.max(sim.now()), ClusterEvent::DeadlineExpiry(idx));
            }
            self.active.push(Active {
                idx,
                remaining: job.iterations as f64,
                alloc: 0,
                penalty: 1.0,
            });
        }

        if self.active.is_empty() && self.next_arrival >= self.order.len() {
            // Only stale predictions can remain; don't bother skipping
            // through them one by one.
            sim.stop();
            return;
        }

        // ---- elastic reallocation, then rack placement, then predict the
        // next completion.
        reallocate(&mut self.active, self.jobs, &self.profiles, &mut self.pool, now);
        self.place_on_racks();
        self.epoch += 1;
        let mut next_completion = f64::INFINITY;
        for a in &self.active {
            if a.alloc > 0 {
                let it = self.profiles[a.idx].iter_time(a.alloc).expect("allocated rung exists");
                next_completion =
                    next_completion.min(now + a.remaining * it.as_secs_f64() * a.penalty);
            }
        }
        if next_completion.is_finite() {
            // Quantizing to nanoseconds can round the prediction back onto
            // the current instant; dispatching it there would advance no
            // progress (dt = 0) and re-predict the same time forever. One
            // nanosecond forward guarantees dt > 0, which overshoots any
            // sub-nanosecond residue and retires the job.
            let mut at = TimeNs::from_secs_f64(next_completion);
            if at <= sim.now() {
                at = sim.now() + TimeNs::from_nanos(1);
            }
            sim.schedule(at, ClusterEvent::Completion(self.epoch));
        }
        // If nothing is running, the next arrival or deadline event (both
        // already queued) drives the simulation; if neither exists the
        // queue drains and the leftovers are marked unschedulable below.
    }
}

impl ClusterSim<'_> {
    /// Packs the fresh grants into racks and refreshes each job's
    /// cross-rack penalty. On a single-rack fleet every span is 1 and
    /// every penalty 1.0, reproducing rack-oblivious behaviour exactly.
    ///
    /// Under [`NetworkBackend::ClosedForm`] every spanning job pays the
    /// fixed scalar factor. Under [`NetworkBackend::FairSharing`] each
    /// spanning job contributes one flow on the shared spine link and
    /// [`max_min_rates`] splits the spine between them: a job whose
    /// crossing drains at a `1/k` fair share pays `k` times the scalar's
    /// excess, so a sole occupant reproduces the scalar exactly and
    /// co-resident spanning jobs slow each other down.
    fn place_on_racks(&mut self) {
        let grants: Vec<usize> = self.active.iter().map(|a| a.alloc).collect();
        let spans = assign_racks(&grants, self.cfg.gpus_per_rack, self.cfg.total_gpus);
        let excess = f64::from(self.cfg.cross_rack_slowdown_pct) / 100.0;
        let spanning: Vec<usize> =
            spans.iter().enumerate().filter(|(_, s)| **s > 1).map(|(i, _)| i).collect();

        for a in self.active.iter_mut() {
            a.penalty = 1.0;
        }
        match self.cfg.network {
            NetworkBackend::ClosedForm => {
                for &i in &spanning {
                    self.active[i].penalty = 1.0 + excess;
                }
            }
            NetworkBackend::FairSharing => {
                // One unit-demand flow per spanning job over the one
                // spine link of unit capacity.
                let flows: Vec<[usize; 1]> = spanning.iter().map(|_| [0usize]).collect();
                let mut rates = Vec::new();
                max_min_rates(&[1.0], &flows, &mut rates);
                for (&i, rate) in spanning.iter().zip(&rates) {
                    self.active[i].penalty = 1.0 + excess / rate;
                }
            }
        }
        for a in &self.active {
            self.max_penalty = self.max_penalty.max(a.penalty);
        }
        if !spanning.is_empty() {
            self.cross_rack_rounds += 1;
        }
    }
}

/// Simulates the cluster over a trace.
///
/// Both compared systems run *this exact function*; only
/// `cfg.policy` differs (§V-B: "we implement the exact same scheduling
/// algorithm ElasticFlow proposes").
///
/// Algorithm per effective event: advance running jobs' progress, retire
/// completions and deadline expirations (ElasticFlow terminates
/// deadline-missing jobs), admit arrivals (optimistic admission — rejected
/// outright only if even the largest profiled allocation cannot meet the
/// deadline), then reallocate: earliest-deadline-first gets each deadline
/// job its minimum sufficient allocation, remaining jobs get their minimal
/// rung, and leftover GPUs go to the upgrade with the best marginal
/// speed-up per GPU.
///
/// # Panics
///
/// Panics if a job references a model absent from the catalog.
pub fn simulate_cluster(
    jobs: &[JobSpec],
    catalog: &ModelCatalog,
    cfg: &SchedulerConfig,
) -> SimOutcome {
    let profiles: Vec<&ThroughputProfile> =
        jobs.iter().map(|j| catalog.profile(&j.model_name, cfg.policy)).collect();

    // Arrival order (stable by arrival, then id).
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| (jobs[i].arrival, jobs[i].id));

    let mut sim = Simulation::with_capacity(jobs.len() * 2);
    for (k, &idx) in order.iter().enumerate() {
        sim.schedule(jobs[idx].arrival, ClusterEvent::Arrival(k));
    }

    let mut state = ClusterSim {
        jobs,
        profiles,
        order,
        next_arrival: 0,
        active: Vec::new(),
        outcomes: jobs
            .iter()
            .map(|j| JobOutcome { id: j.id, completion: None, violated: false })
            .collect(),
        pool: CapacityPool::new(cfg.total_gpus),
        cfg: *cfg,
        cross_rack_rounds: 0,
        max_penalty: 1.0,
        last_now: 0.0,
        makespan: 0.0,
        epoch: 0,
        effective_events: 0,
    };
    sim.run(&mut state);

    // Unschedulable stragglers: admitted jobs that can never run (their
    // minimal rung exceeds free capacity forever) leave the queue with no
    // completion or deadline event to retire them.
    for a in &state.active {
        state.outcomes[a.idx].violated = true;
    }

    let outcome = SimOutcome {
        outcomes: state.outcomes,
        makespan: TimeNs::from_secs_f64(state.makespan),
        events_processed: state.effective_events,
        cross_rack_rounds: state.cross_rack_rounds,
    };
    if vtrain_obs::enabled() {
        let reg = vtrain_obs::global();
        reg.counter("cluster.traces").inc();
        reg.counter("cluster.jobs").add(jobs.len() as u64);
        reg.counter("cluster.events_processed").add(outcome.events_processed);
        reg.counter("cluster.cross_rack_rounds").add(outcome.cross_rack_rounds);
        // Worst spanning-job slowdown factor, in permille (1000 = none).
        reg.gauge("cluster.contention_slowdown")
            .set_max((state.max_penalty * 1000.0).round() as u64);
        let jct = reg.histogram("cluster.jct_ms");
        for (o, j) in outcome.outcomes.iter().zip(jobs) {
            if let Some(t) = o.jct(j) {
                jct.record(t.as_nanos() / 1_000_000);
            }
        }
    }
    outcome
}

/// Elastic reallocation at an event boundary: returns every granted GPU to
/// the pool, then re-grants from scratch.
fn reallocate(
    active: &mut [Active],
    jobs: &[JobSpec],
    profiles: &[&ThroughputProfile],
    pool: &mut CapacityPool,
    now: f64,
) {
    pool.release_all();
    for a in active.iter_mut() {
        a.alloc = 0;
    }

    // Phase 1: deadline jobs, earliest deadline first, get their minimum
    // sufficient allocation; deadline-free jobs their minimal rung.
    let mut idxs: Vec<usize> = (0..active.len()).collect();
    idxs.sort_by(|&x, &y| {
        let dx = jobs[active[x].idx].deadline.map(|d| d.as_nanos()).unwrap_or(u64::MAX);
        let dy = jobs[active[y].idx].deadline.map(|d| d.as_nanos()).unwrap_or(u64::MAX);
        (dx, jobs[active[x].idx].arrival).cmp(&(dy, jobs[active[y].idx].arrival))
    });
    for &i in &idxs {
        let profile = profiles[active[i].idx];
        let want = match jobs[active[i].idx].deadline {
            Some(d) => {
                let left = TimeNs::from_secs_f64((d.as_secs_f64() - now).max(0.0));
                profile
                    .min_gpus_to_finish(active[i].remaining, left)
                    .unwrap_or_else(|| profile.max_gpus())
            }
            None => profile.min_gpus(),
        };
        let grant = if want <= pool.free() {
            Some(want)
        } else {
            // Best-effort: the largest rung that still fits.
            profile.rung(pool.free())
        };
        if let Some(g) = grant {
            let g = profile.rung(g).expect("grant snapped to a rung");
            assert!(pool.acquire(g), "phase-1 grant within free capacity");
            active[i].alloc = g;
        }
    }

    // Phase 2: spend leftovers on the best marginal speed-up per GPU.
    loop {
        let mut best: Option<(usize, usize, f64)> = None; // (job, new rung, gain/gpu)
        for (i, a) in active.iter().enumerate() {
            let profile = profiles[a.idx];
            let cur = a.alloc;
            let cur_time = profile.iter_time(cur.max(profile.min_gpus()));
            // Next strictly larger rung.
            let Some(&(g_next, t_next)) = profile.entries().iter().find(|&&(g, _)| g > cur) else {
                continue;
            };
            let delta = g_next - cur;
            if delta > pool.free() {
                continue;
            }
            let t_cur = if a.alloc == 0 {
                f64::INFINITY
            } else {
                cur_time.expect("current rung profiled").as_secs_f64()
            };
            let gain = if t_cur.is_infinite() {
                f64::INFINITY
            } else {
                a.remaining * (t_cur - t_next.as_secs_f64()) / delta as f64
            };
            if gain > 0.0 && best.is_none_or(|(_, _, bg)| gain > bg) {
                best = Some((i, g_next, gain));
            }
        }
        let Some((i, g_next, _)) = best else { break };
        assert!(pool.acquire(g_next - active[i].alloc), "upgrade within free capacity");
        active[i].alloc = g_next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogEntry;
    use crate::trace::{generate_trace, TraceConfig};

    fn t(secs: f64) -> TimeNs {
        TimeNs::from_secs_f64(secs)
    }

    fn profile(entries: &[(usize, f64)]) -> ThroughputProfile {
        ThroughputProfile::new(entries.iter().map(|&(g, s)| (g, t(s))).collect())
    }

    /// Catalog where the vTrain profile is strictly better at scale.
    fn catalog() -> ModelCatalog {
        let mut c = ModelCatalog::new();
        c.insert(CatalogEntry {
            name: "m".into(),
            global_batch: 64,
            baseline: profile(&[(8, 10.0), (16, 6.0), (32, 4.0)]),
            vtrain: profile(&[(8, 8.0), (16, 4.5), (32, 2.5), (64, 1.8)]),
        });
        c
    }

    fn job(id: usize, iters: u64, arrival_s: f64, deadline_s: Option<f64>) -> JobSpec {
        JobSpec {
            id,
            model_name: "m".into(),
            iterations: iters,
            arrival: t(arrival_s),
            deadline: deadline_s.map(t),
        }
    }

    #[test]
    fn lone_job_gets_the_largest_useful_allocation() {
        let jobs = vec![job(0, 100, 0.0, None)];
        let cfg = SchedulerConfig::new(64, ProfilePolicy::DataParallelOnly);
        let out = simulate_cluster(&jobs, &catalog(), &cfg);
        // Baseline tops out at 32 GPUs, 4 s/iter ⇒ 400 s.
        let jct = out.average_jct(&jobs).unwrap().as_secs_f64();
        assert!((jct - 400.0).abs() < 1.0, "jct {jct}");
        assert_eq!(out.deadline_satisfactory_ratio(), 1.0);
    }

    #[test]
    fn vtrain_profile_shortens_the_same_job() {
        let jobs = vec![job(0, 100, 0.0, None)];
        let base = simulate_cluster(
            &jobs,
            &catalog(),
            &SchedulerConfig::new(64, ProfilePolicy::DataParallelOnly),
        );
        let vt = simulate_cluster(
            &jobs,
            &catalog(),
            &SchedulerConfig::new(64, ProfilePolicy::VTrainOptimal),
        );
        // vTrain reaches 64 GPUs at 1.8 s/iter ⇒ 180 s.
        assert!(vt.makespan < base.makespan);
        assert!((vt.makespan.as_secs_f64() - 180.0).abs() < 1.0);
    }

    #[test]
    fn two_jobs_share_capacity() {
        let jobs = vec![job(0, 100, 0.0, None), job(1, 100, 0.0, None)];
        let cfg = SchedulerConfig::new(16, ProfilePolicy::DataParallelOnly);
        let out = simulate_cluster(&jobs, &catalog(), &cfg);
        // Each gets 8 GPUs at 10 s/iter ⇒ both finish at 1000 s.
        assert!((out.makespan.as_secs_f64() - 1000.0).abs() < 1.0);
        assert!(out.outcomes.iter().all(|o| o.completion.is_some()));
    }

    #[test]
    fn impossible_deadline_is_rejected_at_admission() {
        // 100 iterations, best baseline rate 4 s/iter ⇒ needs 400 s; only
        // 100 s of slack.
        let jobs = vec![job(0, 100, 0.0, Some(100.0))];
        let cfg = SchedulerConfig::new(64, ProfilePolicy::DataParallelOnly);
        let out = simulate_cluster(&jobs, &catalog(), &cfg);
        assert!(out.outcomes[0].violated);
        assert_eq!(out.deadline_satisfactory_ratio(), 0.0);
    }

    #[test]
    fn deadline_met_by_elastic_scale_up() {
        // Needs ≤ 6 s/iter ⇒ EDF hands it 16 GPUs even while a
        // deadline-free job competes.
        let jobs = vec![job(0, 100, 0.0, Some(650.0)), job(1, 50, 0.0, None)];
        let cfg = SchedulerConfig::new(24, ProfilePolicy::DataParallelOnly);
        let out = simulate_cluster(&jobs, &catalog(), &cfg);
        assert!(!out.outcomes[0].violated, "deadline job must be satisfied");
        assert!(out.outcomes[1].completion.is_some(), "background job still finishes");
    }

    #[test]
    fn missed_deadline_terminates_the_job_at_its_deadline() {
        // The job *passes* admission (32 GPUs make 100 iters in 400 s
        // against a 450 s deadline) but competition keeps it at 8 GPUs
        // (10 s/iter), so ElasticFlow kills it when the deadline passes.
        let jobs = vec![job(0, 100, 0.0, Some(405.0)), job(1, 2000, 0.0, Some(8010.0))];
        // 32 GPUs: EDF gives job 0 its minimal sufficient rung first; both
        // jobs need the whole cluster to hit their deadlines, so the later
        // deadline starves.
        let cfg = SchedulerConfig::new(32, ProfilePolicy::DataParallelOnly);
        let out = simulate_cluster(&jobs, &catalog(), &cfg);
        assert!(!out.outcomes[0].violated, "earliest deadline wins EDF");
        assert!(out.outcomes[1].violated, "starved job terminates at its deadline");
        assert!(out.outcomes[1].completion.is_none());
    }

    #[test]
    fn vtrain_never_worse_on_shared_traces() {
        let catalog = catalog();
        for seed in 1..=5 {
            let cfg_trace = TraceConfig {
                num_jobs: 24,
                seed,
                arrival_window: t(5_000.0),
                deadline_lambda: Some((0.5, 1.5)),
                iterations: (50, 200),
            };
            let jobs = generate_trace(&cfg_trace, &catalog);
            let base = simulate_cluster(
                &jobs,
                &catalog,
                &SchedulerConfig::new(64, ProfilePolicy::DataParallelOnly),
            );
            let vt = simulate_cluster(
                &jobs,
                &catalog,
                &SchedulerConfig::new(64, ProfilePolicy::VTrainOptimal),
            );
            assert!(
                vt.deadline_satisfactory_ratio() >= base.deadline_satisfactory_ratio() - 1e-9,
                "seed {seed}: vTrain ratio regressed"
            );
        }
    }

    #[test]
    fn racked_fleet_with_zero_penalty_matches_single_rack_exactly() {
        let cfg_trace = TraceConfig { num_jobs: 16, seed: 7, ..TraceConfig::default() };
        let cat = catalog();
        let jobs = generate_trace(&cfg_trace, &cat);
        let flat = SchedulerConfig::new(64, ProfilePolicy::VTrainOptimal);
        let racked = flat.with_racks(16, 0);
        let a = simulate_cluster(&jobs, &cat, &flat);
        let b = simulate_cluster(&jobs, &cat, &racked);
        // Placement changes, but a zero penalty must not move any time.
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.cross_rack_rounds, 0, "single rack never spans");
    }

    #[test]
    fn cross_rack_penalty_slows_spanning_jobs() {
        // One job wanting 32 GPUs on racks of 16: it must span 2 racks.
        let jobs = vec![job(0, 100, 0.0, None)];
        let base = SchedulerConfig::new(64, ProfilePolicy::DataParallelOnly);
        let flat = simulate_cluster(&jobs, &catalog(), &base);
        let racked = simulate_cluster(&jobs, &catalog(), &base.with_racks(16, 20));
        assert!(racked.cross_rack_rounds > 0, "32-GPU grant spans 16-GPU racks");
        // 400 s rack-local becomes 480 s at +20%.
        assert!((racked.makespan.as_secs_f64() - 480.0).abs() < 1.0, "{}", racked.makespan);
        assert!(racked.makespan > flat.makespan);
    }

    #[test]
    fn rack_local_jobs_escape_the_penalty() {
        // Two 100-iteration jobs on two racks of 16: each fits one rack
        // (ElasticFlow grants both their best rack-sized rung, 16 GPUs),
        // so even a huge penalty changes nothing.
        let jobs = vec![job(0, 100, 0.0, None), job(1, 100, 0.0, None)];
        let base = SchedulerConfig::new(32, ProfilePolicy::DataParallelOnly);
        let flat = simulate_cluster(&jobs, &catalog(), &base);
        let racked = simulate_cluster(&jobs, &catalog(), &base.with_racks(16, 100));
        assert_eq!(racked.cross_rack_rounds, 0);
        assert_eq!(flat.makespan, racked.makespan);
        assert_eq!(flat.outcomes, racked.outcomes);
    }

    #[test]
    fn fair_sharing_contention_slows_co_resident_spanning_jobs() {
        // Two 100-iteration jobs on a 64-GPU fleet carved into 16-GPU
        // racks: ElasticFlow grants each its best 32-GPU rung, so both
        // span two racks and their gradient traffic shares the spine.
        let pair = vec![job(0, 100, 0.0, None), job(1, 100, 0.0, None)];
        let solo = vec![job(0, 100, 0.0, None)];
        let base = SchedulerConfig::new(64, ProfilePolicy::DataParallelOnly).with_racks(16, 20);
        let fair = base.with_network(NetworkBackend::FairSharing);

        vtrain_obs::set_enabled(true);
        let contended = simulate_cluster(&pair, &catalog(), &fair);
        vtrain_obs::set_enabled(false);
        let scalar = simulate_cluster(&pair, &catalog(), &base);
        let alone = simulate_cluster(&solo, &catalog(), &fair);

        // Scalar fallback: both jobs pay the fixed +20% (4 s/iter ->
        // 4.8 s/iter, 480 s). Fair sharing: each drains at a 1/2 spine
        // share while both are in flight, so each pays +40% (560 s).
        assert!(contended.cross_rack_rounds > 0);
        assert!((scalar.makespan.as_secs_f64() - 480.0).abs() < 1.0, "{}", scalar.makespan);
        assert!((contended.makespan.as_secs_f64() - 560.0).abs() < 1.0, "{}", contended.makespan);
        assert!(
            contended.makespan > scalar.makespan,
            "co-resident spanning jobs must contend, not just pay the scalar"
        );
        // ... and slower than either job crossing the spine alone.
        assert!((alone.makespan.as_secs_f64() - 480.0).abs() < 1.0, "{}", alone.makespan);
        assert!(contended.makespan > alone.makespan);
        // The gauge records the worst slowdown factor in permille.
        assert!(vtrain_obs::global().gauge("cluster.contention_slowdown").get() >= 1400);
    }

    #[test]
    fn fair_sharing_with_a_sole_spanning_job_matches_the_scalar_exactly() {
        // One flow on the spine gets the whole link: the fair share is
        // exactly 1.0, so the penalty is bit-identical to the scalar's.
        let jobs = vec![job(0, 100, 0.0, None)];
        let base = SchedulerConfig::new(64, ProfilePolicy::DataParallelOnly).with_racks(16, 20);
        let scalar = simulate_cluster(&jobs, &catalog(), &base);
        let fair =
            simulate_cluster(&jobs, &catalog(), &base.with_network(NetworkBackend::FairSharing));
        assert_eq!(scalar.makespan, fair.makespan);
        assert_eq!(scalar.outcomes, fair.outcomes);
        assert_eq!(scalar.cross_rack_rounds, fair.cross_rack_rounds);
    }

    #[test]
    fn fair_sharing_leaves_rack_local_schedules_untouched() {
        // Both jobs fit one 16-GPU rack each: no flow ever crosses the
        // spine, so the backend must not move a single number.
        let jobs = vec![job(0, 100, 0.0, None), job(1, 100, 0.0, None)];
        let base = SchedulerConfig::new(32, ProfilePolicy::DataParallelOnly);
        let flat = simulate_cluster(&jobs, &catalog(), &base);
        let fair = simulate_cluster(
            &jobs,
            &catalog(),
            &base.with_racks(16, 100).with_network(NetworkBackend::FairSharing),
        );
        assert_eq!(fair.cross_rack_rounds, 0);
        assert_eq!(flat.makespan, fair.makespan);
        assert_eq!(flat.outcomes, fair.outcomes);
        assert_eq!(flat.events_processed, fair.events_processed);
    }

    #[test]
    fn num_racks_rounds_up() {
        let cfg = SchedulerConfig::new(100, ProfilePolicy::VTrainOptimal).with_racks(32, 10);
        assert_eq!(cfg.num_racks(), 4);
        assert_eq!(SchedulerConfig::new(64, ProfilePolicy::VTrainOptimal).num_racks(), 1);
    }

    #[test]
    fn simulation_is_deterministic() {
        let cfg_trace = TraceConfig { num_jobs: 16, seed: 3, ..TraceConfig::default() };
        let cat = catalog();
        let jobs = generate_trace(&cfg_trace, &cat);
        let cfg = SchedulerConfig::new(64, ProfilePolicy::VTrainOptimal);
        let a = simulate_cluster(&jobs, &cat, &cfg);
        let b = simulate_cluster(&jobs, &cat, &cfg);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.events_processed, b.events_processed);
        assert!(a.events_processed >= jobs.len() as u64, "every arrival is an event");
    }

    #[test]
    fn degenerate_zero_time_rung_terminates() {
        // A zero-duration rung makes every completion prediction land on
        // the current instant after nanosecond quantization; the 1 ns
        // forward bump must keep the event loop progressing instead of
        // re-dispatching a dt = 0 event forever.
        let mut cat = ModelCatalog::new();
        cat.insert(CatalogEntry {
            name: "m".into(),
            global_batch: 64,
            baseline: profile(&[(8, 0.0)]),
            vtrain: profile(&[(8, 0.0)]),
        });
        let jobs = vec![job(0, 5, 0.0, None), job(1, 5, 1.0, None)];
        let cfg = SchedulerConfig::new(8, ProfilePolicy::DataParallelOnly);
        let out = simulate_cluster(&jobs, &cat, &cfg);
        assert!(out.outcomes.iter().all(|o| o.completion.is_some()));
        assert!(out.makespan <= t(1.1));
    }

    #[test]
    fn oversized_job_cannot_run() {
        let mut cat = ModelCatalog::new();
        cat.insert(CatalogEntry {
            name: "m".into(),
            global_batch: 64,
            baseline: profile(&[(128, 1.0)]),
            vtrain: profile(&[(128, 1.0)]),
        });
        let jobs = vec![job(0, 10, 0.0, None)];
        let cfg = SchedulerConfig::new(64, ProfilePolicy::DataParallelOnly);
        let out = simulate_cluster(&jobs, &cat, &cfg);
        assert!(out.outcomes[0].violated);
        assert!(out.outcomes[0].completion.is_none());
    }
}
