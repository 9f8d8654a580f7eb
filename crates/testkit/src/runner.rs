//! Run scenarios through the real experiment pipeline, timeline captured.
//!
//! Every trial goes through
//! [`voxel_core::experiment::run_instrumented_trial`] — the same path
//! shaping, player wiring and ABR instantiation as the figure harness —
//! with a JSONL tracer writing into memory and the scenario's fault plane
//! armed. All oracles run against each trial; violations accumulate on
//! the returned [`ScenarioRun`].
//!
//! Every trial's sink is teed through a [`FlightRecorder`]
//! (DESIGN.md §13): when an oracle fires, the trial's last events are
//! rendered into a pasteable postmortem on
//! [`ScenarioRun::postmortems`], and the recorder is installed on the
//! running thread so `paranoid` audits deep in the event loop dump the
//! same context before panicking.

use crate::oracle::{self, Bounds};
use crate::scenario::Scenario;
use std::sync::Arc;
use voxel_core::experiment::run_instrumented_trial;
use voxel_core::{ContentCache, TrialResult};
use voxel_media::content::VideoId;
use voxel_media::qoe::QoeModel;
use voxel_media::video::Video;
use voxel_netem::FaultPlane;
use voxel_obs::FlightRecorder;
use voxel_prep::manifest::Manifest;
use voxel_trace::{JsonlSink, SharedBuf, Tracer};

/// Prepared-content cache shared across scenarios (§4.1 preparation is
/// one-time per video; the testkit prepares the top analyzed level only,
/// which every system in the legend can stream). Thin wrapper over
/// [`ContentCache::top_level_only`] so fleet scenarios and session
/// scenarios share one store.
pub struct Content {
    cache: ContentCache,
}

impl Default for Content {
    fn default() -> Content {
        Content::new()
    }
}

impl Content {
    /// Empty cache with the default QoE model.
    pub fn new() -> Content {
        Content {
            cache: ContentCache::top_level_only(),
        }
    }

    /// Get (or prepare) a video + manifest.
    pub fn get(&mut self, id: VideoId) -> (Arc<Manifest>, Arc<Video>, QoeModel) {
        let (m, v) = self.cache.get(id);
        (m, v, self.cache.qoe())
    }

    /// The underlying shared cache (what fleet runs take).
    pub fn cache(&self) -> &ContentCache {
        &self.cache
    }
}

/// One executed trial: its result and its captured timeline.
pub struct TrialRun {
    /// Trace shift of this trial (doubles as the session id).
    pub shift_s: usize,
    /// The trial result.
    pub result: TrialResult,
    /// The raw JSONL timeline.
    pub timeline: Vec<u8>,
}

/// One executed scenario across its trials.
pub struct ScenarioRun {
    /// The scenario's canonical spec.
    pub spec: String,
    /// The sweep seed the scenario ran under.
    pub seed: u64,
    /// All trials, in shift order.
    pub trials: Vec<TrialRun>,
    /// Oracle violations, each prefixed with the offending trial.
    pub failures: Vec<String>,
    /// Flight-recorder postmortems, one per failing trial: the last
    /// ring-buffered events plus profiler state at the moment the
    /// oracles fired (empty when every trial passed).
    pub postmortems: Vec<String>,
}

impl ScenarioRun {
    /// Whether every oracle passed on every trial.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run all trials of `scenario` under `seed`, applying every oracle.
///
/// Determinism contract: the same `(scenario, seed)` pair produces
/// byte-identical timelines and results on every run — trace
/// construction, fault-plane draws and the simulation itself all derive
/// from the pair alone.
pub fn run_scenario(
    scenario: &Scenario,
    seed: u64,
    content: &mut Content,
) -> Result<ScenarioRun, String> {
    let config = scenario.experiment(seed)?.build().into_config();
    let (manifest, video, qoe) = content.get(scenario.video);

    let bounds = Bounds::for_scenario(scenario);
    let d = config.trace.duration_s();
    let n = scenario.trials.max(1);
    let mut run = ScenarioRun {
        spec: scenario.spec(),
        seed,
        trials: Vec::with_capacity(n),
        failures: Vec::new(),
        postmortems: Vec::new(),
    };
    for i in 0..n {
        let shift = i * d / n;
        let buf = SharedBuf::new();
        // Tee the JSONL sink through a flight recorder so a failing trial
        // can replay its final events without re-running anything.
        let recorder = FlightRecorder::new(
            format!("spec={} seed={seed} trial={i} shift={shift}s", run.spec),
            voxel_obs::DEFAULT_CAPACITY,
        );
        let tracer = Tracer::new(
            shift as u64,
            Box::new(recorder.wrap(Box::new(JsonlSink::to_writer(Box::new(buf.clone()))))),
        );
        // Each trial gets its own plane stream so faults land on its own
        // packet sequence, still fully determined by (seed, trial).
        let faults = (!scenario.faults.is_empty())
            .then(|| FaultPlane::new(seed ^ ((i as u64) << 32), scenario.faults.clone()));
        let result = {
            // Bound to the thread for the duration of the trial so
            // paranoid audits can dump this recorder with no plumbing.
            let _bound = voxel_obs::install_recorder(&recorder);
            run_instrumented_trial(&config, &manifest, &video, &qoe, shift, tracer, faults)
        };
        let timeline = buf.take();

        let mut violations = oracle::trial_invariants(&result);
        violations.extend(oracle::timeline_invariants(&timeline, &result));
        violations.extend(bounds.check(&result));
        if let Some(first) = violations.first() {
            run.postmortems
                .push(recorder.postmortem(&format!("trial {i} (shift {shift}s): {first}")));
        }
        run.failures.extend(
            violations
                .into_iter()
                .map(|v| format!("trial {i} (shift {shift}s): {v}")),
        );
        run.trials.push(TrialRun {
            shift_s: shift,
            result,
            timeline,
        });
    }
    Ok(run)
}
