//! `table2_resnet18`: the paper's headline Table II row. One operation is a
//! cold `Session::run` of ResNet-18/224 at 4-bit activations over the four
//! standard backends, with a fresh compile cache.

use crate::measure::timed;
use crate::{with_derived, Bench, Clock, Metric, Modeled, Outcome, Row};
use accel::NetworkSimulator;
use apc::{CompileCache, CompilerOptions, LayerCompiler};
use camdnn::experiment::{BackendPlan, Session, SweepGrid};
use camdnn::{BackendKind, BackendReport, InferenceBackend, PipelineReport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tnn::model::{micro_cnn, resnet18, ModelGraph};

const LABEL: &str = "ResNet18/ImageNet .80";

/// Nanoseconds spent in one instrumented call site, shared with the
/// backends a traced session builds.
#[derive(Debug, Default)]
struct Timer(AtomicU64);

impl Timer {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let (value, ms) = timed(f);
        self.0.fetch_add((ms * 1e6) as u64, Ordering::Relaxed);
        value
    }

    fn take_ms(&self) -> f64 {
        self.0.swap(0, Ordering::Relaxed) as f64 / 1e6
    }
}

/// Per-call-site timers of one traced operation.
#[derive(Debug, Default)]
struct Timers {
    compile_cse: Timer,
    compile_unroll: Timer,
    simulate: Timer,
    crossbar: Timer,
    deepcam: Timer,
    adds_cse: AtomicU64,
    adds_unroll: AtomicU64,
    cycles_cse: AtomicU64,
}

/// The RTM-AP simulator with timers around compilation and simulation: the
/// same calls `NetworkSimulator::evaluate_cached` makes.
struct TimedSimulator {
    simulator: NetworkSimulator,
    timers: Arc<Timers>,
}

impl InferenceBackend for TimedSimulator {
    fn name(&self) -> String {
        InferenceBackend::name(&self.simulator)
    }

    fn evaluate(&self, model: &ModelGraph) -> apc::Result<BackendReport> {
        self.evaluate_cached(model, &CompileCache::new())
    }

    fn evaluate_cached(
        &self,
        model: &ModelGraph,
        cache: &CompileCache,
    ) -> apc::Result<BackendReport> {
        let cse = self.simulator.compiler_options().enable_cse;
        let t = &self.timers;
        let compiler = LayerCompiler::new(*self.simulator.compiler_options());
        let compiled = if cse {
            &t.compile_cse
        } else {
            &t.compile_unroll
        }
        .time(|| cache.compile_model(&compiler, model))?;
        let report = t
            .simulate
            .time(|| self.simulator.simulate_precompiled(model, &compiled));
        let adds: u64 = report.layers.iter().map(|layer| layer.adds_subs).sum();
        if cse {
            t.adds_cse.store(adds, Ordering::Relaxed);
            let cycles = compiled.iter().map(|layer| layer.stats.total_cycles).sum();
            t.cycles_cse.store(cycles, Ordering::Relaxed);
        } else {
            t.adds_unroll.store(adds, Ordering::Relaxed);
        }
        Ok(BackendReport::RtmAp(report))
    }
}

/// A closed-form baseline with a timer around its evaluation.
struct TimedBaseline {
    inner: Box<dyn InferenceBackend>,
    timer: fn(&Timers) -> &Timer,
    timers: Arc<Timers>,
}

impl InferenceBackend for TimedBaseline {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn evaluate(&self, model: &ModelGraph) -> apc::Result<BackendReport> {
        (self.timer)(&self.timers).time(|| self.inner.evaluate(model))
    }
}

/// The four standard backends, each wrapped in timers.
fn timed_plans(timers: &Arc<Timers>) -> Vec<BackendPlan> {
    let simulator = |kind: BackendKind, cse: bool| {
        let timers = Arc::clone(timers);
        BackendPlan::custom(kind, move |spec| {
            let options = CompilerOptions {
                enable_cse: cse,
                ..spec.compiler_options()
            };
            Box::new(TimedSimulator {
                simulator: NetworkSimulator::new(spec.arch, options),
                timers: Arc::clone(&timers),
            })
        })
    };
    let baseline = |plan: BackendPlan, timer: fn(&Timers) -> &Timer| {
        let timers = Arc::clone(timers);
        BackendPlan::custom(plan.id(), move |spec| {
            Box::new(TimedBaseline {
                inner: plan.build(spec),
                timer,
                timers: Arc::clone(&timers),
            })
        })
    };
    vec![
        simulator(BackendKind::RtmAp, true),
        simulator(BackendKind::RtmApUnroll, false),
        baseline(BackendPlan::crossbar(), |t| &t.crossbar),
        baseline(BackendPlan::deepcam(), |t| &t.deepcam),
    ]
}

/// The Table II workload after set-up.
pub struct Table2Bench {
    grid: SweepGrid,
    traced_grid: SweepGrid,
    timers: Arc<Timers>,
    build_ms: f64,
    last: Option<PipelineReport>,
}

impl Table2Bench {
    /// Builds the model: ResNet-18/224 at sparsity .80 with weight seed
    /// `seed` (seed 7 is the paper row), or `micro_cnn` when `smoke`.
    ///
    /// # Errors
    ///
    /// Never; the signature matches the other workloads.
    pub fn new(seed: u64, smoke: bool) -> Result<Self, String> {
        let (model, build_ms) = timed(|| {
            if smoke {
                micro_cnn("micro_cnn", 8, 0.8, seed)
            } else {
                resnet18(0.8, seed)
            }
        });
        let grid = SweepGrid::new().workload((LABEL, model)).act_bits([4]);
        let timers = Arc::new(Timers::default());
        let traced_grid = grid.clone().backends(timed_plans(&timers));
        Ok(Table2Bench {
            grid,
            traced_grid,
            timers,
            build_ms,
            last: None,
        })
    }

    fn run_grid(&mut self, grid: &SweepGrid) -> Result<Outcome, String> {
        let results = Session::new().run(grid).map_err(|e| e.to_string())?;
        let report = results
            .scenarios()
            .first()
            .and_then(|scenario| results.pipeline(scenario))
            .ok_or("the session did not report all four standard backends")?;
        let words = |energy_uj: f64, latency_ms: f64, arrays: usize| {
            [energy_uj.to_bits(), latency_ms.to_bits(), arrays as u64]
        };
        let mut counters = Vec::new();
        for network in [&report.rtm_ap, &report.rtm_ap_unroll] {
            counters.extend(words(
                network.energy_uj(),
                network.latency_ms(),
                network.arrays(),
            ));
            counters.extend(network.layers.iter().map(|layer| layer.adds_subs));
        }
        counters.extend(words(
            report.crossbar.energy_uj(),
            report.crossbar.latency_ms(),
            report.crossbar.arrays,
        ));
        counters.extend(words(
            report.deepcam.energy_uj,
            report.deepcam.latency_ms,
            report.deepcam.arrays,
        ));
        if !(report.rtm_ap.energy_uj() > 0.0 && report.crossbar.energy_uj() > 0.0) {
            return Err("Table II row has non-positive energy".to_string());
        }
        self.last = Some(report);
        Ok(Outcome {
            bit_exact: true,
            logits: Vec::new(),
            counters,
        })
    }
}

impl Bench for Table2Bench {
    fn reference(&self) -> Option<Outcome> {
        None
    }

    fn setup_rows(&self) -> Vec<Row> {
        vec![Row::measured("tnn.build", self.build_ms, "setup_s")]
    }

    fn op(&mut self) -> Result<Outcome, String> {
        let grid = self.grid.clone();
        self.run_grid(&grid)
    }

    fn traced_op(&mut self) -> Result<(Outcome, Vec<Row>), String> {
        let grid = self.traced_grid.clone();
        let (outcome, total_ms) = timed(|| self.run_grid(&grid));
        let t = &self.timers;
        let rows = vec![
            Row::measured("apc.compile_cse", t.compile_cse.take_ms(), "op_calib_p50"),
            Row::measured(
                "apc.compile_unroll",
                t.compile_unroll.take_ms(),
                "op_calib_p50",
            ),
            Row::measured("accel.simulate", t.simulate.take_ms(), "op_calib_p50"),
            Row::measured("baseline.crossbar", t.crossbar.take_ms(), "op_calib_p50"),
            Row::measured("baseline.deepcam", t.deepcam.take_ms(), "op_calib_p50"),
        ];
        let rows = with_derived(rows, "core.session_other", total_ms, "op_calib_p50");
        Ok((outcome?, rows))
    }

    fn modeled(&self) -> Modeled {
        let Some(report) = &self.last else {
            return Modeled {
                samples_per_s: 0.0,
                uj_per_sample: 0.0,
                energy_gain_vs_crossbar: 0.0,
                latency_gain_vs_crossbar: 0.0,
                extra: Vec::new(),
            };
        };
        Modeled {
            samples_per_s: 1e3 / report.rtm_ap.latency_ms(),
            uj_per_sample: report.rtm_ap.energy_uj(),
            energy_gain_vs_crossbar: report.energy_improvement(),
            latency_gain_vs_crossbar: report.latency_improvement(),
            extra: vec![
                Metric::new(
                    "crossbar_uj_per_sample",
                    report.crossbar.energy_uj(),
                    "uJ",
                    Clock::Modeled,
                ),
                Metric::new(
                    "cse_add_reduction",
                    report.cse_reduction(),
                    "share",
                    Clock::Modeled,
                ),
            ],
        }
    }

    fn counts(&self) -> Vec<Metric> {
        let t = &self.timers;
        vec![
            Metric::new(
                "apc.adds_unroll",
                t.adds_unroll.load(Ordering::Relaxed) as f64,
                "count",
                Clock::Count,
            ),
            Metric::new(
                "apc.adds_cse",
                t.adds_cse.load(Ordering::Relaxed) as f64,
                "count",
                Clock::Count,
            ),
        ]
    }

    fn modeled_cycles(&self) -> u64 {
        self.timers.cycles_cse.load(Ordering::Relaxed)
    }
}
