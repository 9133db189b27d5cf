//! Set-up: everything between process start and the first timed request.
//!
//! Generates the data, trains the workload's model at a fixed small budget,
//! builds the CS-profile and CS-Predictor where the planner needs them,
//! computes the in-process reference answers, registers the model, starts
//! the reactor and warms the path up. Timed as one number, `setup_s`, so
//! that work a later change moves out of the request path and into set-up
//! still shows.

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use einet_core::{ConfidenceThresholdPlanner, ExitPlan, SearchEngine};
use einet_data::{Dataset, SynthObjects};
use einet_edge::{
    EinetSource, ElasticExecutor, FnSource, InferenceRequest, PlannerSource, PoolConfig,
    PreemptionGate, StaticSource,
};
use einet_models::{train_multi_exit, zoo, BranchSpec, MultiExitNet, TrainConfig};
use einet_predictor::{build_training_set, train_predictor, CsPredictor, PredictorTrainConfig};
use einet_profile::CsProfile;
use einet_server::{ModelRegistry, ModelSpec, ReactorConfig, ReactorServer};
use einet_tensor::Tensor;

use crate::affinity::spawning_on;
use crate::client::Conn;
use crate::workload::{Model, Planning, RequestStream, SampleWire, Workload};

/// Held-out samples sent as requests.
const HELDOUT_N: usize = 256;
/// Seed of the `SynthObjects` splits.
const DATA_SEED: u64 = 7;
/// Warm-up requests sent before the first timed one.
const WARMUP_REQUESTS: usize = 200;
/// Seed of the warm-up stream (never a timed seed's stream: ids restart).
const WARMUP_SEED: u64 = 0x5EED;
/// Held-out pixels are rounded to multiples of 1/256 so that their decimal
/// rendering is exact and the server's text → f64 → f32 parse reproduces
/// the very tensor the references were computed from.
const PIXEL_STEPS: f32 = 256.0;

/// The fixed training budget of one model: small enough that set-up fits
/// the benchmark's time cap, large enough that every exit is well above
/// chance. Fixed seeds: the served model is the same in every run.
struct Budget {
    train_n: usize,
    epochs: usize,
    lr: f32,
    batch_size: usize,
    model_seed: u64,
}

fn budget(model: Model) -> Budget {
    match model {
        Model::BAlexnet => Budget {
            train_n: 512,
            epochs: 20,
            lr: 0.02,
            batch_size: 16,
            model_seed: 1,
        },
        Model::Vgg16Fine => Budget {
            train_n: 384,
            epochs: 6,
            lr: 0.03,
            batch_size: 16,
            model_seed: 2,
        },
        Model::Msdnet40 => Budget {
            train_n: 192,
            epochs: 8,
            lr: 0.02,
            batch_size: 8,
            model_seed: 3,
        },
    }
}

/// CS-Predictor training epochs (its data is one CS-profile of the train
/// split; cheap next to the model).
const PREDICTOR_EPOCHS: usize = 20;

/// What the planner source is built from.
#[derive(Debug, Clone)]
pub enum PlannerParts {
    /// Trained CS-Predictor and the profile's mean confidence per exit.
    Einet {
        /// The trained predictor.
        predictor: Arc<CsPredictor>,
        /// `CsProfile::exit_mean_confidence`.
        prior: Vec<f32>,
        /// The search engine every replan runs.
        engine: SearchEngine,
    },
    /// Confidence threshold.
    Threshold(f32),
    /// Full static plan over this many exits.
    StaticFull(usize),
}

impl PlannerParts {
    /// Mints the planner source a worker owns.
    pub fn source(&self) -> Box<dyn PlannerSource> {
        match self {
            PlannerParts::Einet {
                predictor,
                prior,
                engine,
            } => Box::new(EinetSource::new(
                Arc::clone(predictor),
                prior.clone(),
                *engine,
            )),
            PlannerParts::Threshold(t) => {
                let t = *t;
                Box::new(FnSource::new("conf-threshold", move || {
                    Box::new(ConfidenceThresholdPlanner::new(t))
                }))
            }
            PlannerParts::StaticFull(n) => Box::new(StaticSource::new(ExitPlan::full(*n))),
        }
    }
}

/// The in-process reference answers of one held-out sample.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRef {
    /// Prediction at every exit (`forward_all_exits`).
    pub predictions: Vec<usize>,
    /// The exits an unkilled request executes under the workload's planner,
    /// in order; the last is where it answers.
    pub executed: Vec<usize>,
}

/// Everything set-up produced that the run and the ladder read.
pub struct Prepared {
    /// The workload being served.
    pub workload: &'static Workload,
    /// The trained network (the registry and every rung get clones).
    pub net: MultiExitNet,
    /// Planner source ingredients.
    pub planner: PlannerParts,
    /// Held-out inputs, `[1, c, h, w]` each.
    pub inputs: Vec<Tensor>,
    /// Their labels and pre-rendered wire fragments.
    pub wires: Vec<SampleWire>,
    /// Reference answers per held-out sample.
    pub refs: Vec<SampleRef>,
    /// Held-out accuracy at every exit.
    pub exit_accuracy: Vec<f64>,
}

impl Prepared {
    /// The pool sizing of this workload: one worker (the host has two cores
    /// and the reactor and the generator need the other).
    pub fn pool_config(&self) -> PoolConfig {
        PoolConfig {
            workers: 1,
            queue_capacity: self.workload.queue_capacity,
            max_batch: self.workload.max_batch,
            ..PoolConfig::default()
        }
    }
}

/// The running front-end.
pub struct Serving {
    /// The registry behind the reactor.
    pub registry: Arc<ModelRegistry>,
    reactor: ReactorServer,
}

impl Serving {
    /// Where clients connect.
    pub fn addr(&self) -> SocketAddr {
        self.reactor.local_addr()
    }

    /// Drains and joins the reactor thread and every pool worker.
    pub fn shutdown(self) {
        self.reactor.shutdown();
        if let Ok(registry) = Arc::try_unwrap(self.registry) {
            registry.shutdown();
        }
    }
}

fn build_net(model: Model, seed: u64) -> MultiExitNet {
    let spec = BranchSpec::paper_default();
    let (input, classes) = ([3, 16, 16], 10);
    match model {
        Model::BAlexnet => zoo::b_alexnet(input, classes, &spec, seed),
        Model::Vgg16Fine => zoo::vgg16_fine(input, classes, &spec, seed),
        Model::Msdnet40 => zoo::msdnet40(input, classes, &spec, seed),
    }
}

/// Runs the whole set-up for `workload`. Returns what it built, the live
/// front-end and the set-up time in seconds.
///
/// # Errors
///
/// Propagates reactor start and warm-up connection failures.
pub fn set_up(workload: &'static Workload) -> io::Result<(Prepared, Serving, f64)> {
    let started = Instant::now();
    let b = budget(workload.model);
    let data = SynthObjects::generate(b.train_n, HELDOUT_N, DATA_SEED);
    let mut net = build_net(workload.model, b.model_seed);
    train_multi_exit(
        &mut net,
        data.train(),
        &TrainConfig {
            epochs: b.epochs,
            lr: b.lr,
            batch_size: b.batch_size,
            ..TrainConfig::default()
        },
    );

    let planner = match workload.planning {
        Planning::Einet => {
            let profile = CsProfile::generate(&mut net, data.train());
            let n = profile.num_exits();
            let hidden = CsPredictor::default_hidden(n);
            let mut predictor = CsPredictor::new(n, hidden, 0x9E0);
            train_predictor(
                &mut predictor,
                &build_training_set(&profile),
                &PredictorTrainConfig {
                    epochs: PREDICTOR_EPOCHS,
                    ..PredictorTrainConfig::for_hidden(hidden)
                },
            );
            PlannerParts::Einet {
                predictor: Arc::new(predictor),
                prior: profile.exit_mean_confidence(),
                engine: SearchEngine::default(),
            }
        }
        Planning::Threshold(t) => PlannerParts::Threshold(t),
        Planning::StaticFull => PlannerParts::StaticFull(net.num_exits()),
    };

    einet_tensor::set_num_threads(1);
    let heldout = data.test();
    let shape = heldout.image_shape();
    let inputs: Vec<Tensor> = (0..heldout.len())
        .map(|i| {
            heldout
                .images()
                .batch_slice(i, i + 1)
                .map(|x| (x * PIXEL_STEPS).round() / PIXEL_STEPS)
        })
        .collect();
    let wires: Vec<SampleWire> = inputs
        .iter()
        .zip(heldout.labels())
        .map(|(input, &label)| {
            let data: Vec<String> = input.as_slice().iter().map(f32::to_string).collect();
            SampleWire {
                label,
                input_json: format!(
                    "{{\"shape\":[1,{},{},{}],\"data\":[{}]}}",
                    shape[0],
                    shape[1],
                    shape[2],
                    data.join(",")
                ),
            }
        })
        .collect();

    // Reference answers: every exit's prediction straight from the network,
    // and the exits an unkilled request runs, from the solo executor with
    // the same planner source the pool workers get.
    let solo = ElasticExecutor::spawn(net.clone(), planner.source(), PreemptionGate::new());
    let mut refs = Vec::with_capacity(inputs.len());
    let mut correct_at = vec![0usize; net.num_exits()];
    for (input, wire) in inputs.iter().zip(&wires) {
        let predictions: Vec<usize> = net
            .forward_all_exits(input)
            .iter()
            .map(|o| o.predicted)
            .collect();
        for (hits, &p) in correct_at.iter_mut().zip(&predictions) {
            *hits += usize::from(p == wire.label);
        }
        let outcome = solo
            .submit(InferenceRequest::new(input.clone()))
            .expect("solo executor alive")
            .recv()
            .expect("solo executor reply");
        assert!(
            outcome.is_complete() && !outcome.outputs.is_empty(),
            "an unkilled reference request must complete with an answer"
        );
        refs.push(SampleRef {
            predictions,
            executed: outcome.outputs.iter().map(|o| o.exit).collect(),
        });
    }
    solo.shutdown();
    let exit_accuracy = correct_at
        .iter()
        .map(|&c| c as f64 / inputs.len() as f64)
        .collect();

    let prepared = Prepared {
        workload,
        net,
        planner,
        inputs,
        wires,
        refs,
        exit_accuracy,
    };

    let parts = prepared.planner.clone();
    let registry = spawning_on(workload.worker_cpu, || {
        let mut registry = ModelRegistry::new();
        registry.register(
            workload.model_name(),
            prepared.net.clone(),
            move |_replica, _worker| parts.source(),
            ModelSpec {
                pool: prepared.pool_config(),
                ..ModelSpec::default()
            },
        );
        Arc::new(registry)
    });
    let reactor = ReactorServer::start(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ReactorConfig::default(),
    )?;
    let serving = Serving { registry, reactor };

    let mut warmup = RequestStream::new(workload, WARMUP_SEED, &prepared.wires);
    Conn::connect(serving.addr())?.closed_loop(
        &mut warmup,
        1,
        Duration::from_secs(60),
        WARMUP_REQUESTS,
    );
    Ok((prepared, serving, started.elapsed().as_secs_f64()))
}
