//! The four workloads and their seeded request streams.
//!
//! Every constant here is fixed: none is derived from a measured speed, so
//! the same traffic hits the parent commit and a change. The `--seed`
//! chooses only which held-out samples are sent, the arrival schedule and
//! the kill times; the system under test sees nothing but the request
//! lines built here.

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Which zoo network a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// `zoo::b_alexnet`, 3 exits.
    BAlexnet,
    /// `zoo::vgg16_fine`, 14 exits.
    Vgg16Fine,
    /// `zoo::msdnet40`, 40 exits.
    Msdnet40,
}

/// How the served model is planned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Planning {
    /// `EinetSource`: trained CS-Predictor + `SearchEngine`, replanning
    /// after every output.
    Einet,
    /// `ConfidenceThresholdPlanner` behind an `FnSource`.
    Threshold(f32),
    /// `StaticSource` with the full plan.
    StaticFull,
}

/// How load is offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// One connection, `window` requests in flight; the next is sent when a
    /// reply arrives.
    Closed { window: usize },
    /// Arrivals on a schedule regardless of replies: `rate_hz × window`
    /// arrival times drawn uniformly over the window (a Poisson process
    /// conditioned on its count, so every run offers the same number).
    Open { rate_hz: f64 },
}

/// Which requests carry `deadline_ms`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Deadlines {
    /// None.
    None,
    /// Every fourth request carries this loose deadline (ms): EDF insertion
    /// and the batch hold decision are on the path, nothing expires. Not
    /// every second one: EDF serves deadline-carrying requests first, so the
    /// two classes see different queueing and the median would sit on the
    /// step between them.
    EveryFourth(f64),
    /// Every request carries a kill time drawn Uniform(0, max) ms.
    Uniform(f64),
}

/// One workload: model, planner, load shape and limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// The name later issues use.
    pub name: &'static str,
    /// Served network.
    pub model: Model,
    /// Planner source.
    pub planning: Planning,
    /// Load shape.
    pub load: Load,
    /// `PoolConfig::max_batch`.
    pub max_batch: usize,
    /// `PoolConfig::queue_capacity`.
    pub queue_capacity: usize,
    /// Deadline policy.
    pub deadlines: Deadlines,
    /// A reply counts toward goodput only if it arrives within this many ms
    /// — after the request's own kill time, on a workload that kills.
    pub latency_limit_ms: f64,
    /// The CPU the pool worker is placed on; the reactor and the generator
    /// are on CPU 0 (see `affinity`).
    pub worker_cpu: usize,
}

/// The benchmark's workloads, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "solo-deep",
        model: Model::Msdnet40,
        planning: Planning::Einet,
        load: Load::Closed { window: 1 },
        max_batch: 1,
        queue_capacity: 64,
        deadlines: Deadlines::None,
        latency_limit_ms: 10.0,
        // Compute dominates: the worker gets CPU 1 to itself. Sharing CPU 0
        // with the reactor and the client made the round-level median
        // wander by ±10 % within a run.
        worker_cpu: 1,
    },
    Workload {
        name: "solo-shallow",
        model: Model::BAlexnet,
        // A 10-class softmax maximum is always ≥ 0.1: every request
        // answers at the first branch and stops.
        planning: Planning::Threshold(0.1),
        load: Load::Closed { window: 1 },
        max_batch: 1,
        queue_capacity: 64,
        deadlines: Deadlines::None,
        latency_limit_ms: 5.0,
        // Hand-offs dominate and only one thread is ever runnable, so all
        // share CPU 0: the round trip is the software path, free of this
        // VM's cross-CPU wake-ups (which put its p99 anywhere in
        // 0.19–0.30 ms).
        worker_cpu: 0,
    },
    Workload {
        name: "saturate-batch",
        model: Model::Vgg16Fine,
        planning: Planning::StaticFull,
        load: Load::Closed { window: 32 },
        max_batch: 8,
        queue_capacity: 64,
        deadlines: Deadlines::EveryFourth(250.0),
        latency_limit_ms: 100.0,
        worker_cpu: 1,
    },
    Workload {
        name: "kill-storm",
        model: Model::Msdnet40,
        planning: Planning::Einet,
        load: Load::Open { rate_hz: 150.0 },
        max_batch: 1,
        queue_capacity: 64,
        deadlines: Deadlines::Uniform(2.5),
        latency_limit_ms: 2.0,
        worker_cpu: 1,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The registered model name on the wire.
    pub fn model_name(&self) -> &'static str {
        match self.model {
            Model::BAlexnet => "b_alexnet",
            Model::Vgg16Fine => "vgg16_fine",
            Model::Msdnet40 => "msdnet40",
        }
    }

    /// Whether the deadlines are kill times that are meant to land
    /// mid-inference (as opposed to loose ones that never expire).
    pub fn kills_expected(&self) -> bool {
        matches!(self.deadlines, Deadlines::Uniform(_))
    }

    /// The on-time limit of one request, in ms from when it was sent (closed
    /// loop) or due (open loop).
    pub fn limit_ms(&self, deadline_ms: Option<f64>) -> f64 {
        match deadline_ms {
            Some(kill) if self.kills_expected() => self.latency_limit_ms + kill,
            _ => self.latency_limit_ms,
        }
    }
}

/// Yields `0..n` in a fresh seeded permutation, cycle after cycle: every
/// index is drawn equally often (± 1), which keeps accuracy and kill-time
/// mixes from drifting with the seed while the order stays unpredictable.
#[derive(Debug, Clone)]
struct ShuffledCycle {
    order: Vec<usize>,
    next: usize,
}

impl ShuffledCycle {
    fn new(n: usize) -> Self {
        ShuffledCycle {
            order: (0..n).collect(),
            next: n,
        }
    }

    fn draw(&mut self, rng: &mut SmallRng) -> usize {
        if self.next == self.order.len() {
            self.order.shuffle(rng);
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// Kill-time strata per cycle of [`Deadlines::Uniform`].
const DEADLINE_STRATA: usize = 50;

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Wire `id`, unique within the run.
    pub id: u64,
    /// Index of the held-out sample sent.
    pub sample: usize,
    /// The `deadline_ms` carried, if any.
    pub deadline_ms: Option<f64>,
    /// The full request line, newline included.
    pub line: String,
}

/// The pre-rendered part of a request that depends only on the sample.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleWire {
    /// True class.
    pub label: usize,
    /// `{"shape":[1,c,h,w],"data":[...]}`.
    pub input_json: String,
}

/// The seeded request stream of one workload. Same seed, same bytes.
#[derive(Debug, Clone)]
pub struct RequestStream<'a> {
    workload: &'static Workload,
    samples: &'a [SampleWire],
    rng: SmallRng,
    sample_cycle: ShuffledCycle,
    stratum_cycle: ShuffledCycle,
    next_id: u64,
}

impl<'a> RequestStream<'a> {
    /// Starts the stream.
    pub fn new(workload: &'static Workload, seed: u64, samples: &'a [SampleWire]) -> Self {
        RequestStream {
            workload,
            samples,
            rng: SmallRng::seed_from_u64(seed),
            sample_cycle: ShuffledCycle::new(samples.len()),
            stratum_cycle: ShuffledCycle::new(DEADLINE_STRATA),
            next_id: 1,
        }
    }

    /// Sorted arrival offsets of an open-loop round: `rate_hz × window`
    /// uniform draws.
    pub fn arrivals(&mut self, rate_hz: f64, window: Duration) -> Vec<Duration> {
        let count = (rate_hz * window.as_secs_f64()).round() as usize;
        let mut due: Vec<Duration> = (0..count)
            .map(|_| window.mul_f64(self.rng.gen::<f64>()))
            .collect();
        due.sort();
        due
    }
}

impl Iterator for RequestStream<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let id = self.next_id;
        self.next_id += 1;
        let sample = self.sample_cycle.draw(&mut self.rng);
        let deadline_ms = match self.workload.deadlines {
            Deadlines::None => None,
            Deadlines::EveryFourth(ms) => id.is_multiple_of(4).then_some(ms),
            Deadlines::Uniform(max) => {
                let stratum = self.stratum_cycle.draw(&mut self.rng) as f64;
                let u = (stratum + self.rng.gen::<f64>()) / DEADLINE_STRATA as f64;
                // The wire carries µs resolution; round here so the limit
                // the client applies is the deadline the server saw.
                Some((u * max * 1000.0).floor() / 1000.0)
            }
        };
        let wire = &self.samples[sample];
        let deadline = deadline_ms.map_or(String::new(), |d| format!(",\"deadline_ms\":{d}"));
        let line = format!(
            "{{\"id\":{id},\"model\":\"{}\",\"label\":{}{deadline},\"input\":{}}}\n",
            self.workload.model_name(),
            wire.label,
            wire.input_json
        );
        Some(Request {
            id,
            sample,
            deadline_ms,
            line,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wires() -> Vec<SampleWire> {
        (0..7)
            .map(|i| SampleWire {
                label: i % 3,
                input_json: format!("{{\"shape\":[1,1,1,2],\"data\":[{i},0.5]}}"),
            })
            .collect()
    }

    fn first_bytes(w: &'static Workload, seed: u64) -> String {
        let wires = wires();
        RequestStream::new(w, seed, &wires)
            .take(300)
            .map(|r| r.line)
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in &WORKLOADS {
            assert_eq!(first_bytes(w, 11), first_bytes(w, 11), "{}", w.name);
            assert_ne!(first_bytes(w, 11), first_bytes(w, 12), "{}", w.name);
        }
        let wires = wires();
        let kill = Workload::by_name("kill-storm").unwrap();
        let window = Duration::from_secs(2);
        let a = RequestStream::new(kill, 5, &wires).arrivals(150.0, window);
        let b = RequestStream::new(kill, 5, &wires).arrivals(150.0, window);
        let c = RequestStream::new(kill, 6, &wires).arrivals(150.0, window);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 300);
        assert!(a.windows(2).all(|p| p[0] <= p[1]) && a[299] <= window);
    }

    #[test]
    fn samples_and_kill_times_are_evenly_covered() {
        let wires = wires();
        let kill = Workload::by_name("kill-storm").unwrap();
        let reqs: Vec<Request> = RequestStream::new(kill, 3, &wires).take(700).collect();
        for s in 0..wires.len() {
            assert_eq!(reqs.iter().filter(|r| r.sample == s).count(), 100);
        }
        // 700 = 14 cycles of 50 strata: each 0.05 ms stratum holds 14.
        for stratum in 0..DEADLINE_STRATA {
            let lo = stratum as f64 * 0.05;
            let n = reqs
                .iter()
                .filter(|r| {
                    let d = r.deadline_ms.unwrap();
                    d >= lo - 1e-9 && d < lo + 0.05 - 1e-9
                })
                .count();
            assert!((13..=15).contains(&n), "stratum {stratum}: {n}");
        }
        let ids: Vec<u64> = reqs.iter().map(|r| r.id).collect();
        assert_eq!(ids, (1..=700).collect::<Vec<u64>>());
    }

    #[test]
    fn deadlines_follow_the_policy_and_limits_follow_deadlines() {
        let wires = wires();
        let sat = Workload::by_name("saturate-batch").unwrap();
        let reqs: Vec<Request> = RequestStream::new(sat, 1, &wires).take(10).collect();
        for r in &reqs {
            assert_eq!(r.deadline_ms, (r.id % 4 == 0).then_some(250.0));
            assert_eq!(sat.limit_ms(r.deadline_ms), 100.0);
            assert!(r.line.ends_with("}\n") && r.line.contains("\"model\":\"vgg16_fine\""));
        }
        let kill = Workload::by_name("kill-storm").unwrap();
        assert_eq!(kill.limit_ms(Some(1.25)), 3.25);
        let solo = Workload::by_name("solo-deep").unwrap();
        assert!(RequestStream::new(solo, 1, &wires)
            .take(5)
            .all(|r| r.deadline_ms.is_none() && !r.line.contains("deadline_ms")));
    }
}
