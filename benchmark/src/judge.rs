//! Output checks and per-round metrics: turns the raw exchanges of a round
//! into counts, latencies and a list of violated checks.

use einet_edge::MetricsSnapshot;
use einet_server::RouteStats;

use crate::client::{Reply, Round};
use crate::setup::{Prepared, SampleRef};
use crate::stats::{percentile, sorted};
use crate::workload::Load;

/// Open-loop rounds whose generator ran later than this at p99 are invalid.
const MAX_SEND_LATE_P99_MS: f64 = 2.0;
/// Open-loop rounds that end with more than this many requests unanswered
/// have a growing backlog and are invalid (Little's law puts the steady
/// state below one at the sized load).
const MAX_BACKLOG_END: usize = 8;

/// How one request ended, from the client's side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A 200 carrying a checkpointed or final answer; `correct` compares
    /// its prediction with the label.
    Answered {
        /// Prediction equals the label.
        correct: bool,
        /// Ended by its deadline rather than by finishing the plan.
        killed: bool,
    },
    /// The kill landed before the first exit (504, or 429
    /// `expired_in_queue`) on a request that carried a deadline: no answer,
    /// but the system did what it promises.
    Unanswered {
        /// Shed at dequeue (429) rather than stopped in service (504).
        shed: bool,
    },
    /// Anything else: no reply, an error code, a `queue_full` shed, or a
    /// reply that contradicts the reference.
    Failed,
}

/// Judges one reply against the reference of the sample it answers.
/// Returns the verdict and, for a contradicted reference, what was wrong.
pub fn judge_reply(
    reply: &Reply,
    had_deadline: bool,
    kills_expected: bool,
    reference: &SampleRef,
    label: usize,
) -> (Verdict, Option<String>) {
    let wrong = |what: String| (Verdict::Failed, Some(format!("id {}: {what}", reply.id)));
    match (reply.code, reply.status.as_str(), reply.reason.as_deref()) {
        (200, status @ ("completed" | "deadline_expired"), _) => {
            let (Some(prediction), Some(exit)) = (reply.prediction, reply.exit) else {
                return wrong("200 without prediction/exit".to_string());
            };
            let killed = status == "deadline_expired";
            if killed && !kills_expected {
                return wrong("stopped by a deadline that should not expire".to_string());
            }
            let final_exit = *reference.executed.last().expect("references answer");
            if !killed && exit != final_exit {
                return wrong(format!("completed at exit {exit}, reference {final_exit}"));
            }
            if !reference.executed.contains(&exit) {
                return wrong(format!(
                    "exit {exit} is not a checkpoint of the reference run"
                ));
            }
            if reference.predictions[exit] != prediction {
                return wrong(format!(
                    "prediction {prediction} at exit {exit}, reference {}",
                    reference.predictions[exit]
                ));
            }
            let correct = prediction == label;
            (Verdict::Answered { correct, killed }, None)
        }
        (504, "deadline_expired", _) if had_deadline && kills_expected => {
            (Verdict::Unanswered { shed: false }, None)
        }
        (429, "shed", Some("expired_in_queue")) if had_deadline && kills_expected => {
            (Verdict::Unanswered { shed: true }, None)
        }
        (code, status, _) => wrong(format!("unexpected reply {code} {status}")),
    }
}

/// Counts and latencies of one round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundReport {
    /// Requests sent.
    pub sent: usize,
    /// Replies carrying an answer.
    pub answered: usize,
    /// Kills that landed before the first exit.
    pub unanswered: usize,
    /// Everything else.
    pub failed: usize,
    /// Answers that completed their plan.
    pub completed: usize,
    /// Replies that say the deadline stopped the task (200 or 504).
    pub deadline_expired: usize,
    /// Replies that say the task was shed at dequeue.
    pub shed_expired: usize,
    /// Answers that arrived within the workload's latency limit.
    pub on_time: usize,
    /// Answers whose prediction equals the label.
    pub correct: usize,
    /// Latency of every answered request, ms, ascending.
    pub latencies_ms: Vec<f64>,
    /// Length of the timed window, s.
    pub window_s: f64,
    /// Open loop: p99 of how late requests left, ms.
    pub send_late_p99_ms: f64,
    /// Open loop: unanswered requests when the last one was sent.
    pub backlog_end: usize,
    /// Open loop only: the generator kept its schedule and no backlog grew.
    pub valid: bool,
    /// Violated output checks, as text.
    pub violations: Vec<String>,
}

/// Judges every exchange of `round`.
pub fn judge_round(prepared: &Prepared, round: &Round) -> RoundReport {
    let workload = prepared.workload;
    let kills_expected = workload.kills_expected();
    let mut report = RoundReport {
        sent: round.exchanges.len(),
        backlog_end: round.backlog_end,
        window_s: round.window_s,
        valid: true,
        ..RoundReport::default()
    };
    if round.stray_replies > 0 {
        report.violations.push(format!(
            "{} replies with a duplicate or unknown id",
            round.stray_replies
        ));
        report.failed += round.stray_replies;
    }
    for exchange in &round.exchanges {
        let request = &exchange.request;
        let Some((reply, latency_ms)) = &exchange.reply else {
            report.failed += 1;
            report
                .violations
                .push(format!("id {}: no reply within the timeout", request.id));
            continue;
        };
        let (verdict, violation) = judge_reply(
            reply,
            request.deadline_ms.is_some(),
            kills_expected,
            &prepared.refs[request.sample],
            prepared.wires[request.sample].label,
        );
        report.violations.extend(violation);
        match verdict {
            Verdict::Answered {
                correct: hit,
                killed,
            } => {
                report.answered += 1;
                if killed {
                    report.deadline_expired += 1;
                } else {
                    report.completed += 1;
                }
                report.correct += usize::from(hit);
                report.on_time +=
                    usize::from(*latency_ms <= workload.limit_ms(request.deadline_ms));
                report.latencies_ms.push(*latency_ms);
            }
            Verdict::Unanswered { shed } => {
                report.unanswered += 1;
                if shed {
                    report.shed_expired += 1;
                } else {
                    report.deadline_expired += 1;
                }
            }
            Verdict::Failed => report.failed += 1,
        }
    }
    report.latencies_ms = sorted(std::mem::take(&mut report.latencies_ms));
    if matches!(workload.load, Load::Open { .. }) && !round.send_late_ms.is_empty() {
        report.send_late_p99_ms = percentile(&sorted(round.send_late_ms.clone()), 0.99);
        report.valid = report.send_late_p99_ms <= MAX_SEND_LATE_P99_MS
            && report.backlog_end <= MAX_BACKLOG_END;
    }
    report
}

/// The server-side counters a run is reconciled against.
#[derive(Debug, Clone)]
pub struct Counters {
    /// `ModelRegistry::model_snapshot`.
    pub snapshot: MetricsSnapshot,
    /// `ModelRegistry::route_stats`.
    pub route: RouteStats,
}

/// Checks that what the client saw adds up, and adds up to what the
/// server's public counters say happened between `before` and `after`.
/// `reports` must hold every round sent in between, discarded ones too.
pub fn reconcile(reports: &[RoundReport], before: &Counters, after: &Counters) -> Vec<String> {
    let total = |f: fn(&RoundReport) -> usize| reports.iter().map(f).sum::<usize>() as u64;
    let sent = total(|r| r.sent);
    let mut violations = Vec::new();
    let mut expect = |what: &str, client: u64, server: u64| {
        if client != server {
            violations.push(format!(
                "{what}: client saw {client}, server counted {server}"
            ));
        }
    };
    let outcomes = total(|r| r.answered) + total(|r| r.unanswered) + total(|r| r.failed);
    expect("sent = answered + unanswered + failed", sent, outcomes);
    let (b, a) = (&before.snapshot, &after.snapshot);
    expect("routed", sent, after.route.routed - before.route.routed);
    expect(
        "shed (queue_full)",
        0,
        after.route.shed_queue_full - before.route.shed_queue_full,
    );
    expect(
        "completed",
        total(|r| r.completed),
        a.completed - b.completed,
    );
    expect(
        "deadline_expired",
        total(|r| r.deadline_expired),
        a.deadline_expired - b.deadline_expired,
    );
    expect(
        "shed_expired",
        total(|r| r.shed_expired),
        a.shed_expired_at_dequeue - b.shed_expired_at_dequeue,
    );
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> SampleRef {
        SampleRef {
            predictions: vec![3, 4, 4, 5],
            executed: vec![0, 2, 3],
        }
    }

    fn reply(code: u64, status: &str, answer: Option<(usize, usize)>) -> Reply {
        Reply {
            id: 1,
            code,
            status: status.to_string(),
            reason: (code == 429).then(|| "expired_in_queue".to_string()),
            prediction: answer.map(|a| a.0),
            exit: answer.map(|a| a.1),
        }
    }

    #[test]
    fn answers_must_match_the_reference_checkpoint() {
        let r = reference();
        let ok = judge_reply(&reply(200, "completed", Some((5, 3))), false, false, &r, 5);
        assert_eq!(
            ok,
            (
                Verdict::Answered {
                    correct: true,
                    killed: false
                },
                None
            )
        );
        // Completed, but not where the reference run ends.
        let early = judge_reply(&reply(200, "completed", Some((4, 2))), false, false, &r, 4);
        assert_eq!(early.0, Verdict::Failed);
        // A kill hands over a checkpoint the reference run really produced…
        let kill = judge_reply(
            &reply(200, "deadline_expired", Some((4, 2))),
            true,
            true,
            &r,
            5,
        );
        assert_eq!(
            kill,
            (
                Verdict::Answered {
                    correct: false,
                    killed: true
                },
                None
            )
        );
        // …not a skipped exit, not another prediction, not without a deadline policy.
        for bad in [
            judge_reply(
                &reply(200, "deadline_expired", Some((4, 1))),
                true,
                true,
                &r,
                4,
            ),
            judge_reply(
                &reply(200, "deadline_expired", Some((9, 2))),
                true,
                true,
                &r,
                4,
            ),
            judge_reply(
                &reply(200, "deadline_expired", Some((4, 2))),
                true,
                false,
                &r,
                4,
            ),
        ] {
            assert_eq!(bad.0, Verdict::Failed);
            assert!(bad.1.is_some());
        }
    }

    #[test]
    fn early_kills_are_unanswered_only_with_a_deadline() {
        let r = reference();
        let stopped = judge_reply(&reply(504, "deadline_expired", None), true, true, &r, 0);
        assert_eq!(stopped.0, Verdict::Unanswered { shed: false });
        let shed = judge_reply(&reply(429, "shed", None), true, true, &r, 0);
        assert_eq!(shed.0, Verdict::Unanswered { shed: true });
        let no_deadline = judge_reply(&reply(504, "deadline_expired", None), false, true, &r, 0);
        assert_eq!(no_deadline.0, Verdict::Failed);
        for code in [400, 404, 500, 503] {
            assert_eq!(
                judge_reply(&reply(code, "x", None), true, true, &r, 0).0,
                Verdict::Failed
            );
        }
    }
}
