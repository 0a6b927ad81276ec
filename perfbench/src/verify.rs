//! Correctness and failure accounting for a served run.
//!
//! Every served result line is compared, field by field and bit for
//! bit (only `wall_ns` and the per-connection `job` number are
//! ignored), with an in-process batch run of the same jobs through
//! `parse_jsonl` + `FleetEngine::run`. Identical job lines give
//! identical results, so the reference solves each distinct line once.

use crate::client::ConnLog;
use ptherm_fleet::{parse_jsonl, FleetEngineBuilder, Json};
use std::collections::HashMap;

/// A result line with the fields that legitimately differ between
/// runs (`wall_ns`) or connections (`job`) removed.
pub fn canonical(line: &str) -> Option<String> {
    match Json::parse(line).ok()? {
        Json::Object(fields) => Some(
            Json::Object(
                fields
                    .into_iter()
                    .filter(|(k, _)| k != "wall_ns" && k != "job")
                    .collect(),
            )
            .render(),
        ),
        _ => None,
    }
}

/// Expected canonical result line of every distinct job line sent.
#[derive(Debug)]
pub struct Reference {
    expected: HashMap<String, String>,
}

impl Reference {
    /// Solves the distinct job lines of `logs` in one batch request
    /// (definitions deduplicated the same way, in send order).
    ///
    /// # Errors
    ///
    /// The batch parser's or engine builder's diagnosis.
    pub fn build(logs: &[&ConnLog], threads: usize) -> Result<Reference, String> {
        let mut seen = std::collections::HashSet::new();
        let mut text = String::new();
        let mut job_texts = Vec::new();
        for log in logs {
            for line in &log.lines {
                if seen.insert(line.text.as_str()) {
                    text.push_str(&line.text);
                    text.push('\n');
                    if line.job {
                        job_texts.push(line.text.clone());
                    }
                }
            }
        }
        let request = parse_jsonl(&text).map_err(|e| e.to_string())?;
        let engine = FleetEngineBuilder::new()
            .threads(threads)
            .request(&request)
            .build()
            .map_err(|e| e.to_string())?;
        let report = engine.run(&request.jobs);
        let expected = job_texts
            .into_iter()
            .zip(&report.jobs)
            .map(|(text, record)| {
                let line = record.to_json(&request.jobs[record.index]).render();
                (text, canonical(&line).unwrap_or_default())
            })
            .collect();
        Ok(Reference { expected })
    }

    /// The canonical expected result of a job line.
    pub fn expected(&self, job_text: &str) -> Option<&str> {
        self.expected.get(job_text).map(String::as_str)
    }
}

/// Outcome counts over every job line a run sent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Job lines sent.
    pub sent: usize,
    /// `"ok": true` answers.
    pub ok: usize,
    /// `"ok": false` answers.
    pub not_ok: usize,
    /// `"refused"` answers (backpressure, shutdown).
    pub refused: usize,
    /// Jobs never answered.
    pub unanswered: usize,
    /// Answers whose canonical line differs from the reference.
    pub mismatches: usize,
}

impl Accounting {
    /// Failed jobs: errors, refusals and missing answers.
    pub fn failed(&self) -> usize {
        self.not_ok + self.refused + self.unanswered
    }

    /// `failed / sent`.
    pub fn error_rate(&self) -> f64 {
        self.failed() as f64 / self.sent.max(1) as f64
    }
}

/// Counts outcomes and reference mismatches over `logs`.
pub fn account(logs: &[&ConnLog], reference: &Reference) -> Accounting {
    let mut acc = Accounting::default();
    for log in logs {
        for (seq, reply) in log.replies.iter().enumerate() {
            acc.sent += 1;
            let Some(reply) = reply else {
                acc.unanswered += 1;
                continue;
            };
            let json = Json::parse(&reply.text).ok();
            let field = |k: &str| json.as_ref().and_then(|j| j.get(k).cloned());
            if field("refused").is_some() {
                acc.refused += 1;
                continue;
            }
            match field("ok") {
                Some(Json::Bool(true)) => acc.ok += 1,
                _ => acc.not_ok += 1,
            }
            let served = canonical(&reply.text);
            if served.as_deref() != reference.expected(log.job_text(seq)) {
                acc.mismatches += 1;
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Reply;
    use crate::gen::Line;
    use std::time::Instant;

    const PLAN: &str = "{\"type\": \"floorplan\", \"name\": \"q\", \"tiles\": {\"rows\": 2, \"cols\": 2, \"p_min\": 0.01, \"p_max\": 0.02, \"seed\": 4}}";
    const JOBS: [&str; 2] = [
        "{\"type\": \"steady\", \"floorplan\": \"q\", \"dynamic_w\": 0.8, \"leakage_w\": 0.06}",
        "{\"type\": \"steady\", \"floorplan\": \"q\", \"dynamic_w\": 1.0, \"leakage_w\": 0.04, \"vdd_scales\": [0.9, 1.1]}",
    ];

    /// A log whose answers are the batch engine's own result lines,
    /// i.e. what a correct server sends.
    fn served_log() -> ConnLog {
        let mut log = ConnLog::default();
        log.lines.push(Line {
            text: PLAN.into(),
            job: false,
        });
        let request = parse_jsonl(&format!("{PLAN}\n{}\n{}\n", JOBS[0], JOBS[1])).unwrap();
        let engine = FleetEngineBuilder::new()
            .threads(1)
            .request(&request)
            .build()
            .unwrap();
        let report = engine.run(&request.jobs);
        for (seq, job) in JOBS.iter().enumerate() {
            log.job_lines.push(log.lines.len());
            log.lines.push(Line {
                text: (*job).into(),
                job: true,
            });
            log.sent_at.push(Instant::now());
            let text = report.jobs[seq].to_json(&request.jobs[seq]).render();
            log.replies.push(Some(Reply {
                text,
                at: Instant::now(),
            }));
        }
        log
    }

    #[test]
    fn a_correct_run_counts_clean() {
        let log = served_log();
        let reference = Reference::build(&[&log], 1).unwrap();
        let acc = account(&[&log], &reference);
        assert_eq!(acc.sent, 2);
        assert_eq!(acc.ok, 2);
        assert_eq!(acc.failed(), 0);
        assert_eq!(acc.mismatches, 0);
    }

    #[test]
    fn a_corrupted_result_line_is_a_mismatch() {
        let mut log = served_log();
        let reference = Reference::build(&[&log], 1).unwrap();
        let reply = log.replies[1].as_mut().unwrap();
        let json = Json::parse(&reply.text).unwrap();
        let peak = json.get("max_peak_k").and_then(Json::as_f64).unwrap();
        // One ulp off: the comparison is bitwise.
        let corrupted = f64::from_bits(peak.to_bits() + 1);
        reply.text = reply
            .text
            .replace(&peak.to_string(), &corrupted.to_string());
        let acc = account(&[&log], &reference);
        assert_eq!(acc.mismatches, 1);
        assert_eq!(acc.failed(), 0);
    }

    #[test]
    fn a_dropped_answer_counts_as_unanswered() {
        let mut log = served_log();
        let reference = Reference::build(&[&log], 1).unwrap();
        log.replies[0] = None;
        let acc = account(&[&log], &reference);
        assert_eq!(acc.unanswered, 1);
        assert_eq!(acc.failed(), 1);
        assert_eq!(acc.error_rate(), 0.5);
    }

    #[test]
    fn refusals_and_error_lines_count_as_failures() {
        let mut log = served_log();
        let reference = Reference::build(&[&log], 1).unwrap();
        log.replies[0].as_mut().unwrap().text =
            "{\"job\":0,\"refused\":\"backpressure\",\"error\":\"queue full (depth 4/4)\"}".into();
        log.replies[1].as_mut().unwrap().text =
            "{\"job\":1,\"kind\":\"steady\",\"floorplan\":\"q\",\"ok\":false,\"error\":\"x\",\"wall_ns\":1}".into();
        let acc = account(&[&log], &reference);
        assert_eq!((acc.refused, acc.not_ok), (1, 1));
        assert_eq!(acc.failed(), 2);
    }
}
