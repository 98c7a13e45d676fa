//! What one child process measured, and the line format it travels in
//! from the child's stdout to the parent.

use std::collections::BTreeMap;

use crate::trace::Layer;

/// One aligned piece of a child's measured work: every child of a run cuts
/// its work into the same pieces, in the same order, so piece `k` of one
/// child and piece `k` of another did the same work.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Segment {
    /// Items whose rate is the throughput (episodes, samples, or requests
    /// of the serve capacity phase); `0` in a piece timed only for latency.
    pub items: u64,
    /// Wall time of those items.
    pub secs: f64,
    /// Per-item latency, µs: an episode or sample from start to verdict,
    /// or a served request from its due time to its result.
    pub latencies_us: Vec<f64>,
}

/// The measurements of one workload run in one fresh process.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChildReport {
    /// Set-up time (see the README's glossary per workload).
    pub setup_s: f64,
    /// Input generation before set-up (serve request pools), untimed.
    pub gen_s: f64,
    /// The measured work, piece by piece.
    pub segments: Vec<Segment>,
    /// Operations attempted (episodes, samples, requests of every phase).
    pub attempted: u64,
    /// Attempted operations that panicked, or were rejected, shed or
    /// errored.
    pub failed: u64,
    /// Peak resident set (`VmHWM`), kB.
    pub rss_kb: u64,
    /// 128-bit fingerprint of the outcomes, for workloads whose outcomes
    /// are a pure function of their inputs.
    pub fingerprint: Option<u128>,
    /// Named scalars: result quality and per-layer counters.
    pub scalars: BTreeMap<String, f64>,
    /// Traced runs only: span statistics by span name.
    pub layers: BTreeMap<String, Layer>,
    /// Correctness checks that failed.
    pub gates: Vec<String>,
}

fn join<T: ToString>(values: impl IntoIterator<Item = T>) -> String {
    values
        .into_iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

impl ChildReport {
    pub fn scalar(&mut self, name: &str, value: f64) {
        self.scalars.insert(name.to_owned(), value);
    }

    /// Throughput items over all segments.
    pub fn work_items(&self) -> u64 {
        self.segments.iter().map(|s| s.items).sum()
    }

    /// Wall time of the throughput items over all segments.
    pub fn work_s(&self) -> f64 {
        self.segments.iter().map(|s| s.secs).sum()
    }

    /// Every latency sample, in segment order.
    pub fn latencies_us(&self) -> impl Iterator<Item = f64> + '_ {
        self.segments
            .iter()
            .flat_map(|s| s.latencies_us.iter().copied())
    }

    pub fn to_lines(&self) -> String {
        let mut out = vec![
            format!("setup_s {}", self.setup_s),
            format!("gen_s {}", self.gen_s),
            format!("attempted {} {}", self.attempted, self.failed),
            format!("rss_kb {}", self.rss_kb),
        ];
        out.extend(self.segments.iter().map(|s| {
            format!("segment {} {} {}", s.items, s.secs, join(&s.latencies_us))
                .trim_end()
                .to_owned()
        }));
        if let Some(fp) = self.fingerprint {
            out.push(format!("fingerprint {fp:032x}"));
        }
        out.extend(
            self.scalars
                .iter()
                .map(|(name, value)| format!("scalar {name} {value}")),
        );
        out.extend(self.layers.iter().map(|(name, l)| {
            format!(
                "layer {name} {} {} {} {}",
                l.count,
                l.busy_ns,
                l.self_ns,
                join(&l.durations_ns)
            )
        }));
        out.extend(self.gates.iter().map(|gate| format!("gate {gate}")));
        out.join("\n")
    }

    pub fn parse(text: &str) -> Result<ChildReport, String> {
        fn num<T: std::str::FromStr>(field: Option<&str>, line: &str) -> Result<T, String> {
            field
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| format!("bad report line `{line}`"))
        }
        fn nums<T: std::str::FromStr>(
            fields: std::str::SplitWhitespace,
            line: &str,
        ) -> Result<Vec<T>, String> {
            fields.map(|f| num(Some(f), line)).collect()
        }
        let mut report = ChildReport::default();
        for line in text.lines() {
            let mut fields = line.split_whitespace();
            match fields.next() {
                Some("setup_s") => report.setup_s = num(fields.next(), line)?,
                Some("gen_s") => report.gen_s = num(fields.next(), line)?,
                Some("segment") => report.segments.push(Segment {
                    items: num(fields.next(), line)?,
                    secs: num(fields.next(), line)?,
                    latencies_us: nums(fields, line)?,
                }),
                Some("attempted") => {
                    report.attempted = num(fields.next(), line)?;
                    report.failed = num(fields.next(), line)?;
                }
                Some("rss_kb") => report.rss_kb = num(fields.next(), line)?,
                Some("fingerprint") => {
                    let hex = fields.next().unwrap_or_default();
                    report.fingerprint = Some(
                        u128::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad report line `{line}`"))?,
                    );
                }
                Some("scalar") => {
                    let name = fields
                        .next()
                        .ok_or_else(|| format!("bad report line `{line}`"))?;
                    report
                        .scalars
                        .insert(name.to_owned(), num(fields.next(), line)?);
                }
                Some("layer") => {
                    let name = fields
                        .next()
                        .ok_or_else(|| format!("bad report line `{line}`"))?;
                    let layer = Layer {
                        count: num(fields.next(), line)?,
                        busy_ns: num(fields.next(), line)?,
                        self_ns: num(fields.next(), line)?,
                        durations_ns: nums(fields, line)?,
                    };
                    report.layers.insert(name.to_owned(), layer);
                }
                Some("gate") => {
                    report.gates.push(line["gate".len()..].trim().to_owned());
                }
                _ => return Err(format!("unknown report line `{line}`")),
            }
        }
        Ok(report)
    }
}

/// Peak resident set size of this process in kB (`VmHWM`).
pub fn peak_rss_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|err| format!("cannot read /proc/self/status: {err}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_round_trip_through_lines() {
        let mut report = ChildReport {
            setup_s: 0.125,
            gen_s: 1.5e-3,
            segments: vec![
                Segment {
                    items: 40,
                    secs: 0.3,
                    latencies_us: vec![12.5, 0.1, 3e6],
                },
                Segment {
                    items: 0,
                    secs: 0.0,
                    latencies_us: vec![7.0],
                },
                Segment {
                    items: 9,
                    secs: 0.25,
                    latencies_us: Vec::new(),
                },
            ],
            attempted: 41,
            failed: 1,
            rss_kb: 2048,
            fingerprint: Some(0xdead_beef),
            gates: vec!["request 3 ended twice".to_owned()],
            ..ChildReport::default()
        };
        report.scalar("rag.hit_share", 0.75);
        report.layers.insert(
            "llm.turn".to_owned(),
            Layer {
                count: 2,
                busy_ns: 30,
                self_ns: 30,
                durations_ns: vec![10, 20],
            },
        );
        assert_eq!(ChildReport::parse(&report.to_lines()), Ok(report));
        assert!(ChildReport::parse("nonsense 1").is_err());
        assert!(ChildReport::parse("segment 1").is_err());
    }
}
