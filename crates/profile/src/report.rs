//! Profile assembly: attribution + critical path + ledger cross-checks +
//! divergence vs the analytical model, in one serializable report.

use crate::attrib::{self, is_collective, CategoryNs, TrackSegments, CATEGORIES};
use crate::critical::{self, CritSegment};
use crate::timeline::Timeline;
use mt_collectives::cost::CommCostModel;
use mt_collectives::CollectiveKind;
use mt_model::StepTiming;
use mt_perf::GpuSpec;
use mt_trace::{MetricsRegistry, MetricsSnapshot, TraceEvent};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Report format version (`reports/PROFILE_*.json`).
///
/// v2: `CategoryNs` splits `recompute` into `exposed_recompute` /
/// `overlapped_recompute`, and ranks carry the recompute ledger mirror.
/// v3: `overlapped_recompute` is gone with the retired replay prefetch;
/// seven categories remain.
pub const SCHEMA_VERSION: u64 = 3;

/// Inputs to [`analyze`] beyond the trace itself.
#[derive(Debug, Clone, Default)]
pub struct AnalyzeOptions {
    /// Report label (config name: `overlapped_c2`, …).
    pub label: String,
    /// α–β model of the profiled interconnect, for the measured-vs-
    /// predicted communication divergence entry.
    pub link: Option<CommCostModel>,
    /// GPU model for the GEMM-efficiency divergence entry.
    pub gpu: Option<GpuSpec>,
    /// Hidden size for [`GpuSpec::achieved_gemm_flops`] (ignored without
    /// `gpu`).
    pub hidden: u64,
    /// Per-rank `StepTiming` ledger the trace must reproduce **exactly**.
    /// Analysis fails on any mismatch.
    pub expected_ledger: BTreeMap<u32, StepTiming>,
}

/// One rank's attribution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankProfile {
    /// Rank / track id.
    pub track: u32,
    /// The rank's step wall time (the shared global window), ns.
    pub wall_ns: u64,
    /// Per-category ns; sums to `wall_ns` exactly.
    pub categories: CategoryNs,
    /// Σ `comm_us` close-args over ledger-wrapped comm spans
    /// (`comm_exposed`, `gemm_overlapped`) — the trace's mirror of the
    /// rank's `StepTiming::comm_us`.
    pub wrapped_comm_us: u64,
    /// Σ `exposed_us` close-args — mirror of `StepTiming::exposed_us`.
    pub wrapped_exposed_us: u64,
    /// Σ `recompute_us` close-args over the ledger-wrapped inline replays
    /// (every `recompute*` span, the prefix `attrib` classifies by:
    /// `recompute_layer`, `recompute_mlp`) — the trace's mirror of the rank's
    /// `StepTiming::recompute_us`.
    pub wrapped_recompute_us: u64,
    /// Σ `exposed_us` close-args over the same replays — mirror of
    /// `StepTiming::exposed_recompute_us`.
    pub wrapped_exposed_recompute_us: u64,
    /// Number of spans recorded on this rank.
    pub spans: u64,
}

/// The critical path, summarized for the report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CritSummary {
    /// Path length, ns — equals `step_wall_ns` exactly.
    pub total_ns: u64,
    /// Cross-rank rendezvous handoffs along the path.
    pub rendezvous: u64,
    /// Per-category split of the path (each slice attributed via its
    /// rank's segments); sums to `total_ns` exactly.
    pub categories: CategoryNs,
    /// The path itself, forward order, contiguous.
    pub segments: Vec<CritSegment>,
}

/// One measured-vs-predicted comparison against the `mt-perf` models.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Divergence {
    /// What is being compared (`comm`, `gemm`).
    pub phase: String,
    /// Measured from the trace, milliseconds (max over ranks).
    pub measured_ms: f64,
    /// Predicted by the analytical model, milliseconds.
    pub predicted_ms: f64,
    /// `measured / predicted` (NaN when the prediction is 0).
    pub ratio: f64,
}

/// One line of the aggregated top-down call tree (pre-order, aggregated
/// across ranks by span-name path).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreeLine {
    /// Nesting depth of this name path.
    pub depth: u64,
    /// Span name.
    pub name: String,
    /// Occurrences across all ranks.
    pub calls: u64,
    /// Total ns across occurrences (children included).
    pub total_ns: u64,
    /// Self ns across occurrences (children excluded).
    pub self_ns: u64,
}

/// The full profile of one traced run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Format version.
    pub schema_version: u64,
    /// Config label this profile describes.
    pub label: String,
    /// Step wall time: the global trace window, ns.
    pub step_wall_ns: u64,
    /// Rank id (stringified for JSON) → attribution.
    pub ranks: BTreeMap<String, RankProfile>,
    /// Cross-rank critical path.
    pub critical_path: CritSummary,
    /// Measured-vs-predicted entries (empty without models in the
    /// options).
    pub divergence: Vec<Divergence>,
    /// Aggregated top-down call tree.
    pub top_down: Vec<TreeLine>,
    /// Per-collective latency and per-kernel duration distributions
    /// (exact-bucket histograms).
    pub histograms: MetricsSnapshot,
}

impl ProfileReport {
    /// Max over ranks of the ledger-mirrored total comm, µs.
    pub fn max_wrapped_comm_us(&self) -> u64 {
        self.ranks.values().map(|r| r.wrapped_comm_us).max().unwrap_or(0)
    }

    /// Max over ranks of the ledger-mirrored total recompute, µs.
    pub fn max_wrapped_recompute_us(&self) -> u64 {
        self.ranks.values().map(|r| r.wrapped_recompute_us).max().unwrap_or(0)
    }

    /// Per-category max over ranks, ns (the conservative cross-rank
    /// aggregation).
    pub fn max_categories(&self) -> CategoryNs {
        let mut out = CategoryNs::default();
        for cat in CATEGORIES {
            let v = self.ranks.values().map(|r| r.categories.get(cat)).max().unwrap_or(0);
            out.add(cat, v);
        }
        out
    }
}

/// The on-disk shape of `reports/PROFILE_*.json`: a format version plus a
/// map of config label → profile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileDocument {
    /// Format version (mirrors [`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Config label → profile.
    pub profiles: BTreeMap<String, ProfileReport>,
}

impl ProfileDocument {
    /// Wraps labeled profiles in the current schema version.
    pub fn new(profiles: BTreeMap<String, ProfileReport>) -> Self {
        ProfileDocument { schema_version: SCHEMA_VERSION, profiles }
    }

    /// Pretty JSON for `reports/`.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("profile document serializes")
    }
}

/// Loads a `reports/PROFILE_*.json` document: a map of config label →
/// profile under a `profiles` key.
pub fn load_profiles(path: &str) -> Result<BTreeMap<String, ProfileReport>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
    serde_json::from_value::<BTreeMap<String, ProfileReport>>(&doc["profiles"])
        .map_err(|e| format!("{path} has no valid profiles map: {e}"))
}

/// Profiles a traced run: timeline reconstruction, attribution, critical
/// path, ledger cross-check, divergence, histograms — with every exact
/// invariant enforced before the report is returned.
pub fn analyze(events: &[TraceEvent], opts: &AnalyzeOptions) -> Result<ProfileReport, String> {
    let tl = Timeline::build(events)?;
    let wall_ns = tl.wall_ns();
    let segments = attrib::segment_timeline(&tl);
    let by_track: BTreeMap<u32, &TrackSegments> = segments.iter().map(|s| (s.track, s)).collect();

    // Per-rank attribution + the ledger mirror from close-time span args.
    let mut ranks = BTreeMap::new();
    for (id, track) in &tl.tracks {
        let categories = by_track[id].totals();
        if categories.total() != wall_ns {
            return Err(format!(
                "rank {id}: categories sum to {} ns but the window is {wall_ns} ns",
                categories.total()
            ));
        }
        let mut wrapped_comm_us = 0u64;
        let mut wrapped_exposed_us = 0u64;
        let mut wrapped_recompute_us = 0u64;
        let mut wrapped_exposed_recompute_us = 0u64;
        for span in &track.spans {
            if span.name == "comm_exposed" || span.name == "gemm_overlapped" {
                wrapped_comm_us += span.arg_u64("comm_us").unwrap_or(0);
                wrapped_exposed_us += span.arg_u64("exposed_us").unwrap_or(0);
            }
            if span.name.starts_with("recompute") {
                wrapped_recompute_us += span.arg_u64("recompute_us").unwrap_or(0);
                wrapped_exposed_recompute_us += span.arg_u64("exposed_us").unwrap_or(0);
            }
        }
        ranks.insert(
            id.to_string(),
            RankProfile {
                track: *id,
                wall_ns,
                categories,
                wrapped_comm_us,
                wrapped_exposed_us,
                wrapped_recompute_us,
                wrapped_exposed_recompute_us,
                spans: track.spans.len() as u64,
            },
        );
    }

    // Exact ledger cross-check: the trace's wrapped-comm and wrapped-
    // recompute integers must reproduce the StepTiming ledger bit for bit.
    for (rank, expected) in &opts.expected_ledger {
        let Some(profile) = ranks.get(&rank.to_string()) else {
            return Err(format!("ledger check: rank {rank} missing from trace"));
        };
        let got = StepTiming {
            comm_us: profile.wrapped_comm_us,
            exposed_us: profile.wrapped_exposed_us,
            recompute_us: profile.wrapped_recompute_us,
            exposed_recompute_us: profile.wrapped_exposed_recompute_us,
        };
        if got != *expected {
            return Err(format!(
                "ledger check failed on rank {rank}: trace wraps {got:?}, StepTiming ledger \
                 says {expected:?}"
            ));
        }
    }

    // Critical path, attributed slice by slice through each rank's own
    // segment tiling.
    let rounds = critical::collective_rounds(&tl)?;
    let path = critical::critical_path(&tl, &rounds);
    let mut path_categories = CategoryNs::default();
    for seg in &path.segments {
        path_categories.accumulate(&by_track[&seg.track].slice(seg.start_ns, seg.end_ns));
    }
    let critical_path = CritSummary {
        total_ns: path.total_ns(),
        rendezvous: path.rendezvous,
        categories: path_categories,
        segments: path.segments,
    };

    // Divergence vs the analytical models.
    let mut divergence = Vec::new();
    if let Some(link) = &opts.link {
        let predicted_s: f64 = rounds
            .iter()
            .filter_map(|round| {
                let (&id, &si) = round.spans.iter().next()?;
                let span = &tl.tracks[&id].spans[si];
                let kind = collective_kind(&span.name)?;
                let payload = span.arg_u64("payload_bytes")?;
                let n = span.arg_u64("group_size").unwrap_or(tl.tracks.len() as u64);
                Some(link.time(kind, payload, n))
            })
            .sum();
        let measured_ns = tl
            .tracks
            .values()
            .map(|t| {
                t.spans.iter().filter(|s| is_collective(&s.name)).map(|s| s.dur_ns()).sum::<u64>()
            })
            .max()
            .unwrap_or(0);
        let measured_ms = measured_ns as f64 / 1e6;
        let predicted_ms = predicted_s * 1e3;
        divergence.push(Divergence {
            phase: "comm".to_string(),
            measured_ms,
            predicted_ms,
            ratio: measured_ms / predicted_ms,
        });
    }
    if let Some(gpu) = &opts.gpu {
        let per_rank_gemm = |track: &crate::timeline::Track| -> (u64, f64) {
            let mut ns = 0u64;
            let mut flops = 0.0f64;
            for s in &track.spans {
                if s.name == "kernel_gemm" || s.name == "gemm_overlapped" {
                    if s.name == "kernel_gemm" {
                        ns += s.dur_ns();
                    }
                    if let (Some(m), Some(n), Some(k)) =
                        (s.arg_u64("m"), s.arg_u64("n"), s.arg_u64("k"))
                    {
                        flops += 2.0 * m as f64 * n as f64 * k as f64;
                    }
                }
            }
            (ns, flops)
        };
        let (measured_ns, flops) =
            tl.tracks.values().map(per_rank_gemm).max_by(|a, b| a.0.cmp(&b.0)).unwrap_or((0, 0.0));
        let measured_ms = measured_ns as f64 / 1e6;
        let predicted_ms = flops / gpu.achieved_gemm_flops(opts.hidden.max(1)) * 1e3;
        divergence.push(Divergence {
            phase: "gemm".to_string(),
            measured_ms,
            predicted_ms,
            ratio: measured_ms / predicted_ms,
        });
    }

    // Duration distributions: per-collective latency and per-kernel
    // duration, in the exact-bucket histogram metric.
    let registry = MetricsRegistry::new();
    for track in tl.tracks.values() {
        for span in &track.spans {
            let dur_us = span.dur_ns() / 1_000;
            if is_collective(&span.name) {
                registry.histogram_record(&format!("comm.{}.latency_us", span.name), dur_us);
            } else if span.name.starts_with("kernel_") || span.name == "gemm_overlapped" {
                registry.histogram_record(&format!("kernel.{}.dur_us", span.name), dur_us);
            }
        }
    }

    let report = ProfileReport {
        schema_version: SCHEMA_VERSION,
        label: opts.label.clone(),
        step_wall_ns: wall_ns,
        ranks,
        critical_path,
        divergence,
        top_down: top_down(&tl),
        histograms: registry.snapshot(),
    };
    verify(&report)?;
    Ok(report)
}

/// Checks every exact invariant a well-formed report must satisfy.
/// Returns the first violation as an error — this is what the CI profile
/// smoke step runs against freshly generated JSON.
pub fn verify(report: &ProfileReport) -> Result<(), String> {
    if report.schema_version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {} != supported {SCHEMA_VERSION}",
            report.schema_version
        ));
    }
    if report.ranks.is_empty() {
        return Err("report has no ranks".to_string());
    }
    for (key, rank) in &report.ranks {
        if key != &rank.track.to_string() {
            return Err(format!("rank key {key:?} does not match track {}", rank.track));
        }
        if rank.wall_ns != report.step_wall_ns {
            return Err(format!(
                "rank {key}: wall {} ns != step wall {} ns",
                rank.wall_ns, report.step_wall_ns
            ));
        }
        if rank.categories.total() != rank.wall_ns {
            return Err(format!(
                "rank {key}: categories sum to {} ns, wall time is {} ns — attribution must \
                 be exact",
                rank.categories.total(),
                rank.wall_ns
            ));
        }
    }
    let cp = &report.critical_path;
    if cp.total_ns != report.step_wall_ns {
        return Err(format!(
            "critical path totals {} ns != step wall {} ns",
            cp.total_ns, report.step_wall_ns
        ));
    }
    if cp.categories.total() != cp.total_ns {
        return Err(format!(
            "critical-path categories sum to {} ns != path total {} ns",
            cp.categories.total(),
            cp.total_ns
        ));
    }
    let mut sum = 0u64;
    for (i, seg) in cp.segments.iter().enumerate() {
        if seg.end_ns < seg.start_ns {
            return Err(format!("critical-path segment {i} is inverted"));
        }
        if i > 0 && cp.segments[i - 1].end_ns != seg.start_ns {
            return Err(format!("critical-path segment {i} does not abut its predecessor"));
        }
        sum += seg.end_ns - seg.start_ns;
    }
    if sum != cp.total_ns {
        return Err(format!("critical-path segments sum to {sum} ns != total {} ns", cp.total_ns));
    }
    Ok(())
}

fn collective_kind(name: &str) -> Option<CollectiveKind> {
    Some(match name {
        "all_reduce" => CollectiveKind::AllReduce,
        "all_gather" => CollectiveKind::AllGather,
        "reduce_scatter" => CollectiveKind::ReduceScatter,
        "broadcast" => CollectiveKind::Broadcast,
        "barrier" => CollectiveKind::Barrier,
        "send_recv" => CollectiveKind::SendRecv,
        _ => return None,
    })
}

/// Aggregated top-down tree: spans merged by name path across all ranks.
fn top_down(tl: &Timeline) -> Vec<TreeLine> {
    #[derive(Default)]
    struct Node {
        calls: u64,
        total_ns: u64,
        self_ns: u64,
        children: BTreeMap<String, Node>,
    }
    fn add(node: &mut Node, track: &crate::timeline::Track, idx: usize) {
        let span = &track.spans[idx];
        let child_ns: u64 = span.children.iter().map(|&c| track.spans[c].dur_ns()).sum();
        node.calls += 1;
        node.total_ns += span.dur_ns();
        node.self_ns += span.dur_ns().saturating_sub(child_ns);
        for &c in &span.children {
            add(node.children.entry(track.spans[c].name.clone()).or_default(), track, c);
        }
    }
    let mut root = Node::default();
    for track in tl.tracks.values() {
        for &r in &track.roots {
            add(root.children.entry(track.spans[r].name.clone()).or_default(), track, r);
        }
    }
    fn flatten(children: &BTreeMap<String, Node>, depth: u64, out: &mut Vec<TreeLine>) {
        let mut ordered: Vec<(&String, &Node)> = children.iter().collect();
        ordered.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
        for (name, node) in ordered {
            out.push(TreeLine {
                depth,
                name: name.clone(),
                calls: node.calls,
                total_ns: node.total_ns,
                self_ns: node.self_ns,
            });
            if depth < 8 {
                flatten(&node.children, depth + 1, out);
            }
        }
    }
    let mut out = Vec::new();
    flatten(&root.children, 0, &mut out);
    out
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Renders the report as a terminal summary: per-rank attribution bars,
/// the critical-path split, divergence, latency distributions, and the
/// top-down tree.
pub fn render_ascii(report: &ProfileReport) -> String {
    let mut out = String::new();
    let wall = report.step_wall_ns.max(1);
    writeln!(
        out,
        "profile {:?}: step wall {:.3} ms, {} rank(s), critical path {} rendezvous handoff(s)",
        report.label,
        ms(report.step_wall_ns),
        report.ranks.len(),
        report.critical_path.rendezvous
    )
    .unwrap();

    writeln!(out, "\nper-rank attribution (each column sums to wall time exactly):").unwrap();
    for rank in report.ranks.values() {
        writeln!(out, "  rank {}:", rank.track).unwrap();
        for (label, ns) in rank.categories.entries() {
            if ns == 0 {
                continue;
            }
            let frac = ns as f64 / wall as f64;
            let bar = "#".repeat((frac * 32.0).round() as usize);
            writeln!(out, "    {label:<16} {:>9.3} ms  {:>5.1}%  |{bar}", ms(ns), frac * 100.0)
                .unwrap();
        }
        writeln!(
            out,
            "    ledger mirror: comm {} µs, exposed {} µs, recompute {} µs, exposed \
             recompute {} µs",
            rank.wrapped_comm_us,
            rank.wrapped_exposed_us,
            rank.wrapped_recompute_us,
            rank.wrapped_exposed_recompute_us
        )
        .unwrap();
    }

    writeln!(out, "\ncritical path ({:.3} ms, sums exactly):", ms(report.critical_path.total_ns))
        .unwrap();
    for (label, ns) in report.critical_path.categories.entries() {
        if ns > 0 {
            writeln!(out, "    {label:<16} {:>9.3} ms", ms(ns)).unwrap();
        }
    }

    if !report.divergence.is_empty() {
        writeln!(out, "\nmeasured vs predicted (mt-perf α–β / GEMM-efficiency):").unwrap();
        for d in &report.divergence {
            writeln!(
                out,
                "    {:<6} measured {:>9.3} ms  predicted {:>9.3} ms  ×{:.2}",
                d.phase, d.measured_ms, d.predicted_ms, d.ratio
            )
            .unwrap();
        }
    }

    let hist_lines: Vec<String> = report
        .histograms
        .metrics
        .iter()
        .filter_map(|(name, metric)| match metric {
            mt_trace::Metric::Histogram(h) => Some(format!(
                "    {name:<34} n={:<5} p50={:<7} p95={:<7} p99={:<7} max={} µs",
                h.count,
                h.p50(),
                h.p95(),
                h.p99(),
                h.max
            )),
            _ => None,
        })
        .collect();
    if !hist_lines.is_empty() {
        writeln!(out, "\nduration distributions:").unwrap();
        for line in hist_lines {
            writeln!(out, "{line}").unwrap();
        }
    }

    writeln!(out, "\ntop-down (aggregated across ranks):").unwrap();
    for line in report.top_down.iter().take(40) {
        writeln!(
            out,
            "    {:indent$}{:<24} calls {:<6} total {:>9.3} ms  self {:>9.3} ms",
            "",
            line.name,
            line.calls,
            ms(line.total_ns),
            ms(line.self_ns),
            indent = (line.depth as usize) * 2
        )
        .unwrap();
    }
    out
}
