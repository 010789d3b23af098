//! Execution timelines: a per-lambda Gantt view of one served request.
//!
//! The paper's Figs. 5–7 decompose completion time into loading,
//! prediction and coordination; this module renders the same decomposition
//! per request so users can see *where* a plan spends its seconds (and why
//! the optimizer chose the memories it chose).

use crate::coordinator::JobReport;
use crate::plan::ExecutionPlan;

/// One timeline span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Which lambda (chain index).
    pub lambda: usize,
    /// Phase name (`cold`, `import`, `load`, `transfer`, `compute`,
    /// `respond`, `retry`) — the same set `render`'s glyph legend shows.
    pub phase: &'static str,
    /// Span start, seconds from request start.
    pub start: f64,
    /// Span end.
    pub end: f64,
}

/// A request's full timeline.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Model name.
    pub model: String,
    /// Ordered spans.
    pub spans: Vec<Span>,
    /// Total duration.
    pub total_s: f64,
}

impl Timeline {
    /// Builds the timeline of a served job against its plan.
    ///
    /// Retried attempts appear as `retry` spans (the failed attempt plus
    /// its backoff) on the lambda that failed, before that lambda's
    /// successful phases.
    pub fn of(plan: &ExecutionPlan, job: &JobReport) -> Timeline {
        let t0 = job
            .outcomes
            .iter()
            .map(|o| o.start)
            .chain(job.retries.iter().map(|r| r.failed.start))
            .fold(f64::INFINITY, f64::min);
        let t0 = if t0.is_finite() { t0 } else { 0.0 };
        let mut spans = Vec::new();
        for (i, o) in job.outcomes.iter().enumerate() {
            for r in job.retries.iter().filter(|r| r.lambda == i) {
                spans.push(Span {
                    lambda: i,
                    phase: "retry",
                    start: r.failed.start - t0,
                    end: r.failed.end + r.backoff_s - t0,
                });
            }
            let mut t = o.start - t0;
            let b = &o.breakdown;
            for (phase, d) in [
                ("cold", b.cold_s),
                ("import", b.import_s),
                ("load", b.load_s),
                ("transfer", b.transfer_s),
                ("compute", b.compute_s),
                ("respond", b.fixed_s),
            ] {
                if d > 0.0 {
                    spans.push(Span {
                        lambda: i,
                        phase,
                        start: t,
                        end: t + d,
                    });
                    t += d;
                }
            }
        }
        Timeline {
            model: plan.model.clone(),
            spans,
            total_s: job.inference_s,
        }
    }

    /// Seconds spent in a given phase across all lambdas.
    pub fn phase_total(&self, phase: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Renders an ASCII Gantt chart, `width` characters wide.
    pub fn render(&self, width: usize) -> String {
        use std::fmt::Write;
        let width = width.max(20);
        let scale = width as f64 / self.total_s.max(1e-9);
        let glyph = |phase: &str| match phase {
            "cold" => 'c',
            "import" => 'i',
            "load" => 'l',
            "transfer" => 't',
            "compute" => '#',
            "respond" => 'r',
            "retry" => 'x',
            _ => '?',
        };
        let lambdas = self.spans.iter().map(|s| s.lambda).max().unwrap_or(0) + 1;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} — {:.2}s total (c=cold i=import l=load t=transfer #=compute r=respond x=retry)",
            self.model, self.total_s
        );
        for l in 0..lambdas {
            let mut row = vec![' '; width];
            for s in self.spans.iter().filter(|s| s.lambda == l) {
                let a = (s.start * scale).floor() as usize;
                let b = ((s.end * scale).ceil() as usize).min(width);
                for cell in row.iter_mut().take(b).skip(a.min(width)) {
                    *cell = glyph(s.phase);
                }
            }
            let _ = writeln!(out, "λ{l:<2} |{}|", row.into_iter().collect::<String>());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AmpsConfig;
    use crate::coordinator::Coordinator;
    use crate::optimizer::Optimizer;
    use ampsinf_model::zoo;

    fn served() -> (ExecutionPlan, JobReport) {
        let g = zoo::resnet50();
        let cfg = AmpsConfig::default();
        let plan = Optimizer::new(cfg.clone()).optimize(&g).unwrap().plan;
        let coord = Coordinator::new(cfg);
        let mut platform = coord.platform();
        let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
        let job = coord.serve_one(&mut platform, &dep, 0.0).unwrap();
        (plan, job)
    }

    #[test]
    fn spans_cover_the_request_contiguously() {
        let (plan, job) = served();
        let tl = Timeline::of(&plan, &job);
        assert!(!tl.spans.is_empty());
        // Span bookkeeping: monotone within each lambda, total matches.
        let last_end = tl.spans.iter().map(|s| s.end).fold(0.0f64, f64::max);
        assert!((last_end - tl.total_s).abs() < 1e-6);
        for w in tl.spans.windows(2) {
            if w[0].lambda == w[1].lambda {
                assert!(w[1].start >= w[0].end - 1e-9);
            }
        }
    }

    #[test]
    fn phase_totals_match_job_report() {
        let (plan, job) = served();
        let tl = Timeline::of(&plan, &job);
        assert!((tl.phase_total("load") - job.load_s).abs() < 1e-9);
        assert!((tl.phase_total("import") - job.import_s).abs() < 1e-9);
        assert!((tl.phase_total("compute") - job.predict_s).abs() < 1e-9);
    }

    #[test]
    fn retry_spans_cover_wasted_attempts() {
        use ampsinf_faas::FaultPlan;
        let g = zoo::resnet50();
        let cfg = AmpsConfig::default().with_faults(FaultPlan {
            crash_invocations: vec![1],
            ..FaultPlan::default()
        });
        let plan = Optimizer::new(cfg.clone()).optimize(&g).unwrap().plan;
        let coord = Coordinator::new(cfg);
        let mut platform = coord.platform();
        let dep = coord.deploy(&mut platform, &g, &plan).unwrap();
        let job = coord.serve_one(&mut platform, &dep, 0.0).unwrap();
        assert_eq!(job.retries.len(), 1);
        let tl = Timeline::of(&plan, &job);
        let retry_total: f64 = job
            .retries
            .iter()
            .map(|r| r.failed.duration() + r.backoff_s)
            .sum();
        assert!((tl.phase_total("retry") - retry_total).abs() < 1e-9);
        // The retry span precedes the same lambda's successful phases.
        for w in tl.spans.windows(2) {
            if w[0].lambda == w[1].lambda {
                assert!(w[1].start >= w[0].end - 1e-9);
            }
        }
        assert!(tl.render(80).contains('x'), "{}", tl.render(80));
    }

    #[test]
    fn render_has_one_row_per_lambda() {
        let (plan, job) = served();
        let tl = Timeline::of(&plan, &job);
        let text = tl.render(60);
        let rows = text.lines().filter(|l| l.starts_with('λ')).count();
        assert_eq!(rows, plan.num_lambdas());
        assert!(text.contains('#'), "compute must appear: {text}");
    }
}
