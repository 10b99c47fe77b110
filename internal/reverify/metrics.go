package reverify

import (
	"io"

	"pharmaverify/internal/serve"
)

// pipelineMetrics are the pipeline's own instruments, mounted on the
// deployment's /metrics endpoint with serve.Server.RegisterMetrics.
type pipelineMetrics struct {
	reg             serve.Registry
	sweeps          *serve.Counter
	retrainTriggers *serve.Counter
	domainsOK       *serve.Counter
	domainsErr      *serve.Counter
	domainsSkipped  *serve.Counter
}

// declareMetrics declares the pipeline's families in exposition order.
func (p *Pipeline) declareMetrics() {
	r := &p.met.reg
	r.GaugeFunc("pharmaverify_drift_term_score",
		"Total-variation distance between re-verified term frequencies and the training sketch.",
		func() float64 { term, _, _, _ := p.drift.scores(); return term })
	r.GaugeFunc("pharmaverify_drift_link_score",
		"Total-variation distance between re-verified outbound-link frequencies and the training sketch.",
		func() float64 { _, link, _, _ := p.drift.scores(); return link })
	r.GaugeFunc("pharmaverify_drift_observations",
		"Re-verified domains folded into the drift window since the last re-baseline.",
		func() float64 { _, _, n, _ := p.drift.scores(); return float64(n) })
	r.GaugeFunc("pharmaverify_drift_baseline_available",
		"Whether the live model carries a training sketch to measure drift against (0/1).",
		func() float64 {
			if _, _, _, ok := p.drift.scores(); ok {
				return 1
			}
			return 0
		})
	p.met.retrainTriggers = r.Counter("pharmaverify_retrain_triggers_total",
		"Drift-threshold crossings that invoked the retrain hook.")
	p.met.sweeps = r.Counter("pharmaverify_reverify_sweeps_total",
		"Completed re-verification sweeps over the corpus.")
	outcomes := r.Counters("pharmaverify_reverify_domains_total",
		"Re-verification attempts by outcome.", "outcome", "ok", "error", "skipped")
	p.met.domainsOK, p.met.domainsErr, p.met.domainsSkipped = outcomes[0], outcomes[1], outcomes[2]
}

// Sweeps reports completed sweeps (tests and smoke probes poll it).
func (p *Pipeline) Sweeps() uint64 { return p.met.sweeps.Value() }

// RetrainTriggers reports how often the drift trigger has fired.
func (p *Pipeline) RetrainTriggers() uint64 { return p.met.retrainTriggers.Value() }

// Metrics is the pipeline's registry. Mount it with
// serve.Server.RegisterMetrics so the whole continuous-verification
// loop is scraped off one endpoint.
func (p *Pipeline) Metrics() *serve.Registry { return &p.met.reg }

// WriteMetrics renders the pipeline's gauges and counters alone in the
// Prometheus text exposition format.
func (p *Pipeline) WriteMetrics(w io.Writer) { p.met.reg.Write(w) }
