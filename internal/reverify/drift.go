package reverify

import (
	"math"
	"sort"
	"sync"

	"pharmaverify/internal/core"
)

// driftMonitor folds re-verified observations into streaming term- and
// link-frequency counters and scores them against the live model's
// train-time sketch. The score per distribution is the total-variation
// distance over the sketch's kept keys plus an implicit "other" bucket
// (mass outside the kept keys): 0 means the fresh crawls look exactly
// like the training corpus, 1 means nothing overlaps. Observations
// accumulate across sweeps until a promotion re-baselines the monitor —
// the window deliberately spans sweeps, because paper-scale drift
// (vocabulary restyling, link-farm churn) emerges over months of
// corpus, not one pass.
type driftMonitor struct {
	mu    sync.Mutex
	base  *core.Sketch
	terms keptCounts
	links keptCounts
	// observations counts domains folded in, the trigger's evidence bar.
	observations int
}

func newDriftMonitor(base *core.Sketch) *driftMonitor {
	m := &driftMonitor{}
	m.reset(base)
	return m
}

// reset re-baselines the monitor on a (newly promoted) model's sketch
// and clears the streaming counters — fresh model, fresh drift window.
func (m *driftMonitor) reset(base *core.Sketch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.base = base
	m.terms, m.links = keptCounts{}, keptCounts{}
	if base != nil {
		m.terms, m.links = newKeptCounts(base.Terms), newKeptCounts(base.Links)
	}
	m.observations = 0
}

// observe folds one re-verified domain's terms and outbound endpoints
// into the streaming counters.
func (m *driftMonitor) observe(terms, outbound []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.terms.add(terms)
	m.links.add(outbound)
	m.observations++
}

// scores computes the current term and link drift and the observation
// count. ok is false when no baseline exists (a model persisted before
// sketches) — drift is then unmeasurable, not zero.
func (m *driftMonitor) scores() (term, link float64, observations int, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.base == nil {
		return 0, 0, m.observations, false
	}
	return m.terms.tvDistance(m.base.Terms), m.links.tvDistance(m.base.Links), m.observations, true
}

// keptCounts counts the observations of a sketch's kept keys, plus the
// total of all observations. A key outside the sketch adds to the total
// alone: the distance reads no other count, so the counters stay
// bounded by the sketch size however long the drift window.
type keptCounts struct {
	keys  []string       // the kept keys, sorted
	index map[string]int // kept key → its position in keys and n
	n     []int
	total int
}

func newKeptCounts(kept map[string]float64) keptCounts {
	keys := make([]string, 0, len(kept))
	for k := range kept {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	index := make(map[string]int, len(keys))
	for i, k := range keys {
		index[k] = i
	}
	return keptCounts{keys: keys, index: index, n: make([]int, len(keys))}
}

func (c *keptCounts) add(keys []string) {
	for _, k := range keys {
		if i, ok := c.index[k]; ok {
			c.n[i]++
		}
	}
	c.total += len(keys)
}

// tvDistance is the total-variation distance between the sketch's kept
// distribution base and the observed one, both extended with an "other"
// bucket for the mass outside the kept keys. Iteration is over sorted
// keys so the float sum — and therefore the exported gauge — is bitwise
// deterministic.
func (c *keptCounts) tvDistance(base map[string]float64) float64 {
	if c.total == 0 || len(base) == 0 {
		return 0
	}
	baseMass, obsMass, sum := 0.0, 0.0, 0.0
	for i, k := range c.keys {
		pk := base[k]
		qk := float64(c.n[i]) / float64(c.total)
		sum += math.Abs(pk - qk)
		baseMass += pk
		obsMass += qk
	}
	pOther := 1 - baseMass
	if pOther < 0 {
		pOther = 0
	}
	qOther := 1 - obsMass
	if qOther < 0 {
		qOther = 0
	}
	sum += math.Abs(pOther - qOther)
	return sum / 2
}
