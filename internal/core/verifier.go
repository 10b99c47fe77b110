package core

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"

	"pharmaverify/internal/crawler"
	"pharmaverify/internal/dataset"
	"pharmaverify/internal/ml"
	"pharmaverify/internal/trust"
	"pharmaverify/internal/vectorize"
)

// Options configures a Verifier (the user-facing system combining the
// classification and ranking pipelines).
type Options struct {
	// Classifier for the text model (default SVM, the paper's best
	// single text classifier).
	Classifier ClassifierKind
	// Terms subsamples summaries before vectorization (0 = all terms).
	Terms int
	// Sampling rebalances training (default NoSampling).
	Sampling SamplingKind
	// Seed drives all randomness.
	Seed int64
	// Network configures the trust computation.
	Network NetworkConfig
}

func (o Options) withDefaults() Options {
	if o.Classifier == "" {
		o.Classifier = SVM
	}
	if o.Sampling == "" {
		o.Sampling = NoSampling
	}
	return o
}

// Verifier is a trained internet-pharmacy verification system: a text
// classifier over the training vocabulary plus a TrustRank network
// model seeded with the known legitimate pharmacies. It solves OPC via
// Classify-style probabilities and OPR via Rank.
type Verifier struct {
	opts     Options
	vocab    *vectorize.Vocabulary
	weightng vectorize.Weighting
	text     ml.Classifier
	netClf   ml.Classifier
	// Training link structure and seeds, for scoring new pharmacies.
	trainOutbound map[string][]string
	seeds         map[string]float64
	// trainCrawl is the crawl telemetry of the training snapshot (nil
	// when the snapshot predates crawl stats), kept so a shipped model
	// records the health of the crawl it was trained on.
	trainCrawl *crawler.Stats
	// sketch is the training corpus's term/link distribution snapshot
	// (nil for models persisted before sketches existed), the baseline
	// the serving layer's drift monitor compares fresh crawls against.
	sketch *Sketch
	// fp is the model's identity: the hex SHA-256 digest of its
	// persisted (Save) form, set by Train and LoadVerifier.
	fp string
	// vecPool recycles sparse vectorizers (scratch buffers over the
	// frozen vocabulary) across Assess calls, so a serving request
	// allocates O(document terms), not O(vocabulary). The zero pool is
	// ready to use — Train and LoadVerifier need no extra setup.
	vecPool sync.Pool
}

// vectorizer returns a pooled vectorizer over the frozen vocabulary.
func (v *Verifier) vectorizer() *vectorize.Vectorizer {
	if z, ok := v.vecPool.Get().(*vectorize.Vectorizer); ok {
		return z
	}
	return vectorize.NewVectorizer(v.vocab)
}

// Fingerprint returns the hex SHA-256 digest of the verifier's
// persisted form — the model's identity. Train computes it over the
// bytes Save would write; LoadVerifier computes it over the bytes it
// read, so a model keeps the same fingerprint across save/load round
// trips. The serving layer keys verdict caches on it and surfaces it in
// /readyz, so a hot-reloaded model is distinguishable from the one it
// replaced.
func (v *Verifier) Fingerprint() string { return v.fp }

// Options returns the (defaulted) options the verifier was trained
// with — loaded models report the classifier that actually trained
// them, not whatever the caller's flags default to.
func (v *Verifier) Options() Options { return v.opts }

// Assessment is the verdict for one pharmacy.
type Assessment struct {
	Domain string
	// Legitimate is the OPC decision.
	Legitimate bool
	// TextProb is the text model's P(legitimate).
	TextProb float64
	// TrustScore is the TrustRank value (networkRank).
	TrustScore float64
	// NetworkProb is the network classifier's P(legitimate).
	NetworkProb float64
	// Rank is the OPR score: textRank + networkRank.
	Rank float64
}

// FusedLegitimate is the OPC decision rule over the sources that voted:
// the equal-weight mean of their P(legitimate), summed in order as
// ensemble.AverageSelected sums a selected bag, compared with 0.5. No
// votes give the neutral 0.5, so an empty list is legitimate.
func FusedLegitimate(probs ...float64) bool {
	if len(probs) == 0 {
		return true
	}
	var sum float64
	for _, p := range probs {
		sum += p
	}
	return sum/float64(len(probs)) >= 0.5
}

// ErrNoTraining is returned when Train receives an empty snapshot.
var ErrNoTraining = errors.New("core: empty training snapshot")

// Train builds a Verifier from a labeled snapshot.
func Train(snap *dataset.Snapshot, opts Options) (*Verifier, error) {
	return TrainCtx(context.Background(), snap, opts)
}

// TrainCtx is Train with cooperative cancellation, checked between the
// training stages (vectorization, text-model fit, network scoring,
// network-model fit). Cancellation returns ctx's error and no verifier;
// the coarse stage granularity means the cancel latency is bounded by
// one classifier fit.
func TrainCtx(ctx context.Context, snap *dataset.Snapshot, opts Options) (*Verifier, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	if snap.Len() == 0 {
		return nil, ErrNoTraining
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	docs := snap.SubsampledTerms(opts.Terms, opts.Seed)
	corpus := vectorize.NewCorpus(docs, snap.Labels(), snap.Domains())
	weighting := vectorize.WeightTFIDF
	if opts.Classifier == NBM {
		weighting = vectorize.WeightCounts
	}
	ds := corpus.Dataset(weighting)

	smp, err := Sampler(opts.Sampling)
	if err != nil {
		return nil, err
	}
	if smp != nil {
		ds = smp(ds, rand.New(rand.NewSource(opts.Seed+41)))
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	text, err := NewClassifier(opts.Classifier, opts.Seed)
	if err != nil {
		return nil, err
	}
	// The verifier wants graded textRank scores: give the SVM its Platt
	// calibration back (experiments keep Weka-parity discrete outputs).
	if s, ok := text.(interface{ SetCalibrate(bool) }); ok {
		s.SetCalibrate(true)
	}
	if err := text.Fit(ds); err != nil {
		return nil, err
	}

	v := &Verifier{
		opts:          opts,
		vocab:         corpus.Vocab,
		weightng:      weighting,
		text:          text,
		trainOutbound: snap.Outbound(),
		seeds:         make(map[string]float64),
		trainCrawl:    snap.CrawlStats,
		sketch:        BuildSketch(snap, 0, 0),
	}
	for _, p := range snap.Pharmacies {
		if p.Label == ml.Legitimate {
			v.seeds[p.Domain] = 1
		}
	}

	// Network classifier trained on the training pharmacies' own trust
	// scores.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	trainScores, err := NetworkScores(snap, v.seeds, opts.Network)
	if err != nil {
		return nil, err
	}
	netClf, err := NewClassifier(NB, opts.Seed)
	if err != nil {
		return nil, err
	}
	netDS := scoreDataset(trainScores, snap.Labels(), snap.Domains())
	if err := netClf.Fit(netDS); err != nil {
		return nil, err
	}
	v.netClf = netClf
	// Fingerprint the freshly trained model. Serializing once more at
	// train time is cheap next to the classifier fits, and it guarantees
	// Train and LoadVerifier agree on the model's identity.
	fp, err := fingerprint(v)
	if err != nil {
		return nil, err
	}
	v.fp = fp
	return v, nil
}

// Assess scores a batch of (typically unlabeled) pharmacies. The link
// graph is rebuilt over the training pharmacies plus the batch so that
// trust propagates through shared endpoints; text probabilities use the
// frozen training vocabulary and model.
func (v *Verifier) Assess(pharmacies []dataset.Pharmacy) []Assessment {
	outbound := make(map[string][]string, len(v.trainOutbound)+len(pharmacies))
	for d, eps := range v.trainOutbound {
		outbound[d] = eps
	}
	for _, p := range pharmacies {
		outbound[p.Domain] = p.Outbound
	}
	g := trust.BuildGraph(outbound)
	cfgVariant := v.opts.Network.withDefaults().Variant
	var sg *trust.Graph
	if cfgVariant == TrustRankDirected {
		sg = g
	} else {
		sg = g.Undirected()
	}
	values := trust.TrustRank(sg, v.seeds, v.opts.Network.Trust)
	scores := trust.NewScores(sg, values)

	// Sparse text vectors over pooled scratch: O(doc terms) allocation
	// per pharmacy.
	z := v.vectorizer()
	defer v.vecPool.Put(z)
	out := make([]Assessment, len(pharmacies))
	for i, p := range pharmacies {
		textProb := v.text.Prob(z.Vector(p.Terms, v.weightng))
		ts := scores.Of(p.Domain)
		netProb := v.netClf.Prob(ml.NewVector([]float64{ts}))
		out[i] = Assessment{
			Domain:      p.Domain,
			Legitimate:  FusedLegitimate(textProb, netProb),
			TextProb:    textProb,
			TrustScore:  ts,
			NetworkProb: netProb,
			Rank:        textProb + ts,
		}
	}
	return out
}

// TextProb returns the text classifier's P(legitimate) for one
// preprocessed term list — the text half of an assessment, exposed on
// its own so serving-layer evidence sources can vote independently.
// It uses the pooled sparse vectorizer over the frozen vocabulary.
func (v *Verifier) TextProb(terms []string) float64 {
	z := v.vectorizer()
	x := z.Vector(terms, v.weightng)
	v.vecPool.Put(z)
	return v.text.Prob(x)
}

// NetworkProbFromTrust returns the network classifier's P(legitimate)
// for an externally computed trust score — the network half of an
// assessment, for callers that maintain their own link graph (the
// serving layer's incrementally refreshed TrustRank) instead of
// rebuilding one per call like Assess does.
func (v *Verifier) NetworkProbFromTrust(trustScore float64) float64 {
	return v.netClf.Prob(ml.NewVector([]float64{trustScore}))
}

// Seeds returns a copy of the TrustRank seed map (the training
// snapshot's known-legitimate pharmacies at value 1).
func (v *Verifier) Seeds() map[string]float64 {
	out := make(map[string]float64, len(v.seeds))
	for d, s := range v.seeds {
		out[d] = s
	}
	return out
}

// TrainingOutbound returns the training pharmacies' outbound endpoint
// lists — the static base of any link graph this model scores against.
// The returned map and its slices are the verifier's own state: callers
// must treat them as read-only (merge into a copy, never append in
// place).
func (v *Verifier) TrainingOutbound() map[string][]string { return v.trainOutbound }

// TrainingCrawlStats returns the crawl telemetry of the snapshot the
// verifier was trained on, or nil if unavailable. A training crawl with
// many lost pages or breaker trips yields a model whose text features
// under-represent the affected sites — surfacing this lets operators
// decide whether to re-crawl before shipping the model.
func (v *Verifier) TrainingCrawlStats() *crawler.Stats { return v.trainCrawl }

// RankAssessments sorts assessments by decreasing legitimacy score,
// producing the totally ordered set of Problem 2.
func RankAssessments(as []Assessment) []Assessment {
	out := append([]Assessment(nil), as...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank > out[j].Rank
		}
		return out[i].Domain < out[j].Domain
	})
	return out
}
