package serve

import (
	"errors"
	"sync/atomic"

	"pharmaverify/internal/core"
	"pharmaverify/internal/dataset"
)

// Shadow deployment: a candidate model rides along with the live one,
// silently double-assessing every fresh observation — live traffic and
// background re-verification sweeps alike. The candidate sees exactly
// the evidence the live model saw (same crawled observation, same
// trust score from the shared link graph, same contributing source
// set), votes on its own text and network classifiers, and every
// verdict flip and per-source class disagreement is counted. A
// promotion controller (internal/reverify) watches the flip rate and,
// once the gate passes, promotes the candidate through the very same
// atomic.Pointer swap the SIGHUP hot-reload path uses — a promoted
// shadow is bit-identical to a manual reload of the same model file.
// The shadow never touches the served verdict: a crashing candidate
// degrades to "no shadow data", never to a bad answer.

// ErrShadowIdentical rejects a candidate whose fingerprint matches the
// live model — shadowing a model against itself can only ever measure
// zero flips and would auto-promote vacuously.
var ErrShadowIdentical = errors.New("serve: shadow candidate is identical to the live model")

// ErrNoShadow is returned by PromoteShadow when no candidate is loaded.
var ErrNoShadow = errors.New("serve: no shadow model loaded")

// shadowState is one candidate deployment: the model slot plus the
// per-candidate counters the promotion gate reads. The counters restart
// at zero for every SetShadow — a new candidate never inherits a
// predecessor's record.
type shadowState struct {
	slot     *modelSlot
	assessed atomic.Uint64
	flips    atomic.Uint64
}

// SetShadow loads a candidate model for shadow deployment, replacing
// any previous candidate and resetting the flip counters. A candidate
// identical to the live model is rejected with ErrShadowIdentical.
func (s *Server) SetShadow(v *core.Verifier) error {
	if v == nil {
		return errors.New("serve: nil shadow model")
	}
	fp := v.Fingerprint()
	if fp == s.model.Load().fingerprint {
		return ErrShadowIdentical
	}
	s.shadow.Store(&shadowState{slot: &modelSlot{v: v, fingerprint: fp, loaded: s.cfg.now()}})
	return nil
}

// ShadowActive reports whether a candidate is currently shadowing.
func (s *Server) ShadowActive() bool { return s.shadow.Load() != nil }

// ShadowFingerprint returns the candidate's identity, or "" when no
// candidate is loaded.
func (s *Server) ShadowFingerprint() string {
	if st := s.shadow.Load(); st != nil {
		return st.slot.fingerprint
	}
	return ""
}

// ShadowStats reports the current candidate's record: how many fresh
// verdicts it double-assessed and how many it would have flipped.
// (0, 0) when no candidate is loaded.
func (s *Server) ShadowStats() (assessed, flips uint64) {
	if st := s.shadow.Load(); st != nil {
		return st.assessed.Load(), st.flips.Load()
	}
	return 0, 0
}

// PromoteShadow atomically promotes the candidate to the live model —
// through SwapModel, the exact path a SIGHUP reload takes, so a
// promotion is indistinguishable from a manual reload of the same
// model file — and clears the shadow slot. It returns the promoted
// fingerprint. The promotion gate (flip rate, minimum assessments) is
// the caller's responsibility: the controller in internal/reverify
// enforces it, and operators may promote manually past it.
func (s *Server) PromoteShadow() (string, error) {
	st := s.shadow.Load()
	if st == nil {
		return "", ErrNoShadow
	}
	s.SwapModel(st.slot.v)
	s.shadow.Store(nil)
	s.met.shadowPromotions.Inc()
	return st.slot.fingerprint, nil
}

// DemoteShadow drops the candidate without promoting it — the
// regression path of the promotion controller (flip rate over the
// gate) or an operator abandoning a bad candidate. A no-op without a
// candidate.
func (s *Server) DemoteShadow() {
	if s.shadow.Load() == nil {
		return
	}
	s.shadow.Store(nil)
	s.met.shadowDemotions.Inc()
}

// shadowAssess silently re-judges one fresh observation under the
// candidate model, mirroring the live fusion: the candidate votes on
// exactly the sources that contributed to the live verdict — its own
// text classifier over the same terms, its own network classifier over
// the same shared-graph trust score, and model-independent evidence
// (registry) verbatim. Class disagreements are counted per source, and
// a fused-verdict flip feeds the promotion gate. It never mutates the
// live verdict.
func (s *Server) shadowAssess(st *shadowState, p dataset.Pharmacy, live *DomainVerdict) {
	sv := st.slot.v
	probs := make([]float64, 0, len(live.Sources))
	for _, c := range live.Sources {
		var sp float64
		switch c.Name {
		case "text":
			sp = sv.TextProb(p.Terms)
		case "network":
			sp = sv.NetworkProbFromTrust(live.TrustScore)
		default:
			// Model-independent evidence votes identically under any model.
			sp = c.Prob
		}
		if (sp >= 0.5) != (c.Prob >= 0.5) {
			s.met.shadowDisagreements.with(c.Name).Inc()
		}
		probs = append(probs, sp)
	}
	if len(probs) == 0 {
		return
	}
	st.assessed.Add(1)
	s.met.shadowAssessments.Inc()
	if core.FusedLegitimate(probs...) != live.Legitimate {
		st.flips.Add(1)
		s.met.shadowFlips.Inc()
	}
}
