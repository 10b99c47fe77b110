package bench

import (
	"fmt"
	"strings"

	"pharmaverify/internal/core"
	"pharmaverify/internal/htmlx"
	"pharmaverify/internal/ml"
	"pharmaverify/internal/ngram"
	"pharmaverify/internal/trust"
)

// Figure1 reproduces the spirit of the paper's Figure 1: the front
// pages of one legitimate and one illegitimate pharmacy, which look
// deceptively similar to a casual reader.
func Figure1(e *Env) (*Table, error) {
	var legit, illegit string
	for _, d := range e.World1.Domains() {
		s := e.World1.Site(d)
		if s.Legitimate && legit == "" && !s.Isolated {
			legit = d
		}
		if !s.Legitimate && illegit == "" && !s.Evader && !s.Hub {
			illegit = d
		}
		if legit != "" && illegit != "" {
			break
		}
	}
	t := &Table{
		ID:     "Figure 1",
		Title:  "Front pages of two online pharmacies (can you tell which is legitimate?)",
		Header: []string{"pharmacy", "front-page excerpt"},
		Notes:  []string{fmt.Sprintf("answer: pharmacy 1 (%s) is illegitimate, pharmacy 2 (%s) is legitimate — as in the paper's Figure 1", illegit, legit)},
	}
	excerpt := func(domain string) string {
		html, err := e.World1.Fetch(domain, "/")
		if err != nil {
			return err.Error()
		}
		text := htmlx.Parse(html).Text
		if len(text) > 160 {
			text = text[:160] + "…"
		}
		return text
	}
	t.AddRow("pharmacy 1", excerpt(illegit))
	t.AddRow("pharmacy 2", excerpt(legit))
	return t, nil
}

// Figure2 traces the N-Gram-Graph classification process of the
// paper's Figure 2 for one document: text → graph → similarities to
// the class graphs → feature vector.
func Figure2(e *Env) (*Table, error) {
	snap := e.Snap1
	// The probe is corpus document 0; the class documents follow it
	// in snapshot order, up to 20 per class.
	texts := []string{strings.Join(snap.Pharmacies[0].Terms, " ")}
	var legitDocs, illegitDocs []int
	for _, p := range snap.Pharmacies[1:] {
		if len(legitDocs) >= 20 && len(illegitDocs) >= 20 {
			break
		}
		switch {
		case p.Label == ml.Legitimate && len(legitDocs) < 20:
			legitDocs = append(legitDocs, len(texts))
		case p.Label == ml.Illegitimate && len(illegitDocs) < 20:
			illegitDocs = append(illegitDocs, len(texts))
		default:
			continue
		}
		texts = append(texts, strings.Join(p.Terms, " "))
	}
	c := ngram.NewCorpus(texts, 0, 0)
	legitClass, illegitClass := c.NewClass(), c.NewClass()
	for _, d := range legitDocs {
		legitClass.Merge(d)
	}
	for _, d := range illegitDocs {
		illegitClass.Merge(d)
	}
	feats := c.Features(0, legitClass, illegitClass)

	probe := snap.Pharmacies[0]
	t := &Table{
		ID:     "Figure 2",
		Title:  "N-Gram-Graph classification process (one traced document)",
		Header: []string{"step", "value"},
	}
	t.AddRow("document", fmt.Sprintf("%s (true class: %s)", probe.Domain, ml.ClassName(probe.Label)))
	t.AddRow("document graph edges", fmt.Sprintf("%d", c.DocSize(0)))
	t.AddRow("legitimate class graph edges", fmt.Sprintf("%d (merged %d docs)", legitClass.Size(), len(legitDocs)))
	t.AddRow("illegitimate class graph edges", fmt.Sprintf("%d (merged %d docs)", illegitClass.Size(), len(illegitDocs)))
	for i, name := range ngram.FeatureNames {
		t.AddRow(name, f3(feats[i]))
	}
	t.AddRow("Eq.(3) textRank", f3(c.TextRank(0, legitClass, illegitClass)))
	return t, nil
}

// Figure3 reproduces the TrustRank illustration: a small network of
// good and bad nodes before and after trust propagation.
func Figure3() (*Table, error) {
	// The good cluster (g1..g4) interlinks and g2 leaks one edge to the
	// bad cluster (b1..b3), mirroring the paper's Figure 3 topology.
	g := trust.NewGraph()
	edges := [][2]string{
		{"g1", "g2"}, {"g2", "g3"}, {"g3", "g4"}, {"g4", "g1"},
		{"g1", "g3"}, {"g2", "b1"},
		{"b1", "b2"}, {"b2", "b3"},
	}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	seeds := map[string]float64{"g1": 1, "g2": 1}
	scores := trust.NewScores(g, trust.TrustRank(g, seeds, trust.Config{}))

	t := &Table{
		ID:     "Figure 3",
		Title:  "TrustRank propagation: initial seed vs converged trust",
		Header: []string{"node", "kind", "initial", "after TrustRank"},
		Notes:  []string{"good pages keep high trust; the bad cluster receives only the single leaked edge's share (approximate isolation)"},
	}
	for _, n := range []string{"g1", "g2", "g3", "g4", "b1", "b2", "b3"} {
		kind := "good"
		if strings.HasPrefix(n, "b") {
			kind = "bad"
		}
		init := "0"
		if _, ok := seeds[n]; ok {
			init = "1"
		}
		t.AddRow(n, kind, init, f3(scores.Of(n)))
	}
	return t, nil
}

// AblationA4 runs the §6.4 outlier analysis: illegitimate pharmacies
// that rank high and legitimate pharmacies that rank low.
func AblationA4(e *Env) (*Table, error) {
	res, err := core.RankCV(e.Snap1, core.RankConfig{
		Classifier: core.NBM, Terms: pickTerms(e, 1000), Seed: e.Scale.Seed,
	})
	if err != nil {
		return nil, err
	}
	hi, lo := core.Outliers(res.Ranking, 5)

	t := &Table{
		ID:     "Analysis A4 (§6.4)",
		Title:  "Ranking outliers",
		Header: []string{"kind", "domain", "rank score", "network role"},
		Notes: []string{
			"paper: illegitimate outliers are not part of affiliate networks; legitimate outliers are the new-prescription sellers",
		},
	}
	role := func(domain string) string {
		s := e.World1.Site(domain)
		switch {
		case s == nil:
			return "?"
		case s.Evader:
			return "evader (no affiliate network)"
		case s.Hub:
			return "network hub"
		case s.Isolated:
			return "isolated (new-prescription seller)"
		case !s.Legitimate && s.HubDomain != "":
			return "networked affiliate"
		default:
			return "regular"
		}
	}
	for _, r := range hi {
		t.AddRow("illegitimate ranked high", r.Domain, f3(r.Score), role(r.Domain))
	}
	for _, r := range lo {
		t.AddRow("legitimate ranked low", r.Domain, f3(r.Score), role(r.Domain))
	}
	return t, nil
}
