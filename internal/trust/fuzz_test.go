package trust

import (
	"math"
	"strings"
	"testing"
)

// Crawled links are written by the sites being judged, so everything
// between a raw href and the live link graph is adversary input. These
// targets run their seed corpora (testdata/fuzz) under go test, and
// explore further under go test -fuzz.

// FuzzEndpoint: an accepted endpoint is a clean registrable domain —
// lower case, at least two non-empty labels, none of the URL syntax
// that delimits a host — and a fixed point of Endpoint.
func FuzzEndpoint(f *testing.F) {
	for _, s := range []string{
		"http://www.medicalnewstoday.com/articles/238663.php",
		"https://user:pw@Shop.Example.CO.UK:8443/x?y#z",
		"//cdn.example.org/a.js",
		"mailto:a@b.com", "/relative", "#frag", "?q", "a..b.com", "x.", "localhost",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		ep, ok := Endpoint(raw)
		if !ok {
			if ep != "" {
				t.Fatalf("Endpoint(%q) rejected but returned %q", raw, ep)
			}
			return
		}
		if strings.ContainsAny(ep, "/?#@: \t") {
			t.Fatalf("Endpoint(%q) = %q contains URL syntax or blanks", raw, ep)
		}
		if ep != strings.ToLower(ep) {
			t.Fatalf("Endpoint(%q) = %q is not lower case", raw, ep)
		}
		labels := strings.Split(ep, ".")
		if len(labels) < 2 {
			t.Fatalf("Endpoint(%q) = %q has fewer than two labels", raw, ep)
		}
		for _, l := range labels {
			if l == "" {
				t.Fatalf("Endpoint(%q) = %q has an empty label", raw, ep)
			}
		}
		if again, ok := Endpoint(ep); !ok || again != ep {
			t.Fatalf("Endpoint(%q) = %q, but Endpoint(%q) = %q, %v", raw, ep, ep, again, ok)
		}
	})
}

// FuzzOutboundEndpoints: the result lists, in first-seen order and
// once each, exactly the endpoints of the links other than the
// crawled domain itself. links is newline-separated.
func FuzzOutboundEndpoints(f *testing.F) {
	f.Add("http://a.com/x\nhttps://www.a.com/y\nhttp://b.org\n/rel\nmailto:c@d.com", "own.com")
	f.Add("http://OWN.com/page\nhttp://sub.own.com\nhttp://x.co.uk/", "Own.Com")
	f.Add("", "")
	f.Fuzz(func(t *testing.T, joined, own string) {
		links := strings.Split(joined, "\n")
		got := OutboundEndpoints(links, own)
		var want []string
		seen := map[string]bool{}
		for _, l := range links {
			if ep, ok := Endpoint(l); ok && ep != strings.ToLower(own) && !seen[ep] {
				seen[ep] = true
				want = append(want, ep)
			}
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") || len(got) != len(want) {
			t.Fatalf("OutboundEndpoints = %q, want %q", got, want)
		}
	})
}

// FuzzLiveGraphFold decodes its input into a sequence of folds over a
// small name space (each line "source endpoint…"; the first two bytes
// set the node bound and the per-fold cap) and checks after every fold
// that an admitted domain is a source, even with no endpoints, that the
// node bound holds, that no source links to itself or repeats
// an endpoint, that the per-fold cap holds, that interning round-trips
// (every admitted name's id maps back to it, ids are dense), and that
// the edge count matches the stored lists. At the end, a Ranker over the
// graph must reproduce the offline construction.
func FuzzLiveGraphFold(f *testing.F) {
	f.Add([]byte("\x05\x03a b c\nb a a c\nd a\na\nb b\nc d e f g"))
	f.Add([]byte("\x02\x01x y z\ny x\nw x"))
	f.Add([]byte("\x00\x00p q\np q\np r q"))
	f.Add([]byte("\x05\x03lone\nx y\ny\ny y"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		maxNodes, maxOut := int(data[0]%16)+1, int(data[1]%8)+1
		lines := strings.Split(string(data[2:]), "\n")
		if len(lines) > 64 {
			lines = lines[:64]
		}
		g := NewLiveGraph(LiveConfig{MaxNodes: maxNodes, MaxOutPerDomain: maxOut})
		for _, line := range lines {
			fields := strings.Fields(line)
			if len(fields) == 0 {
				continue
			}
			admitted := g.Fold(fields[0], fields[1:])
			if admitted != g.Contains(fields[0]) {
				t.Fatalf("Fold(%q) reported admitted=%v, Contains=%v", fields[0], admitted, g.Contains(fields[0]))
			}
			if out, _ := g.SnapshotOutbound(); admitted && out[fields[0]] == nil {
				t.Fatalf("Fold(%q) admitted the domain but installed no source", fields[0])
			}
			checkLiveInvariants(t, g, maxNodes, maxOut)
		}
		base := map[string][]string{"a": {"b", "hub"}, "q": {"hub"}}
		seeds := map[string]float64{"a": 1, "x": 0.5}
		built, want := offlineScores(base, g, seeds, false, Config{})
		got := NewRanker(NewBase(base, seeds), g, false, Config{}).Rank()
		for id := 0; id < built.Len(); id++ {
			if s, ok := got.Score(built.Name(id)); !ok || math.Float64bits(s) != math.Float64bits(want[id]) {
				t.Fatalf("%s: ranked %v (known %v), offline %v", built.Name(id), s, ok, want[id])
			}
		}
	})
}

func checkLiveInvariants(t *testing.T, g *LiveGraph, maxNodes, maxOut int) {
	t.Helper()
	st := g.Stats()
	if st.Nodes > maxNodes {
		t.Fatalf("%d nodes past the bound of %d", st.Nodes, maxNodes)
	}
	v := g.view(liveView{})
	if len(v.names) != st.Nodes {
		t.Fatalf("%d interned names, %d nodes", len(v.names), st.Nodes)
	}
	for id, name := range v.names {
		if g.ID(name) != int32(id) {
			t.Fatalf("name %q interned as %d, looked up as %d", name, id, g.ID(name))
		}
	}
	edges := 0
	for i, src := range v.sources {
		if i > 0 && v.names[v.sources[i-1]] >= v.names[src] {
			t.Fatalf("sources out of name order at %q", v.names[src])
		}
		if len(v.out[i]) > maxOut {
			t.Fatalf("%q keeps %d endpoints past the cap of %d", v.names[src], len(v.out[i]), maxOut)
		}
		seen := map[int32]bool{}
		for _, ep := range v.out[i] {
			if ep == src {
				t.Fatalf("%q links to itself", v.names[src])
			}
			if seen[ep] {
				t.Fatalf("%q repeats endpoint %q", v.names[src], v.names[ep])
			}
			seen[ep] = true
		}
		edges += len(v.out[i])
	}
	if edges != st.Edges {
		t.Fatalf("stats count %d edges, lists hold %d", st.Edges, edges)
	}
}

// FuzzRankKernel decodes its input into a small graph and ranks it
// with the lane kernel against the scatter reference, bit for bit: the
// first byte sets the node count (1–64) and the second the damping (0
// selects the default); every following byte pair (a, b) is a seed of
// weight 1+b/255 on node a when a's top bit is set, else an edge from
// node a to node b (self links and repeats included).
func FuzzRankKernel(f *testing.F) {
	f.Add([]byte("\x07\x00\x00\x01\x01\x02\x02\x00\x80\x10"))
	f.Add([]byte("\x05\x32\x00\x00\x01\x01\x01\x01"))
	f.Add([]byte("\x01\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0]%64) + 1
		cfg := Config{Damping: float64(data[1]%100) / 100}
		g := NewGraph()
		for i := 0; i < n; i++ {
			g.Node("n" + itoa(i))
		}
		seeds := map[string]float64{}
		for p := data[2:]; len(p) >= 2; p = p[2:] {
			a, b := int(p[0]&0x7f)%n, int(p[1])%n
			if p[0]&0x80 != 0 {
				seeds[g.Name(a)] = 1 + float64(p[1])/255
			} else {
				g.AddEdge(g.Name(a), g.Name(b))
			}
		}
		want, got := referenceTrustRank(g, seeds, cfg), TrustRank(g, seeds, cfg)
		if i, ok := bitsEqual(want, got); !ok {
			t.Fatalf("TrustRank node %d = %x, reference %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
		// The same kernel on two workers, with its pad slot checked.
		bias := make([]float64, n)
		for id := range bias {
			bias[id] = seeds[g.Name(id)]
		}
		trustBias(bias)
		var c csr
		c.transpose(g.out)
		var bufs rankBufs
		got = rankCSRWorkers(&c, bias, cfg.withDefaults(), 2, &bufs)
		if i, ok := bitsEqual(biasedRankSerial(g, bias, cfg), got); !ok {
			t.Fatalf("two-worker kernel diverges at node %d", i)
		}
		if math.Float64bits(bufs.share[n]) != 0 || math.Float64bits(bufs.nextShare[n]) != 0 {
			t.Fatalf("pad slot shares %v, %v, want +0", bufs.share[n], bufs.nextShare[n])
		}
	})
}
