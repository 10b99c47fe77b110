package trust

import (
	"slices"
	"sort"
	"sync"
)

// LiveConfig bounds an incrementally maintained link graph.
type LiveConfig struct {
	// MaxNodes bounds the distinct domain names (sources and endpoints)
	// the graph admits (default 100 000). Once the bound is reached, new
	// names are dropped and counted in LiveStats.DroppedNames; edges
	// between already-admitted names are still recorded, so a saturated
	// graph keeps refining what it already knows instead of growing.
	MaxNodes int
	// MaxOutPerDomain caps the endpoints kept per fold (default 200); a
	// link farm spraying thousands of outbound domains cannot flood the
	// node budget from one crawl.
	MaxOutPerDomain int
}

func (c LiveConfig) withDefaults() LiveConfig {
	if c.MaxNodes <= 0 {
		c.MaxNodes = 100_000
	}
	if c.MaxOutPerDomain <= 0 {
		c.MaxOutPerDomain = 200
	}
	return c
}

// LiveStats is a point-in-time snapshot of a LiveGraph's accounting.
type LiveStats struct {
	// Nodes and Edges describe the current live graph.
	Nodes, Edges int
	// Folds counts Fold calls; Version counts the folds that actually
	// changed the edge set (re-observing identical endpoints is free).
	Folds, Version uint64
	// DroppedNames counts names rejected by the MaxNodes bound;
	// DroppedEndpoints counts endpoints cut by MaxOutPerDomain.
	DroppedNames, DroppedEndpoints uint64
}

// LiveGraph is a bounded, mutex-protected link graph maintained
// incrementally from serving crawls: every on-demand crawl folds its
// outbound endpoints in, and consumers snapshot the accumulated
// structure to recompute TrustRank without rebuilding per request. It
// is safe for concurrent use.
//
// Names are interned to dense ids as they are admitted (ids never
// change and are never reused; names are never evicted), and adjacency
// is stored at id level: a re-crawled domain replaces its endpoint-id
// list in place. Fold never mutates a previously installed list, and
// the id → name table only grows, so a view can share both with the
// graph and stay valid while folds continue.
type LiveGraph struct {
	cfg LiveConfig

	mu    sync.Mutex
	ids   map[string]int32
	names []string
	// out[id] is the endpoint list of a folded source, nil for a name
	// never installed as a source (an installed source with no endpoints
	// holds an empty, non-nil list).
	out [][]int32
	// sources lists the installed sources' ids in ascending name order:
	// the order BuildGraph visits its keys in.
	sources []int32
	// mark and stamp dedupe one fold's endpoints without a per-fold map.
	mark  []uint64
	stamp uint64
	edges int
	stats LiveStats
}

// NewLiveGraph returns an empty bounded live graph.
func NewLiveGraph(cfg LiveConfig) *LiveGraph {
	return &LiveGraph{cfg: cfg.withDefaults(), ids: make(map[string]int32)}
}

// admit interns a name within the node budget, returning its id, or -1
// when the budget is exhausted and the name was never seen. Callers
// hold l.mu.
func (l *LiveGraph) admit(name string) int32 {
	if id, ok := l.ids[name]; ok {
		return id
	}
	if len(l.names) >= l.cfg.MaxNodes {
		l.stats.DroppedNames++
		return -1
	}
	id := int32(len(l.names))
	l.ids[name] = id
	l.names = append(l.names, name)
	l.out = append(l.out, nil)
	l.mark = append(l.mark, 0)
	return id
}

// Fold records a crawl observation: domain links to endpoints. A
// repeated fold replaces the domain's previous endpoint set (the
// freshest crawl wins). It reports whether the domain itself was
// admitted into the graph — false only when the node budget is
// exhausted and the domain was never seen before, in which case the
// caller should degrade to its other evidence sources.
func (l *LiveGraph) Fold(domain string, endpoints []string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.Folds++
	src := l.admit(domain)
	if src < 0 {
		return false
	}
	l.stamp++
	kept := make([]int32, 0, min(len(endpoints), l.cfg.MaxOutPerDomain))
	for _, ep := range endpoints {
		if ep == domain {
			continue
		}
		if id, ok := l.ids[ep]; ok && l.mark[id] == l.stamp {
			continue // repeat
		}
		if len(kept) >= l.cfg.MaxOutPerDomain {
			l.stats.DroppedEndpoints++
			continue
		}
		id := l.admit(ep)
		if id < 0 {
			continue
		}
		l.mark[id] = l.stamp
		kept = append(kept, id)
	}
	// kept is never nil, so a first fold with no endpoints still installs
	// the domain as a source (a node, as BuildGraph makes every key one).
	prev := l.out[src]
	if prev != nil && slices.Equal(prev, kept) {
		return true
	}
	if prev == nil {
		l.insertSource(src)
	}
	l.edges += len(kept) - len(prev)
	l.out[src] = kept
	l.stats.Version++
	return true
}

// insertSource adds a newly installed source to the name-ordered
// source list. Callers hold l.mu.
func (l *LiveGraph) insertSource(id int32) {
	name := l.names[id]
	i := sort.Search(len(l.sources), func(i int) bool { return l.names[l.sources[i]] >= name })
	l.sources = slices.Insert(l.sources, i, id)
}

// Contains reports whether name has been admitted (as a source or an
// endpoint).
func (l *LiveGraph) Contains(name string) bool {
	return l.ID(name) >= 0
}

// ID returns the interned id of an admitted name, or -1.
func (l *LiveGraph) ID(name string) int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if id, ok := l.ids[name]; ok {
		return id
	}
	return -1
}

// Version returns the number of graph-changing folds so far; consumers
// compare it with the version captured at their last recompute to
// measure dirtiness.
func (l *LiveGraph) Version() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats.Version
}

// Stats returns a copy of the graph's accounting.
func (l *LiveGraph) Stats() LiveStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Nodes = len(l.names)
	st.Edges = l.edges
	return st
}

// liveView is a consistent id-level snapshot of a LiveGraph: the id →
// name table, the installed sources in ascending name order with their
// endpoint-id lists, and the version they correspond to. The table and
// the lists are shared with the graph, which only ever appends to the
// one and replaces the others.
type liveView struct {
	names   []string
	sources []int32
	out     [][]int32 // aligned with sources
	version uint64
}

// view snapshots the graph for a recompute, reusing buf's slices.
func (l *LiveGraph) view(buf liveView) liveView {
	l.mu.Lock()
	defer l.mu.Unlock()
	buf.names = l.names[:len(l.names):len(l.names)]
	buf.sources = append(buf.sources[:0], l.sources...)
	buf.out = buf.out[:0]
	for _, id := range l.sources {
		buf.out = append(buf.out, l.out[id])
	}
	buf.version = l.stats.Version
	return buf
}

// SnapshotOutbound returns the adjacency as domain → endpoint names
// (a fresh map and fresh slices) plus the version it corresponds to —
// the input BuildGraph takes.
func (l *LiveGraph) SnapshotOutbound() (map[string][]string, uint64) {
	v := l.view(liveView{})
	cp := make(map[string][]string, len(v.sources))
	for i, id := range v.sources {
		eps := make([]string, len(v.out[i]))
		for j, ep := range v.out[i] {
			eps[j] = v.names[ep]
		}
		cp[v.names[id]] = eps
	}
	return cp, v.version
}
