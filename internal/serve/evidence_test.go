package serve

import (
	"context"
	"errors"
	"strings"
	"testing"

	"pharmaverify/internal/dataset"
)

func TestParseRegistry(t *testing.T) {
	reg, err := ParseRegistry(strings.NewReader(`
# seed registry
Pharmacy-One.example  legitimate
rogue.example         illegitimate

shop.example          legit
scam.example          ILLEGIT
`))
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 4 {
		t.Fatalf("parsed %d domains, want 4", reg.Len())
	}
	for domain, want := range map[string]bool{
		"pharmacy-one.example": true, // keys are lowercased
		"rogue.example":        false,
		"shop.example":         true,
		"scam.example":         false,
	} {
		legit, known, err := reg.Lookup(context.Background(), domain)
		if err != nil || !known || legit != want {
			t.Errorf("Lookup(%s) = (%v, %v, %v), want (%v, true, nil)", domain, legit, known, err, want)
		}
	}
	if _, known, _ := reg.Lookup(context.Background(), "unknown.example"); known {
		t.Error("unknown domain reported as known")
	}
}

func TestParseRegistryRejectsMalformedLines(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"three fields", "a.example legitimate extra"},
		{"one field", "a.example"},
		{"bad status", "a.example dubious"},
	} {
		if _, err := ParseRegistry(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: ParseRegistry accepted %q", tc.name, tc.in)
		}
	}
}

// TestRegistryKeysLikeRequests: a registry entry must match the
// normalized domain a verify request is looked up under, whatever
// scheme, www., port, path or case the registry file wrote it with.
func TestRegistryKeysLikeRequests(t *testing.T) {
	reg, err := ParseRegistry(strings.NewReader(`
www.Pharmacy.example:443        legitimate
https://rogue.example/checkout  illegitimate
`))
	if err != nil {
		t.Fatal(err)
	}
	static := NewStaticRegistry(map[string]bool{"HTTP://WWW.Shop.example/": true})
	for _, tc := range []struct {
		reg     *StaticRegistry
		request string
		want    bool
	}{
		{reg, "pharmacy.example", true},
		{reg, "https://www.pharmacy.example/", true},
		{reg, "rogue.example:8443", false},
		{static, "shop.example", true},
	} {
		legit, known, err := tc.reg.Lookup(context.Background(), normalizeDomain(tc.request))
		if err != nil || !known || legit != tc.want {
			t.Errorf("Lookup(%s) = (%v, %v, %v), want (%v, true, nil)", tc.request, legit, known, err, tc.want)
		}
	}
	if reg.Len() != 2 || static.Len() != 1 {
		t.Errorf("Len = %d and %d, want 2 and 1", reg.Len(), static.Len())
	}
}

// TestParseRegistryLastLineWins: a registry file is ordered, so where
// lines name one normalized domain the last one decides, and a
// correction appended to the file takes effect.
func TestParseRegistryLastLineWins(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want bool
	}{
		{"a.example legitimate\nwww.a.example illegitimate", false},
		{"a.example illegitimate\nA.example:443 legitimate", true},
		{"a.example illegitimate\nb.example legitimate\nhttps://a.example/ legit", true},
	} {
		reg, err := ParseRegistry(strings.NewReader(tc.in))
		if err != nil {
			t.Fatal(err)
		}
		if legit, known, _ := reg.Lookup(context.Background(), "a.example"); !known || legit != tc.want {
			t.Errorf("%q: a.example (legitimate=%v, known=%v), want legitimate=%v", tc.in, legit, known, tc.want)
		}
	}
}

// TestStaticRegistryConflictIsIllegitimate: a map has no order, so
// keys that normalize to one domain with different verdicts leave it
// illegitimate, whatever order the map iterates in.
func TestStaticRegistryConflictIsIllegitimate(t *testing.T) {
	for i := 0; i < 20; i++ {
		reg := NewStaticRegistry(map[string]bool{"a.example": true, "WWW.a.example": false, "b.example": true})
		if legit, _, _ := reg.Lookup(context.Background(), "a.example"); legit {
			t.Fatal("NewStaticRegistry let a legitimate alias override an illegitimate one")
		}
	}
}

// FuzzParseRegistry: a registry file is operator input, but it may be
// assembled from third-party lists. ParseRegistry must not panic; a
// rejection is an error with no table, never a partial table; and
// every accepted line's domain is found under its normalized name,
// with the verdict of the last line that names it.
func FuzzParseRegistry(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		reg, err := ParseRegistry(strings.NewReader(in))
		if err != nil {
			if reg != nil {
				t.Fatalf("ParseRegistry returned a table with the error %v", err)
			}
			return
		}
		want := map[string]bool{}
		for _, line := range strings.Split(in, "\n") {
			fields := strings.Fields(line)
			if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
				continue
			}
			d := normalizeDomain(fields[0])
			want[d] = strings.HasPrefix(strings.ToLower(fields[1]), "legit")
		}
		if reg.Len() != len(want) {
			t.Fatalf("registry holds %d domains, the accepted lines name %d", reg.Len(), len(want))
		}
		for d, w := range want {
			if legit, known, _ := reg.Lookup(context.Background(), d); !known || legit != w {
				t.Fatalf("Lookup(%q) = (%v, %v), want (%v, true)", d, legit, known, w)
			}
		}
	})
}

func TestRegistrySourceSemantics(t *testing.T) {
	p := dataset.Pharmacy{Domain: "a.example"}

	// No registry configured: the source is a permanent abstainer.
	if _, err := (registrySource{}).Assess(context.Background(), nil, p); !errors.Is(err, errNoEvidence) {
		t.Errorf("nil lookup: err = %v, want errNoEvidence", err)
	}

	src := registrySource{lookup: NewStaticRegistry(map[string]bool{
		"a.example": true,
		"b.example": false,
	})}
	ev, err := src.Assess(context.Background(), nil, p)
	if err != nil || ev.Prob != 1 {
		t.Errorf("registered-legitimate: (%+v, %v), want Prob=1", ev, err)
	}
	if ev.HasTrustScore {
		t.Error("registry evidence claims a trust score")
	}
	ev, err = src.Assess(context.Background(), nil, dataset.Pharmacy{Domain: "b.example"})
	if err != nil || ev.Prob != 0 {
		t.Errorf("registered-illegitimate: (%+v, %v), want Prob=0", ev, err)
	}
	if _, err = src.Assess(context.Background(), nil, dataset.Pharmacy{Domain: "c.example"}); !errors.Is(err, errNoEvidence) {
		t.Errorf("unregistered domain: err = %v, want errNoEvidence", err)
	}
}

// failingLookup simulates a registry backend outage.
type failingLookup struct{}

func (failingLookup) Lookup(context.Context, string) (bool, bool, error) {
	return false, false, errors.New("registry unreachable")
}

func TestRegistrySourceSurfacesLookupErrors(t *testing.T) {
	src := registrySource{lookup: failingLookup{}}
	_, err := src.Assess(context.Background(), nil, dataset.Pharmacy{Domain: "a.example"})
	if err == nil || errors.Is(err, errNoEvidence) {
		t.Fatalf("lookup failure reported as %v, want a real error (fusion degrades, metrics count it)", err)
	}
}
