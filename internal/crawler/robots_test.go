package crawler

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestParseRobotsBasic(t *testing.T) {
	r := ParseRobots(`
User-agent: *
Disallow: /admin
Disallow: /private/

User-agent: pharmaverify
Disallow: /checkout
Allow: /checkout/info
`)
	cases := []struct {
		ua, path string
		want     bool
	}{
		{"pharmaverify", "/", true},
		{"pharmaverify", "/checkout", false},
		{"pharmaverify", "/checkout/cart", false},
		{"pharmaverify", "/checkout/info", true}, // longer Allow wins
		{"pharmaverify", "/admin", true},         // specific group overrides *
		{"otherbot", "/admin", false},
		{"otherbot", "/admin/x", false},
		{"otherbot", "/public", true},
	}
	for _, c := range cases {
		if got := r.Allowed(c.ua, c.path); got != c.want {
			t.Errorf("Allowed(%q,%q) = %v, want %v", c.ua, c.path, got, c.want)
		}
	}
}

func TestParseRobotsComments(t *testing.T) {
	r := ParseRobots("User-agent: * # everyone\nDisallow: /x # no x\n")
	if r.Allowed("bot", "/x") {
		t.Error("comment handling broke Disallow")
	}
	if !r.Allowed("bot", "/y") {
		t.Error("comment handling broke Allow-by-default")
	}
}

func TestParseRobotsEmptyDisallow(t *testing.T) {
	r := ParseRobots("User-agent: *\nDisallow:\n")
	if !r.Allowed("bot", "/anything") {
		t.Error("empty Disallow must allow everything")
	}
}

func TestParseRobotsSharedAgentGroup(t *testing.T) {
	r := ParseRobots("User-agent: a\nUser-agent: b\nDisallow: /x\n")
	if r.Allowed("a", "/x") || r.Allowed("b", "/x") {
		t.Error("consecutive User-agent lines must share rules")
	}
}

func TestParseRobotsNilSafe(t *testing.T) {
	var r *Robots
	if !r.Allowed("any", "/path") {
		t.Error("nil Robots must allow all")
	}
}

func TestParseRobotsNoGroups(t *testing.T) {
	r := ParseRobots("# only comments\n")
	if !r.Allowed("bot", "/x") {
		t.Error("empty robots must allow all")
	}
}

func TestParseRobotsRulesBeforeAgent(t *testing.T) {
	r := ParseRobots("Disallow: /secret\n")
	if r.Allowed("bot", "/secret") {
		t.Error("headless rules must apply to all agents")
	}
}

func TestCrawlHonorsRobots(t *testing.T) {
	f := mapFetcher{
		"x.com|/robots.txt": "User-agent: *\nDisallow: /private\n",
		"x.com|/":           `<a href="/public">p</a><a href="/private">s</a><p>.</p>`,
		"x.com|/public":     `<p>open</p>`,
		"x.com|/private":    `<p>secret</p>`,
	}
	r := Crawl(f, "x.com", Config{})
	if len(r.Pages) != 2 {
		t.Fatalf("pages = %d, want 2 (robots must exclude /private)", len(r.Pages))
	}
	for _, p := range r.Pages {
		if p.Path == "/private" {
			t.Error("disallowed path crawled")
		}
	}
}

func TestCrawlRobotsFullBlock(t *testing.T) {
	f := mapFetcher{
		"x.com|/robots.txt": "User-agent: *\nDisallow: /\n",
		"x.com|/":           `<p>content</p>`,
	}
	r := Crawl(f, "x.com", Config{})
	if len(r.Pages) != 0 {
		t.Errorf("fully blocked site crawled %d pages", len(r.Pages))
	}
}

func TestCrawlIgnoreRobots(t *testing.T) {
	f := mapFetcher{
		"x.com|/robots.txt": "User-agent: *\nDisallow: /\n",
		"x.com|/":           `<p>content</p>`,
	}
	r := Crawl(f, "x.com", Config{IgnoreRobots: true})
	if len(r.Pages) != 1 {
		t.Errorf("IgnoreRobots crawl got %d pages", len(r.Pages))
	}
}

func TestCrawlMissingRobotsAllowsAll(t *testing.T) {
	f := FetcherFunc(func(domain, path string) (string, error) {
		if path == "/robots.txt" {
			return "", errors.New("404")
		}
		return `<p>fine</p>`, nil
	})
	r := Crawl(f, "x.com", Config{})
	if len(r.Pages) != 1 || r.Failed != 0 {
		t.Errorf("missing robots.txt must not count as failure: %+v", r)
	}
}

func TestCrawlSpecificAgentGroup(t *testing.T) {
	f := mapFetcher{
		"x.com|/robots.txt": "User-agent: pharmaverify\nDisallow: /only-us\nUser-agent: *\nDisallow: /\n",
		"x.com|/":           `<a href="/only-us">x</a><a href="/open">y</a><p>.</p>`,
		"x.com|/only-us":    `<p>no</p>`,
		"x.com|/open":       `<p>yes</p>`,
	}
	r := Crawl(f, "x.com", Config{UserAgent: "pharmaverify"})
	got := map[string]bool{}
	for _, p := range r.Pages {
		got[p.Path] = true
	}
	if got["/only-us"] {
		t.Error("agent-specific Disallow ignored")
	}
	if !got["/open"] {
		t.Error("agent-specific group must override the * full block")
	}
}

func TestCrawlPolitenessDelay(t *testing.T) {
	f := mapFetcher{
		"x.com|/":  `<a href="/a">a</a><p>.</p>`,
		"x.com|/a": `<p>a</p>`,
	}
	start := time.Now()
	r := Crawl(f, "x.com", Config{Delay: 30 * time.Millisecond, Workers: 1})
	if len(r.Pages) != 2 {
		t.Fatalf("pages = %d", len(r.Pages))
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Errorf("two delayed fetches took only %v", elapsed)
	}
}

// FuzzParseRobots feeds arbitrary robots.txt bodies, which the judged
// site writes, through ParseRobots and Allowed. Nothing may panic, and
// the same body with CRLF line endings must answer every query as with
// LF. The queries are the fuzzed agent and path plus every rule prefix
// of the parsed policy, so the matching rules are exercised.
func FuzzParseRobots(f *testing.F) {
	f.Fuzz(func(t *testing.T, body, agent, path string) {
		lf := ParseRobots(body)
		crlf := ParseRobots(strings.ReplaceAll(body, "\n", "\r\n"))
		paths := []string{path, "/"}
		agents := []string{agent, "pharmaverify", "*"}
		for _, g := range lf.groups {
			agents = append(agents, g.agents...)
			for _, r := range g.rules {
				paths = append(paths, r.prefix, r.prefix+"x")
			}
		}
		for _, a := range agents {
			for _, p := range paths {
				if got, want := crlf.Allowed(a, p), lf.Allowed(a, p); got != want {
					t.Fatalf("Allowed(%q, %q) = %v with CRLF, %v with LF, body %q", a, p, got, want, body)
				}
			}
		}
	})
}
