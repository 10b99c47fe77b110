package crawler

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// HTTPFetcher fetches pages over live HTTP, for running the pipeline
// against the real web. Experiments in this repository use the
// synthetic webgen.World instead; this type exists so the crawler is a
// drop-in crawler4j replacement outside the simulation.
type HTTPFetcher struct {
	// Client is the HTTP client to use (default: 10 s timeout, and
	// redirects followed only within the requested host or its www
	// alias). A supplied Client keeps its own redirect policy.
	Client *http.Client
	// Scheme is "http" or "https" (default "http", matching the
	// paper-era crawls).
	Scheme string
	// MaxBodyBytes caps each response body (default 1 MiB).
	MaxBodyBytes int64
	// UserAgent is sent with every request.
	UserAgent string
}

// Fetch implements Fetcher.
func (h *HTTPFetcher) Fetch(domain, path string) (string, error) {
	return h.FetchCtx(context.Background(), domain, path)
}

// FetchCtx implements CtxFetcher: the request carries ctx, so a
// cancelled crawl aborts the connection instead of waiting out the
// client timeout.
func (h *HTTPFetcher) FetchCtx(ctx context.Context, domain, path string) (string, error) {
	client := h.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second, CheckRedirect: sameHostRedirect}
	}
	scheme := h.Scheme
	if scheme == "" {
		scheme = "http"
	}
	maxBody := h.MaxBodyBytes
	if maxBody == 0 {
		maxBody = 1 << 20
	}
	if !strings.HasPrefix(path, "/") {
		path = "/" + path
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, scheme+"://"+domain+path, nil)
	if err != nil {
		return "", fmt.Errorf("crawler: build request: %w", err)
	}
	if h.UserAgent != "" {
		req.Header.Set("User-Agent", h.UserAgent)
	}
	resp, err := client.Do(req)
	if err != nil {
		// Network-level failures (DNS, refused, timeouts) are left
		// unmarked, i.e. transient: the crawler retries them under its
		// Retry budget. A refused cross-host redirect stays Permanent
		// through the wrapping.
		return "", fmt.Errorf("crawler: fetch %s%s: %w", domain, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("crawler: fetch %s%s: status %d", domain, path, resp.StatusCode)
		// Client errors are final — the page will not appear on retry —
		// except 429 (rate limited), which backoff is made for. Server
		// errors (5xx) stay transient.
		if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
			return "", Permanent(err)
		}
		return "", err
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return "", fmt.Errorf("crawler: read %s%s: %w", domain, path, err)
	}
	return string(body), nil
}

var _ CtxFetcher = (*HTTPFetcher)(nil)

// sameHostRedirect is the default client's redirect policy. A redirect
// stays on the site when its host, "www." aside, equals the requested
// host; anything else is refused with a Permanent error, so a page
// served from a foreign host is never credited to the crawled domain
// (the redirect-chain evasion of illicit pharmacy networks). Like
// net/http's default policy it stops after 10 redirects.
func sameHostRedirect(req *http.Request, via []*http.Request) error {
	if len(via) >= 10 {
		return errors.New("crawler: stopped after 10 redirects")
	}
	site := func(u *url.URL) string { return strings.TrimPrefix(strings.ToLower(u.Host), "www.") }
	if from := via[0].URL; site(req.URL) != site(from) {
		return Permanent(fmt.Errorf("crawler: refused cross-host redirect from %s to %s", from.Host, req.URL.Host))
	}
	return nil
}
