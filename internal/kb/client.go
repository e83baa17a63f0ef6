package kb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// The client's request policy. Every command talks to the daemon a handful
// of times per process (one lookup, one batch), so nothing here is tunable.
const (
	attempts       = 3                     // per request: transport errors and 5xx retry
	backoff        = 50 * time.Millisecond // before the second attempt, doubling per retry
	requestTimeout = 2 * time.Second       // bound on a single HTTP attempt
)

// ClientOptions configures a Client.
type ClientOptions struct {
	// Fallback, when non-nil, serves lookups and absorbs records whenever
	// the daemon is unreachable after retries, so tuning keeps working
	// offline (cmd/tune passes the store behind its -history file).
	Fallback Source
}

// Client talks to a tuned daemon with a read-through in-memory cache:
// positive lookups are cached forever (a better winner arriving later is
// an acceptable staleness for one process lifetime — exactly the warm
// -history file's semantics), a miss is not cached (another tuner may have
// recorded the scenario meanwhile), and records are written through the
// cache and uploaded by Flush in one batch. All methods are safe for
// concurrent use.
type Client struct {
	base     string
	hc       *http.Client
	fallback Source

	mu       sync.RWMutex
	cache    map[string]Record
	pending  []Record
	fellBack bool
}

// NewClient builds a client for a daemon address ("host:port" or a full
// http:// URL).
func NewClient(addr string, opts ClientOptions) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{
		base:     strings.TrimRight(addr, "/"),
		hc:       &http.Client{Timeout: requestTimeout},
		fallback: opts.Fallback,
		cache:    make(map[string]Record),
	}
}

// Lookup returns the known winner for a (scenario key, env) pair. The
// returned error is non-nil only when the daemon is unreachable and no
// fallback is configured; with a fallback, daemon failures degrade to
// local lookups silently (FellBack reports that it happened).
func (c *Client) Lookup(key, env string) (Record, bool, error) {
	ck := CombinedKey(key, env)
	c.mu.RLock()
	r, ok := c.cache[ck]
	c.mu.RUnlock()
	if ok {
		return r, true, nil
	}

	q := url.Values{"key": {key}}
	if env != "" {
		q.Set("env", env)
	}
	var resp lookupResponse
	if err := c.do("GET", "/v1/lookup?"+q.Encode(), nil, &resp); err != nil {
		if c.fallback == nil {
			return Record{}, false, err
		}
		c.noteFellBack()
		r, ok := c.fallback.Lookup(key, env)
		return r, ok, nil
	}
	if !resp.Found {
		return Record{}, false, nil
	}
	c.mu.Lock()
	c.cache[ck] = *resp.Record
	c.mu.Unlock()
	return *resp.Record, true, nil
}

// Record queues tuning decisions for the next Flush, writing them through
// the local cache immediately.
func (c *Client) Record(rs ...Record) {
	c.mu.Lock()
	for _, r := range rs {
		c.cache[CombinedKey(r.Key, r.Env)] = r
	}
	c.pending = append(c.pending, rs...)
	c.mu.Unlock()
}

// Flush uploads every queued record in one /v1/batch request and returns
// how many the daemon took delivery of. When the upload fails, the batch
// goes to the fallback instead (0, nil; FellBack reports it); without a
// fallback the error is returned and the batch is dropped.
func (c *Client) Flush() (int, error) {
	c.mu.Lock()
	batch := c.pending
	c.pending = nil
	c.mu.Unlock()
	if len(batch) == 0 {
		return 0, nil
	}
	var resp recordResponse
	if err := c.do("POST", "/v1/batch", batchRequest{Records: batch}, &resp); err != nil {
		if c.fallback == nil {
			return 0, err
		}
		c.noteFellBack()
		for _, r := range batch {
			c.fallback.Put(r)
		}
		return 0, nil
	}
	return resp.Total, nil
}

// FellBack reports whether any operation degraded to the local fallback.
func (c *Client) FellBack() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.fellBack
}

func (c *Client) noteFellBack() {
	c.mu.Lock()
	c.fellBack = true
	c.mu.Unlock()
}

// do performs one request with bounded retry: transport errors and 5xx
// responses are retried with exponential backoff, 4xx responses are
// terminal (retrying a malformed request cannot help).
func (c *Client) do(method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return err
		}
	}
	var lastErr error
	delay := backoff
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(delay)
			delay *= 2
		}
		req, err := http.NewRequest(method, c.base+path, bytes.NewReader(payload))
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode >= 500 {
			lastErr = fmt.Errorf("kb: %s %s: %s", method, path, resp.Status)
			continue
		}
		if resp.StatusCode >= 400 {
			return fmt.Errorf("kb: %s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
		}
		if out != nil {
			if err := json.Unmarshal(data, out); err != nil {
				return fmt.Errorf("kb: %s %s: bad response: %w", method, path, err)
			}
		}
		return nil
	}
	return fmt.Errorf("kb: daemon unreachable after %d attempts: %w", attempts, lastErr)
}
