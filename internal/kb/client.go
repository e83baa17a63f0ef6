package kb

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// The client's request policy: nothing here is tunable.
const (
	attempts       = 3                     // per request: transport errors and 5xx retry
	backoff        = 50 * time.Millisecond // before the second attempt, doubling per retry
	requestTimeout = 2 * time.Second       // bound on a single HTTP attempt
)

// ClientOptions configures a Client; it has no settings left.
type ClientOptions struct{}

// Client looks winners up on a kb server with a read-through in-memory
// cache: positive lookups are cached forever (a better winner arriving later
// is an acceptable staleness for one process lifetime — exactly a warm
// -history file's semantics), a miss is not cached (another writer may have
// recorded the scenario meanwhile). Lookup is safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client

	mu    sync.RWMutex
	cache map[string]Record
}

// NewClient builds a client for a server address ("host:port" or a full
// http:// URL).
func NewClient(addr string, opts ClientOptions) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{
		base:  strings.TrimRight(addr, "/"),
		hc:    &http.Client{Timeout: requestTimeout},
		cache: make(map[string]Record),
	}
}

// Lookup returns the known winner for a (scenario key, env) pair; the error
// is non-nil when the server stays unreachable after retries.
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
	if err := c.get("/v1/lookup?"+q.Encode(), &resp); err != nil {
		return Record{}, false, err
	}
	if !resp.Found {
		return Record{}, false, nil
	}
	c.mu.Lock()
	c.cache[ck] = *resp.Record
	c.mu.Unlock()
	return *resp.Record, true, nil
}

// get performs one GET with bounded retry: transport errors and 5xx
// responses are retried with exponential backoff, 4xx responses are
// terminal (retrying a malformed request cannot help).
func (c *Client) get(path string, out any) error {
	var lastErr error
	delay := backoff
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(delay)
			delay *= 2
		}
		resp, err := c.hc.Get(c.base + path)
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
			lastErr = fmt.Errorf("kb: GET %s: %s", path, resp.Status)
			continue
		}
		if resp.StatusCode >= 400 {
			return fmt.Errorf("kb: GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(data)))
		}
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("kb: GET %s: bad response: %w", path, err)
		}
		return nil
	}
	return fmt.Errorf("kb: server unreachable after %d attempts: %w", attempts, lastErr)
}
