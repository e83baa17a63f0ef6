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

// Fallback is a local source of tuning records the Client consults when the
// daemon is unreachable after retries, so tuning keeps working offline.
// *Store implements it; internal/core adapts its History to it.
type Fallback interface {
	Lookup(key, env string) (Record, bool)
	Put(Record) bool
}

// ClientOptions configures a Client.
type ClientOptions struct {
	// Retries is the number of attempts per request (network error or 5xx
	// retries after backoff); 0 means 3.
	Retries int
	// Backoff is the delay before the second attempt, doubling per retry;
	// 0 means 50ms.
	Backoff time.Duration
	// RequestTimeout bounds a single HTTP attempt; 0 means 2s.
	RequestTimeout time.Duration
	// NegativeTTL is how long a daemon-confirmed miss is cached before the
	// daemon is asked again (another tuner may have recorded the scenario
	// meanwhile); 0 means 30s.
	NegativeTTL time.Duration
	// BatchSize is the pending-record threshold that triggers an async
	// upload; 0 means 32. Flush drains whatever is pending.
	BatchSize int
	// Fallback, when non-nil, serves lookups and absorbs records whenever
	// the daemon is down.
	Fallback Fallback
}

// Client talks to a tuned daemon with a read-through in-memory cache:
// positive lookups are cached forever (a better winner arriving later is
// an acceptable staleness for one process lifetime — exactly the warm
// local-history semantics), daemon-confirmed misses are cached for
// NegativeTTL, and records are written through the cache and uploaded
// asynchronously in coalesced batches. All methods are safe for concurrent
// use.
type Client struct {
	base string
	hc   *http.Client
	opts ClientOptions

	mu    sync.RWMutex
	cache map[string]Record
	neg   map[string]time.Time

	pmu     sync.Mutex
	pending []Record
	upload  sync.WaitGroup

	now func() time.Time // injectable clock for negative-TTL tests

	fellBack  bool
	statsMu   sync.Mutex
	netErrors int
}

// NewClient builds a client for a daemon address ("host:port" or a full
// http:// URL).
func NewClient(addr string, opts ClientOptions) *Client {
	if opts.Retries <= 0 {
		opts.Retries = 3
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 50 * time.Millisecond
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 2 * time.Second
	}
	if opts.NegativeTTL <= 0 {
		opts.NegativeTTL = 30 * time.Second
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 32
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{
		base:  strings.TrimRight(addr, "/"),
		hc:    &http.Client{Timeout: opts.RequestTimeout},
		opts:  opts,
		cache: make(map[string]Record),
		neg:   make(map[string]time.Time),
		now:   time.Now,
	}
}

// SetFallback installs (or replaces) the local fallback source. Call it
// before issuing traffic; it is not synchronized against in-flight
// requests.
func (c *Client) SetFallback(f Fallback) {
	c.opts.Fallback = f
}

// Lookup returns the known winner for a (scenario key, env) pair. The
// returned error is non-nil only when the daemon is unreachable and no
// fallback is configured; with a fallback, daemon failures degrade to
// local lookups silently (FellBack reports that it happened).
func (c *Client) Lookup(key, env string) (Record, bool, error) {
	ck := CombinedKey(key, env)
	c.mu.RLock()
	if r, ok := c.cache[ck]; ok {
		c.mu.RUnlock()
		return r, true, nil
	}
	if exp, ok := c.neg[ck]; ok && c.now().Before(exp) {
		c.mu.RUnlock()
		return Record{}, false, nil
	}
	c.mu.RUnlock()

	q := url.Values{"key": {key}}
	if env != "" {
		q.Set("env", env)
	}
	var resp lookupResponse
	err := c.do("GET", "/v1/lookup?"+q.Encode(), nil, &resp)
	if err != nil {
		if c.opts.Fallback != nil {
			c.noteFellBack()
			r, ok := c.opts.Fallback.Lookup(key, env)
			return r, ok, nil
		}
		return Record{}, false, err
	}
	c.mu.Lock()
	if resp.Found {
		c.cache[ck] = *resp.Record
		delete(c.neg, ck)
	} else {
		c.neg[ck] = c.now().Add(c.opts.NegativeTTL)
	}
	c.mu.Unlock()
	if resp.Found {
		return *resp.Record, true, nil
	}
	return Record{}, false, nil
}

// Record queues a tuning decision for upload, writing it through the local
// cache immediately. Uploads happen asynchronously once BatchSize records
// are pending (coalescing a sweep's worth of winners into few requests);
// call Flush to drain the rest and learn about failures.
func (c *Client) Record(r Record) {
	c.mu.Lock()
	c.cache[CombinedKey(r.Key, r.Env)] = r
	delete(c.neg, CombinedKey(r.Key, r.Env))
	c.mu.Unlock()

	c.pmu.Lock()
	c.pending = append(c.pending, r)
	var batch []Record
	if len(c.pending) >= c.opts.BatchSize {
		batch = c.pending
		c.pending = nil
	}
	c.pmu.Unlock()
	if batch != nil {
		c.upload.Add(1)
		go func() {
			defer c.upload.Done()
			c.sendBatch(batch)
		}()
	}
}

// RecordBatch queues many records at once (cmd/sweep shares a whole
// sweep's winners this way).
func (c *Client) RecordBatch(rs []Record) {
	for _, r := range rs {
		c.Record(r)
	}
}

// Flush waits for in-flight uploads and synchronously sends any pending
// records. It returns the first upload error only when no fallback is
// configured; with a fallback, failed batches are absorbed locally.
func (c *Client) Flush() error {
	c.upload.Wait()
	c.pmu.Lock()
	batch := c.pending
	c.pending = nil
	c.pmu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	return c.sendBatch(batch)
}

func (c *Client) sendBatch(rs []Record) error {
	var resp recordResponse
	err := c.do("POST", "/v1/batch", batchRequest{Records: rs}, &resp)
	if err != nil {
		if c.opts.Fallback != nil {
			c.noteFellBack()
			for _, r := range rs {
				c.opts.Fallback.Put(r)
			}
			return nil
		}
		return err
	}
	return nil
}

// FellBack reports whether any operation degraded to the local fallback.
func (c *Client) FellBack() bool {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.fellBack
}

func (c *Client) noteFellBack() {
	c.statsMu.Lock()
	c.fellBack = true
	c.statsMu.Unlock()
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
	delay := c.opts.Backoff
	for attempt := 0; attempt < c.opts.Retries; attempt++ {
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
			c.statsMu.Lock()
			c.netErrors++
			c.statsMu.Unlock()
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
	return fmt.Errorf("kb: daemon unreachable after %d attempts: %w", c.opts.Retries, lastErr)
}
