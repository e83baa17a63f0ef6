package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"nbctune/internal/core"
	"nbctune/internal/kb"
)

// kb-mixed request mix (cumulative shares): 70 % lookups of preloaded keys
// drawn Zipf (popular scenarios are looked up far more often), 15 % lookups
// of keys never stored, 10 % single records, 5 % batches of 16.
const (
	kbLookupHit  = 0.70
	kbLookupMiss = 0.85
	kbRecord     = 0.95
	kbBatchSize  = 16
	// kbSpanEvery samples request spans in a traced run: one request in 64
	// gets spans, so 600 000 requests do not become a 100 MB trace.
	kbSpanEvery = 64
)

var kbEnvs = []string{"", core.EnvFingerprint("torus3d", "", 0), core.EnvFingerprint("", "congested", 1)}

// kbKey is the i-th preloaded scenario: real HistoryKey/EnvFingerprint
// shapes, so key lengths and the combined-key encoding match production.
func kbKey(i int) (key, env string) {
	ops := []string{"ialltoall", "ibcast", "iallgather", "iallreduce"}
	return core.HistoryKey(ops[i%len(ops)], fmt.Sprintf("plat%03d", i%251), 1<<(1+i%12), i), kbEnvs[i%len(kbEnvs)]
}

// kbServer is a loopback daemon over a preloaded 64-shard store.
type kbServer struct {
	srv     *kb.Server
	base    string
	preload int
}

func startKB(preload int, seed int64) (*kbServer, error) {
	st := kb.NewStore(kb.StoreOptions{Shards: 64})
	rng := rand.New(rand.NewSource(seed + 7))
	for i := 0; i < preload; i++ {
		key, env := kbKey(i)
		st.Put(kb.Record{Key: key, Env: env, Winner: fmt.Sprintf("impl-%d", rng.Intn(21)), Score: 1e-4 + rng.Float64(), Evals: 42})
	}
	srv, err := kb.Listen("127.0.0.1:0", st, kb.HandlerOptions{})
	if err != nil {
		return nil, err
	}
	srv.Serve()
	return &kbServer{srv: srv, base: "http://" + srv.Addr, preload: preload}, nil
}

// kbClient is one closed-loop connection: it sends its next request only
// after the previous response was read and checked. Plain net/http with one
// keep-alive connection, no client-side cache: every request reaches the
// daemon.
type kbClient struct {
	id   int
	s    *kbServer
	hc   *http.Client
	rng  *rand.Rand
	zipf *rand.Zipf
	seq  int

	own     map[string]float64 // scenario keys only this client records -> best (lowest) score sent
	ownKeys []string           // the same keys, in first-recorded order

	sent   int
	failed int
	first  string // first failure, for the report

	lat map[string][]float64 // per request kind, microseconds; nil unless the probe asks
}

func newKBClient(s *kbServer, id int, seed int64) *kbClient {
	rng := rand.New(rand.NewSource(seed*1000 + int64(id) + 1))
	return &kbClient{
		id: id, s: s, rng: rng,
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}, Timeout: 10 * time.Second},
		zipf: rand.NewZipf(rng, 1.1, 1, uint64(s.preload-1)),
		own:  map[string]float64{},
	}
}

func (c *kbClient) fail(format string, args ...any) {
	c.failed++
	if c.first == "" {
		c.first = fmt.Sprintf("client %d request %d: ", c.id, c.sent) + fmt.Sprintf(format, args...)
	}
}

// roundTrip sends one request and returns the 2xx response body.
func (c *kbClient) roundTrip(method, path string, body any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.s.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

func (c *kbClient) lookup(key, env string, wantFound bool) {
	body, err := c.roundTrip("GET", "/v1/lookup?key="+url.QueryEscape(key)+"&env="+url.QueryEscape(env), nil)
	if err != nil {
		c.fail("%v", err)
		return
	}
	var resp struct {
		Found  bool       `json:"found"`
		Record *kb.Record `json:"record"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		c.fail("lookup %q: %v", key, err)
	} else if resp.Found != wantFound || (wantFound && (resp.Record == nil || resp.Record.Key != key || resp.Record.Winner == "")) {
		c.fail("lookup %q: found=%v, want %v with a matching record", key, resp.Found, wantFound)
	}
}

func (c *kbClient) post(path string, body any, wantTotal int) {
	out, err := c.roundTrip("POST", path, body)
	if err != nil {
		c.fail("%v", err)
		return
	}
	var resp struct {
		Applied int `json:"applied"`
		Total   int `json:"total"`
	}
	if err := json.Unmarshal(out, &resp); err != nil || resp.Total != wantTotal || resp.Applied > resp.Total {
		c.fail("%s: response %s, want total %d", path, bytes.TrimSpace(out), wantTotal)
	}
}

// remember tracks the best score this client sent for a key: with positive
// scores the store's LWW-by-score rule keeps exactly that one.
func (c *kbClient) remember(r kb.Record) {
	if old, ok := c.own[r.Key]; !ok {
		c.own[r.Key] = r.Score
		c.ownKeys = append(c.ownKeys, r.Key)
	} else if r.Score < old {
		c.own[r.Key] = r.Score
	}
}

func (c *kbClient) newRecord() kb.Record {
	c.seq++
	return kb.Record{
		Key:    core.HistoryKey("ibcast", fmt.Sprintf("client%d", c.id), 64, c.seq),
		Winner: fmt.Sprintf("impl-%d", c.rng.Intn(21)), Score: 1e-4 + c.rng.Float64(), Evals: 42,
	}
}

// do issues the next request of this client's stream and checks the answer.
func (c *kbClient) do(tr *tracer, parent, pass int) {
	c.sent++
	x := c.rng.Float64()
	kind := "lookup-hit"
	switch {
	case x >= kbRecord:
		kind = "batch"
	case x >= kbLookupMiss:
		kind = "record"
	case x >= kbLookupHit:
		kind = "lookup-miss"
	}
	id := -1
	if tr != nil && c.sent%kbSpanEvery == 0 {
		id = tr.begin(parent, "request:"+kind, pass)
		defer tr.end(id)
		call := tr.begin(id, "kb.http", pass) // span covers encode, round trip through the daemon, decode, check
		defer tr.end(call)
	}
	var t0 time.Time
	if c.lat != nil {
		t0 = time.Now()
	}
	switch kind {
	case "lookup-hit":
		key, env := kbKey(int(c.zipf.Uint64()))
		c.lookup(key, env, true)
	case "lookup-miss":
		c.seq++
		c.lookup(core.HistoryKey("absent", fmt.Sprintf("client%d", c.id), 2, c.seq), "", false)
	case "record":
		// Half new keys, half a second opinion on a key this client already
		// recorded — a better score replaces it, a worse one is an LWW reject.
		r := c.newRecord()
		if len(c.ownKeys) > 0 && c.rng.Intn(2) == 0 {
			r.Key = c.ownKeys[c.rng.Intn(len(c.ownKeys))]
		}
		c.remember(r)
		c.post("/v1/record", r, 1)
	case "batch":
		// A sweep re-sharing its winners: 16 neighbouring preloaded
		// scenarios with fresh scores, so the store does not grow and both
		// clients write keys the lookups read.
		rs := make([]kb.Record, kbBatchSize)
		at := int(c.zipf.Uint64())
		for i := range rs {
			rs[i] = c.newRecord()
			rs[i].Key, rs[i].Env = kbKey((at + i) % c.s.preload)
		}
		c.post("/v1/batch", map[string]any{"records": rs}, kbBatchSize)
	}
	if c.lat != nil {
		c.lat[kind] = append(c.lat[kind], float64(time.Since(t0).Nanoseconds())/1e3)
	}
}

// kbRun drives every client for perClient requests and waits for all.
func kbRun(clients []*kbClient, perClient int, tr *tracer, parent, pass int) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *kbClient) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				c.do(tr, parent, pass)
			}
		}(c)
	}
	wg.Wait()
}

// prepareKBMixed: an in-process daemon on a loopback port and cfg.clients
// closed-loop connections issuing a fixed request count in 10 equal passes.
// An op is a request.
func prepareKBMixed(cfg config) (*plan, error) {
	// 15 000 requests per budgeted second ≈ the daemon's closed-loop rate at
	// 2 connections and GOMAXPROCS 1 on the recording host; the warm-up is
	// a good second's worth.
	preload, passes, warmReqs, total := 50000, 10, 20000, 15000*cfg.seconds
	if cfg.tiny() {
		preload, passes, warmReqs, total = 2000, 2, 400, 2000
	}
	s, err := startKB(preload, cfg.seed)
	if err != nil {
		return nil, err
	}
	clients := make([]*kbClient, cfg.clients)
	for i := range clients {
		clients[i] = newKBClient(s, i, cfg.seed)
	}
	perClient := total / passes / len(clients)
	p := &plan{passes: passes, opsPerPass: perClient * len(clients)}
	p.close = func() {
		for _, c := range clients {
			c.hc.CloseIdleConnections()
		}
		if err := s.srv.Shutdown(5 * time.Second); err != nil {
			fmt.Println("# kb shutdown:", err)
		}
	}
	p.warm = func(tr *tracer, parent int) error {
		kbRun(clients, warmReqs/len(clients), tr, parent, -1)
		return nil
	}
	p.pass = func(i int, tr *tracer, parent int) error {
		kbRun(clients, perClient, tr, parent, i)
		return nil
	}
	p.check = func() {
		st := s.srv.Store
		newKeys := 0
		for _, c := range clients {
			if c.failed > 0 {
				p.fail(c.failed, "%s (%d of client %d's requests failed)", c.first, c.failed, c.id)
			}
			newKeys += len(c.own)
		}
		// Read-your-writes, checked against the store itself: every key a
		// client recorded is present with the best score that client sent.
		lost := 0
		for _, c := range clients {
			for key, score := range c.own {
				if got, ok := st.Lookup(key, ""); !ok || got.Score != score {
					lost++
				}
			}
		}
		if lost > 0 {
			p.fail(lost, "%d recorded keys missing from the store or holding a score other than the best one sent", lost)
		}
		if got, want := st.Len(), preload+newKeys; got != want {
			p.fail(1, "store holds %d records, want %d preloaded + %d new = %d", got, preload, newKeys, want)
		}
	}
	return p, nil
}
