package kb

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"
)

// Wire types of the HTTP+JSON surface. Lookup responses always answer 200
// with an explicit Found flag (rather than 404 on miss) so the client can
// distinguish "the server said no" from transport failures, which are
// errors, not misses.
type lookupResponse struct {
	Found  bool    `json:"found"`
	Record *Record `json:"record,omitempty"`
}

type recordResponse struct {
	Applied int `json:"applied"`
	Total   int `json:"total"`
}

type batchRequest struct {
	Records []Record `json:"records"`
}

// HandlerOptions configures the HTTP surface; it has no settings left.
type HandlerOptions struct{}

// serveTimeout bounds each request end to end. Listen applies it as the
// http.Server's Read/WriteTimeout — per-connection deadline enforcement in
// the kernel — rather than wrapping every request in an http.TimeoutHandler
// goroutine, which would cost more than the handlers themselves (all O(1)
// map operations).
const serveTimeout = 5 * time.Second

// NewHandler serves a Store over the kb wire protocol:
//
//	GET  /v1/lookup?key=K&env=E  -> {"found":bool, "record":{...}}
//	POST /v1/record   {record}   -> {"applied":0|1, "total":1}
//	POST /v1/batch    {"records":[...]} -> {"applied":n, "total":m}
func NewHandler(st *Store, opts HandlerOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/lookup", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		key := q.Get("key")
		if key == "" {
			httpError(w, http.StatusBadRequest, "missing key parameter")
			return
		}
		rec, ok := st.Lookup(key, q.Get("env"))
		resp := lookupResponse{Found: ok}
		if ok {
			resp.Record = &rec
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("POST /v1/record", func(w http.ResponseWriter, r *http.Request) {
		var rec Record
		if err := decodeBody(r, &rec); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if rec.Key == "" || rec.Winner == "" {
			httpError(w, http.StatusBadRequest, "record needs key and winner")
			return
		}
		applied := 0
		if st.Put(rec) {
			applied = 1
		}
		writeJSON(w, recordResponse{Applied: applied, Total: 1})
	})
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		var b batchRequest
		if err := decodeBody(r, &b); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		for _, rec := range b.Records {
			if rec.Key == "" || rec.Winner == "" {
				httpError(w, http.StatusBadRequest, "every record needs key and winner")
				return
			}
		}
		writeJSON(w, recordResponse{Applied: st.PutBatch(b.Records), Total: len(b.Records)})
	})
	return mux
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// Server couples a Store with a listening HTTP server on a real socket, so
// the benchmark exercises the stack a remote client would see.
type Server struct {
	Store *Store
	Addr  string // actual listen address (resolves :0)
	srv   *http.Server
	lis   net.Listener
	done  chan error
}

// Listen binds addr (host:0 picks a free port) and prepares the server;
// call Serve to start handling and Shutdown to stop gracefully.
func Listen(addr string, st *Store, opts HandlerOptions) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("kb: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           NewHandler(st, opts),
		ReadTimeout:       serveTimeout,
		WriteTimeout:      serveTimeout,
		ReadHeaderTimeout: serveTimeout,
		IdleTimeout:       60 * time.Second,
	}
	return &Server{Store: st, Addr: lis.Addr().String(), srv: srv, lis: lis, done: make(chan error, 1)}, nil
}

// Serve starts handling requests in a background goroutine.
func (s *Server) Serve() {
	go func() {
		err := s.srv.Serve(s.lis)
		if err == http.ErrServerClosed {
			err = nil
		}
		s.done <- err
	}()
}

// Shutdown drains in-flight requests (bounded by timeout), stops the
// listener, and flushes the store's snapshot.
func (s *Server) Shutdown(timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serveErr := <-s.done; err == nil {
		err = serveErr
	}
	if flushErr := s.Store.Flush(false); err == nil {
		err = flushErr
	}
	return err
}
