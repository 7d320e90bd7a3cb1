package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"macs"
	"macs/internal/obs"
)

// maxBodyBytes bounds request bodies; kernel sources are tiny, priming
// arrays are at most a few thousand floats.
const maxBodyBytes = 4 << 20

// maxPooledBody caps the body buffers kept for reuse, so one near-limit
// body does not pin maxBodyBytes in the pool.
const maxPooledBody = 1 << 20

// bodyBufs recycles the buffers request bodies are read into: every body
// is read whole before it is hashed or decoded, and a fresh buffer per
// request would allocate the body's size each time.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// NewHandler wires the service into an http.Handler:
//
//	POST /v1/analyze   full pipeline: compile, bound, simulate; ?trace=1
//	                   embeds the request's span/lane trace in the
//	                   response (?tier= is accepted for old clients and
//	                   changes nothing)
//	POST /v1/batch     many kernels in one request; per-kernel results
//	                   stream back as NDJSON lines in completion order
//	POST /v1/explore   design-space sweep: a machine-parameter grid over one
//	                   kernel; each simulated survivor streams back as an
//	                   NDJSON "point" event, then a "done" event carries the
//	                   ranked summary (bounded, cancellable, cached whole)
//	POST /v1/bound     bounds hierarchy only
//	POST /v1/check     static verification only (diagnostics, no execution)
//	POST /v1/ax        A-process / X-process measurement
//	GET  /v1/lfk/{id}  one case-study kernel, bounds + measurement + diagnosis
//	GET  /v1/trace/{id} one retained request trace as Chrome trace_event
//	                   JSON (spans merged with simulator lanes)
//	GET  /healthz      liveness
//	GET  /metrics      every metric family as one JSON object keyed by
//	                   family name, in the exposition's units (seconds);
//	                   ?format=prom serves the same families as the
//	                   Prometheus text exposition
//
// Every analysis request runs under the service's RequestTimeout, is
// logged structurally (endpoint, status, duration, trace ID), carries
// its trace ID in the X-Macs-Trace response header and is counted once
// on /metrics. A body must be exactly one JSON value: anything but
// whitespace after it is a 400.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", traced(s, "analyze", func(w *statusWriter, r *http.Request) {
		handleJSON(s, w, r, func(ctx context.Context, req AnalyzeRequest) (AnalyzeResponse, error) {
			if tier := r.URL.Query().Get("tier"); tier != "" {
				req.Tier = tier
			}
			resp, err := s.Analyze(ctx, req)
			if err == nil && wantsTrace(r) {
				if tr := obs.FromContext(ctx); tr != nil {
					v := tr.View()
					resp.Trace = &v
				}
			}
			return resp, err
		})
	}))
	mux.HandleFunc("POST /v1/batch", traced(s, "batch", func(w *statusWriter, r *http.Request) {
		handleBatch(s, w, r)
	}))
	mux.HandleFunc("POST /v1/explore", traced(s, "explore", func(w *statusWriter, r *http.Request) {
		handleExplore(s, w, r)
	}))
	mux.HandleFunc("POST /v1/bound", traced(s, "bound", func(w *statusWriter, r *http.Request) {
		handleJSON(s, w, r, func(ctx context.Context, req BoundRequest) (BoundResponse, error) {
			return s.Bound(ctx, req)
		})
	}))
	mux.HandleFunc("POST /v1/check", traced(s, "check", func(w *statusWriter, r *http.Request) {
		handleJSON(s, w, r, func(ctx context.Context, req CheckRequest) (CheckResponse, error) {
			return s.Check(ctx, req)
		})
	}))
	mux.HandleFunc("POST /v1/ax", traced(s, "ax", func(w *statusWriter, r *http.Request) {
		handleJSON(s, w, r, func(ctx context.Context, req AXRequest) (AXResponse, error) {
			return s.AX(ctx, req)
		})
	}))
	mux.HandleFunc("GET /v1/lfk/{id}", traced(s, "lfk", func(w *statusWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad kernel id %q", r.PathValue("id")))
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		resp, err := s.LFK(ctx, id)
		if err != nil {
			writeServiceError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}))
	mux.HandleFunc("GET /v1/trace/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		v, ok := s.TraceByID(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown or evicted trace %q", id))
			return
		}
		b, err := obs.ChromeTrace(v)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b) //nolint:errcheck // client went away
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", obs.PromContentType)
			w.Write(s.metrics.reg.Prom()) //nolint:errcheck // client went away
			return
		}
		writeJSON(w, http.StatusOK, s.metrics.reg)
	})
	return recoverPanic(s.log, accessLog(s.log, mux))
}

// traced wraps one /v1/ endpoint with a request trace: a fresh trace ID
// (surfaced in the X-Macs-Trace response header and the access log), a
// root span named after the endpoint, and — after the handler returns —
// the request's one count on /metrics, failed when it answered an error
// status or its stream ended on an error line, plus retention of the
// trace for GET /v1/trace/{id}.
func traced(s *Service, endpoint string, h func(*statusWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace("")
		ctx := obs.NewContext(r.Context(), tr)
		ctx, root := obs.Start(ctx, endpoint)
		w.Header().Set("X-Macs-Trace", tr.ID())
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(ctx))
		root.End()
		s.finishRequest(endpoint, tr, root, sw.status >= 400 || sw.streamErr)
	}
}

// handleJSON reads the body once, answers it from a raw alias when an
// earlier cache hit already answered these exact bytes, and otherwise
// decodes it, applies the request timeout, runs the endpoint and writes
// the JSON response or mapped error. When that run was exactly one cache
// hit, the bytes it wrote become an alias of the hit entry, so the next
// identical request costs one body hash. Errors and ?trace=1 answers are
// never aliased: a trace belongs to one request.
func handleJSON[Req, Resp any](s *Service, w http.ResponseWriter, r *http.Request, fn func(context.Context, Req) (Resp, error)) {
	buf, ok := readBody(w, r)
	if !ok {
		return
	}
	rk, served := s.serveRaw(w, r, buf.Bytes())
	if served {
		releaseBody(buf)
		return
	}
	var req Req
	ok = decodeSpan(w, r, buf.Bytes(), &req)
	releaseBody(buf)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	slot := new(hitSlot)
	resp, err := fn(context.WithValue(ctx, slotKey{}, slot), req)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	b, err := encodeJSON(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeBody(w, http.StatusOK, b)
	if slot.hit && !wantsTrace(r) {
		s.cache.addAlias(slot.key, rk, b)
	}
}

// serveRaw answers a request whose exact bytes (endpoint path, raw query
// and body) an earlier cache hit answered: one digest lookup and one copy
// of the stored response, with no decode, no content key and no encode.
// It is a hit like any other: the cache counts it and touches the entry,
// and the trace gets its cache-lookup span. It returns the digest and
// false, having written nothing, when no alias matches or the service is
// closed; the keyed path then decides the answer.
func (s *Service) serveRaw(w http.ResponseWriter, r *http.Request, body []byte) (rawKey, bool) {
	start := time.Now()
	rk := newRawKey(r.URL.Path, r.URL.RawQuery, body)
	if s.acceptGate() != nil {
		return rk, false
	}
	_, sp := obs.Start(r.Context(), "cache-lookup")
	resp, ok := s.cache.getRaw(rk)
	sp.End()
	if !ok {
		return rk, false
	}
	writeBody(w, http.StatusOK, resp)
	s.log.Info("request", "path", r.URL.Path, "dur", time.Since(start), "cached", true)
	return rk, true
}

// wantsTrace reports whether the request asked for its trace in the
// response.
func wantsTrace(r *http.Request) bool { return r.URL.Query().Get("trace") == "1" }

// readBody reads the whole request body, bounded by maxBodyBytes, into a
// pooled buffer the caller hands back with releaseBody. On failure it
// answers 413 (too large) or 400 and returns false.
func readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, bool) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		releaseBody(buf)
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
			return nil, false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return nil, false
	}
	return buf, true
}

func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyBufs.Put(buf)
	}
}

// decodeSpan decodes body into v (decodeBody) under a decode span on
// the request's trace.
func decodeSpan(w http.ResponseWriter, r *http.Request, body []byte, v any) bool {
	_, sp := obs.Start(r.Context(), "decode")
	defer sp.End()
	return decodeBody(w, body, v)
}

// readJSON reads and decodes a body in one step, for the streaming
// endpoints, which have no raw aliases.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	buf, ok := readBody(w, r)
	if !ok {
		return false
	}
	defer releaseBody(buf)
	return decodeSpan(w, r, buf.Bytes(), v)
}

// handleBatch decodes a batch request and streams per-item results back
// as NDJSON, flushing after every line so clients see each kernel as it
// completes. Batch-level failures (malformed body, empty batch, closed
// service) answer with a normal JSON error status before the stream
// starts; per-item failures are lines inside the stream.
func handleBatch(s *Service, w *statusWriter, r *http.Request) {
	var req BatchRequest
	if !readJSON(w, r, &req) {
		return
	}
	if tier := r.URL.Query().Get("tier"); tier != "" {
		for i := range req.Items {
			req.Items[i].Tier = tier
		}
	}
	// Validate before committing to a 200 stream: once the NDJSON body
	// starts, the status line is gone.
	if err := s.checkBatch(req); err != nil {
		writeServiceError(w, err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	err := s.AnalyzeBatch(ctx, req, func(item BatchItemResult) {
		enc.Encode(item) //nolint:errcheck // client went away
		w.Flush()
	})
	if err != nil {
		// The stream already carries a 200; all we can do is end it on an
		// error line (emit was never called) and count the failure.
		w.streamErr = true
		enc.Encode(BatchItemResult{Index: -1, Error: err.Error()}) //nolint:errcheck // client went away
	}
}

// handleExplore decodes a sweep request and streams its events back as
// NDJSON: one "point" line per simulated survivor as it completes, then
// the "done" summary line. Sweep-level failures (bad grid, too many
// points, closed service) answer with a JSON error status before the
// stream starts; a failure mid-sweep becomes a terminal "error" line.
func handleExplore(s *Service, w *statusWriter, r *http.Request) {
	var req ExploreRequest
	if !readJSON(w, r, &req) {
		return
	}
	// Validate before committing to a 200 stream: once the NDJSON body
	// starts, the status line is gone.
	if _, err := s.checkExplore(req); err != nil {
		writeServiceError(w, err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	err := s.Explore(ctx, req, func(ev ExploreEvent) {
		enc.Encode(ev) //nolint:errcheck // client went away
		w.Flush()
	})
	if err != nil {
		w.streamErr = true
		enc.Encode(ExploreEvent{Type: "error", Error: err.Error()}) //nolint:errcheck // client went away
	}
}

// writeServiceError maps service errors onto HTTP status codes:
// backpressure → 429 + Retry-After, timeout → 504, cancelled client →
// 499 (nginx convention), a program rejected by the static checker →
// 422 with the full diagnostic list in the body, anything else
// (compile/analysis failures) → 422.
func writeServiceError(w http.ResponseWriter, err error) {
	var verr *macs.VerifyError
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		writeError(w, 499, err)
	case errors.As(err, &verr):
		writeJSON(w, http.StatusUnprocessableEntity, map[string]any{
			"error":       err.Error(),
			"diagnostics": verr.Diags,
		})
	default:
		writeError(w, http.StatusUnprocessableEntity, err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := encodeJSON(v)
	if err != nil {
		// writeError's string map always encodes, so this recurses once.
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeBody(w, status, b)
}

// encodeJSON renders a response body: indented JSON and a newline.
func encodeJSON(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func writeBody(w http.ResponseWriter, status int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b) //nolint:errcheck // client went away
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// statusWriter captures the response code and size for the access log
// and for a /v1 request's count on /metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
	// streamErr marks a streamed response that ended on an error line
	// after its 200 status.
	streamErr bool
}

// Flush sends what the handler wrote so far to the client, so each line
// of a stream leaves as it is written.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += n
	return n, err
}

// recoverPanic is the outermost middleware: a panic anywhere in request
// handling answers 500 instead of killing the connection (and, under
// http.Server, only that goroutine). The static checker makes such
// panics unreachable for verified inputs; this is the backstop for the
// paths it cannot see.
func recoverPanic(log *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				log.Error("panic in request handler",
					"method", r.Method,
					"path", r.URL.Path,
					"panic", v,
					"stack", string(debug.Stack()),
				)
				writeError(w, http.StatusInternalServerError,
					fmt.Errorf("internal error"))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// accessLog emits one structured line per request.
func accessLog(log *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"bytes", sw.bytes,
			"dur", time.Since(start),
			"remote", r.RemoteAddr,
		}
		if id := sw.Header().Get("X-Macs-Trace"); id != "" {
			attrs = append(attrs, "trace", id)
		}
		log.Info("http", attrs...)
	})
}
