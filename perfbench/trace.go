package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// In-memory tracing for the traced run. Spans are recorded only from the
// benchmark's own code, around its calls into the system: the client
// calls (client.*), each HTTP round trip they make (rpc ...), and the
// server's handler for that round trip (handler ...). A round trip
// carries its span ID to the handler in spanHeader, so the three levels
// of one request form one tree. Untraced runs carry no tracer and every
// hook below is a no-op.

const spanHeader = "X-Perfbench-Span"

type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)

func withTracer(ctx context.Context, t *tracer) context.Context {
	return context.WithValue(ctx, tracerKey, t)
}

// openSpan is a started span; a nil *openSpan (no tracer) ends as a no-op.
type openSpan struct {
	t    *tracer
	s    span
	once sync.Once
}

// startSpan opens a span named name under the span ctx carries, if ctx
// carries a tracer, and returns the context its children start from.
func startSpan(ctx context.Context, name string) (context.Context, *openSpan) {
	t, _ := ctx.Value(tracerKey).(*tracer)
	if t == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey).(uint64)
	sp := &openSpan{t: t, s: span{ID: t.ids.Add(1), Parent: parent, Name: name, Start: t.now()}}
	return context.WithValue(ctx, spanKey, sp.s.ID), sp
}

func (sp *openSpan) end() {
	if sp == nil {
		return
	}
	sp.once.Do(func() {
		sp.s.End = sp.t.now()
		sp.t.record(sp.s)
	})
}

// routeOf folds per-job paths into one route name.
func routeOf(path string) string {
	if rest, ok := strings.CutPrefix(path, "/v1/jobs/"); ok && rest != "" {
		if strings.HasSuffix(rest, "/cancel") {
			return "/v1/jobs/{id}/cancel"
		}
		return "/v1/jobs/{id}"
	}
	return path
}

// tracingTransport records one rpc span per HTTP round trip, from the
// request leaving until its response body is closed, and tells the
// server handler which span it serves.
type tracingTransport struct {
	base http.RoundTripper
}

func (tt tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx, sp := startSpan(req.Context(), "rpc "+req.Method+" "+routeOf(req.URL.Path))
	if sp == nil {
		return tt.base.RoundTrip(req)
	}
	out := req.Clone(ctx)
	out.Header.Set(spanHeader, strconv.FormatUint(sp.s.ID, 10))
	resp, err := tt.base.RoundTrip(out)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	sp *openSpan
}

func (b spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.sp.end()
	return err
}

// switchHandler sits between the listener and Server.Handler(). While a
// tracer is installed it records a handler span per request, parented
// by the round trip's span header.
type switchHandler struct {
	next http.Handler
	t    atomic.Pointer[tracer]
}

func (h *switchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := h.t.Load()
	if t == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	start := t.now()
	h.next.ServeHTTP(w, r)
	t.record(span{ID: t.ids.Add(1), Parent: parent, Name: "handler " + r.Method + " " + routeOf(r.URL.Path), Start: start, End: t.now()})
}

// spanLayers is what the span tree says about the serve layer.
type spanLayers struct {
	handlerMs float64 // mean handler time per HTTP request
	wireMs    float64 // mean client call time outside the handler
	register  meanAcc // operator registration round trips, ms
	submit    time.Duration
}

func analyzeSpans(spans []span) spanLayers {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var (
		handler, wire, register meanAcc
		submit                  time.Duration
	)
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "handler "):
			handler.add(ms(s.dur()))
		case s.Name == "rpc PUT /v1/operators":
			register.add(ms(s.dur()))
		case strings.HasPrefix(s.Name, "client."):
			inside := time.Duration(0)
			for _, rpc := range children[s.ID] {
				for _, h := range children[rpc.ID] {
					inside += h.dur()
				}
			}
			wire.add(ms(s.dur() - inside))
			if s.Name == "client.submit_job" {
				submit += s.dur()
			}
		}
	}
	return spanLayers{handlerMs: handler.mean(), wireMs: wire.mean(), register: register, submit: submit}
}

// meanAcc is a running mean; empty reads as 0 (the layer was not used).
type meanAcc struct {
	sum float64
	n   int
}

func (m *meanAcc) add(v float64) { m.sum += v; m.n++ }

func (m meanAcc) mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func spanFile(dir, workload string, seed int64) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.jsonl", dir, workload, seed)
}
