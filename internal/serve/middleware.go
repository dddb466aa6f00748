// Request middleware: the per-request observability layer of the serving
// stack. Every /v1 request gets an X-Request-ID (echoed from the client or
// generated), W3C traceparent propagation (parsed from the request, echoed
// back with this server's span id), per-route RED metrics, a flight-recorder
// record, an SLO observation, and — sampled on clean fast 200s, always on
// errors, incidents, and slow requests — a structured slog access log.
//
// Every /v1 request takes this one path. Its parts follow the obs nil
// convention: a server with no registry, flight recorder or access logger
// skips each of them at a nil check. See DESIGN.md §14.

package serve

import (
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"distinct/internal/obs"
	flightrec "distinct/internal/obs/flight"
	"distinct/internal/obs/trace"
)

// Pre-canonicalized header keys (net/textproto canonical form) so the hot
// path can index Header maps directly instead of paying Get/Set's
// CanonicalMIMEHeaderKey pass per call. net/http canonicalizes incoming
// request headers at parse time, so direct reads see the same entries Get
// would.
const (
	hdrRequestID   = "X-Request-Id"
	hdrTraceparent = "Traceparent"
)

// route bundles one route's pre-resolved RED handles: requests, errors
// (5xx), latency. Handles resolve once at server construction — per-request
// updates are pure atomics, never registry map lookups. All handles are
// nil (and free) on a nil registry.
type route struct {
	name     string
	requests *obs.Counter
	errors   *obs.Counter
	seconds  *obs.Histogram
}

func newRoute(reg *obs.Registry, name string) *route {
	return &route{
		name:     name,
		requests: reg.Counter("serve.route." + name + ".requests"),
		errors:   reg.Counter("serve.route." + name + ".errors"),
		seconds:  reg.Histogram("serve.route."+name+".seconds", nil),
	}
}

// reqInfo is the per-request scratch the handlers fill for the middleware:
// which name was served and how (cache/coalesce/degrade/incident), plus the
// per-request engine trace when tail capture is on. Instances are pooled.
type reqInfo struct {
	name      string
	cached    bool
	coalesced bool
	degraded  bool
	negCached bool
	stale     bool
	client    string
	incident  string
	errMsg    string
	tr        *trace.Trace
	// sw is the response wrapper for this request; embedding it here means
	// one pool Get covers both per-request objects.
	sw statusWriter
}

var reqInfoPool = sync.Pool{New: func() any { return new(reqInfo) }}

func (ri *reqInfo) reset() { *ri = reqInfo{} }

// noteResult records a successful lookup's serving metadata.
func (ri *reqInfo) noteResult(meta lookupMeta, res *NameResult) {
	ri.name = res.Name
	ri.cached = meta.cached
	ri.coalesced = meta.coalesced
	ri.degraded = res.Degraded
	ri.stale = meta.stale
	if res.Incident != nil {
		ri.incident = res.Incident.Reason
	}
	ri.tr = res.trace
}

// noteError records a failed lookup (the name it was for, the envelope
// message).
func (ri *reqInfo) noteError(name, msg string, meta lookupMeta) {
	ri.name = name
	ri.errMsg = msg
	ri.negCached = meta.negCached
	ri.stale = meta.stale
}

// noteName records just the subject (batch summary labels).
func (ri *reqInfo) noteName(name string) { ri.name = name }

// noteFlags merges one batch item's outcome into the request's aggregate.
func (ri *reqInfo) noteFlags(meta lookupMeta, res *NameResult) {
	ri.cached = ri.cached || meta.cached
	ri.coalesced = ri.coalesced || meta.coalesced
	ri.degraded = ri.degraded || res.Degraded
	ri.stale = ri.stale || meta.stale
	if ri.incident == "" && res.Incident != nil {
		ri.incident = res.Incident.Reason
	}
}

// statusWriter captures the status code and body size a handler writes;
// the middleware needs both after the handler returns.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// idSource mints request/span ids: an 8-hex-char process-unique prefix plus
// an 8-hex-char sequence — exactly the 16 hex characters a W3C traceparent
// span id needs, unique for the life of the process, one allocation each.
type idSource struct {
	prefix [8]byte // hex chars
	seq    atomic.Uint64
}

func newIDSource() *idSource {
	var raw [4]byte
	var s idSource
	if _, err := rand.Read(raw[:]); err != nil {
		// Timestamp fallback: uniqueness within the process still holds via
		// the sequence; the prefix only guards against cross-process clashes.
		t := time.Now().UnixNano()
		raw = [4]byte{byte(t >> 24), byte(t >> 16), byte(t >> 8), byte(t)}
	}
	hex.Encode(s.prefix[:], raw[:])
	return &s
}

func (s *idSource) next() string {
	v := uint32(s.seq.Add(1))
	raw := [4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
	var b [16]byte
	copy(b[:8], s.prefix[:])
	hex.Encode(b[8:], raw[:])
	return string(b[:])
}

// validRequestID accepts client-supplied X-Request-ID values that are safe
// to echo, log, and store: 1..64 bytes of printable ASCII without spaces
// or quotes. Anything else is replaced by a generated id.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '"' {
			return false
		}
	}
	return true
}

// parseTraceparent parses a W3C trace-context header
// ("00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>"). Unknown
// versions and malformed values are ignored, per the spec's permissive
// stance — a bad header must never fail the request.
func parseTraceparent(h string) (traceID, flags string, ok bool) {
	if len(h) != 55 || h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", "", false
	}
	traceID = h[3:35]
	if !isHex(traceID) || !isHex(h[36:52]) || !isHex(h[53:55]) {
		return "", "", false
	}
	if allZero(traceID) {
		return "", "", false
	}
	return traceID, h[53:55], true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// accessLogger emits structured access logs with tail-aware sampling:
// errors (4xx/5xx), incidents, and slow requests always log; clean fast
// 200s log one in sample.
type accessLogger struct {
	lg     *slog.Logger
	sample uint64
	seq    atomic.Uint64
	slow   time.Duration
}

// shouldLog decides after the response is written.
func (a *accessLogger) shouldLog(status int, incident string, latency time.Duration) bool {
	if a == nil || a.lg == nil {
		return false
	}
	if status >= 400 || incident != "" || latency >= a.slow {
		return true
	}
	return a.sample <= 1 || a.seq.Add(1)%a.sample == 0
}

// log emits one access record. Attribute keys are stable — dashboards and
// CI greps key on them.
func (a *accessLogger) log(rec *flightrec.Record) {
	a.lg.LogAttrs(nil, levelFor(rec), "request",
		slog.String("route", rec.Route),
		slog.String("name", rec.Name),
		slog.Int("status", rec.Status),
		slog.Duration("latency", rec.Latency),
		slog.String("id", rec.ID),
		slog.String("trace_id", rec.TraceID),
		slog.Bool("cached", rec.Cached),
		slog.Bool("coalesced", rec.Coalesced),
		slog.Bool("degraded", rec.Degraded),
		slog.String("incident", rec.Incident),
		slog.String("error", rec.Error),
	)
}

func levelFor(rec *flightrec.Record) slog.Level {
	switch {
	case rec.Status >= 500 || rec.Incident != "":
		return slog.LevelError
	case rec.Status >= 400:
		return slog.LevelWarn
	}
	return slog.LevelInfo
}
