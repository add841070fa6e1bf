package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// Exposition: the registry and trace ring rendered for consumers — the
// Prometheus text format (version 0.0.4) for scrapers, JSON snapshots for
// diwarp-top and scripts, and an http.Handler bundling both for daemons.

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format. Counter names should follow the *_total convention; histograms
// expand into cumulative _bucket{le=...} series plus _sum and _count.
func WritePrometheus(w io.Writer, s Snapshot) error {
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		cum := int64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b.Le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			name, h.Count, name, h.Sum, name, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// WritePrometheus renders the registry's current state to w.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WritePrometheus(w, r.Snapshot())
}

// MarshalJSON renders an event with its type and peer as strings, so
// /trace.json output reads without the numeric enum and token tables.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Seq   uint64 `json:"seq"`
		Time  string `json:"time"`
		Type  string `json:"type"`
		Peer  string `json:"peer,omitempty"`
		Bytes int    `json:"bytes"`
		Arg   uint32 `json:"arg"`
	}{
		Seq:   e.Seq,
		Time:  e.Time.Format(time.RFC3339Nano),
		Type:  e.Type.String(),
		Peer:  e.Peer,
		Bytes: e.Bytes,
		Arg:   e.Arg,
	})
}

// traceDump is the /trace.json response shape.
type traceDump struct {
	Events      []Event `json:"events"`
	Overwritten uint64  `json:"overwritten"`
	Cursor      uint64  `json:"cursor"`
}

// Handler serves the observability endpoints for reg and ring (either may
// be nil to disable its routes):
//
//	GET /metrics        Prometheus text format
//	GET /metrics.json   JSON snapshot of the registry
//	GET /trace.json     drain the trace ring (consuming!) as JSON
//	GET /healthz        liveness probe
//	GET /debug/pprof/   the runtime profiles, always on (servePprof):
//	                    go tool pprof http://ADDR/debug/pprof/profile
func Handler(reg *Registry, ring *Ring) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", servePprof)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	if reg != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := reg.WritePrometheus(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(reg.Snapshot()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	if ring != nil {
		mux.HandleFunc("/trace.json", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			dump := traceDump{Events: ring.Drain(), Overwritten: ring.Overwritten(), Cursor: ring.Cursor()}
			if dump.Events == nil {
				dump.Events = []Event{}
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(dump); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	return mux
}

// servePprof serves the runtime profiles at the paths net/http/pprof uses
// and go tool pprof asks for: /debug/pprof/profile?seconds=N records a CPU
// profile (default 30 s), /debug/pprof/NAME[?debug=N] writes any
// runtime/pprof profile (heap, allocs, goroutine, block, mutex,
// threadcreate), and the bare prefix lists them. It is built on
// runtime/pprof alone: net/http/pprof would link its profile parser,
// regexp and runtime/trace into every binary that links telemetry — a
// sixth more binary, and measurably slower stack set-up in the repo
// benchmark — for the cmdline, symbol and trace routes left out here.
func servePprof(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/debug/pprof/")
	switch name {
	case "":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "profile  CPU profile, ?seconds=N")
		for _, p := range pprof.Profiles() {
			fmt.Fprintf(w, "%-8s %d\n", p.Name(), p.Count())
		}
	case "profile":
		secs, err := strconv.Atoi(r.FormValue("seconds"))
		if err != nil || secs <= 0 {
			secs = 30
		}
		// Headers first: from StartCPUProfile on, the profiler's own
		// goroutine writes to w until StopCPUProfile returns.
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := pprof.StartCPUProfile(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		select {
		case <-time.After(time.Duration(secs) * time.Second):
		case <-r.Context().Done():
		}
		pprof.StopCPUProfile()
	default:
		p := pprof.Lookup(name)
		if p == nil {
			http.NotFound(w, r)
			return
		}
		debug, _ := strconv.Atoi(r.FormValue("debug")) // absent or malformed: the binary format
		if debug > 0 {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		} else {
			w.Header().Set("Content-Type", "application/octet-stream")
		}
		if err := p.WriteTo(w, debug); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

// Serve binds addr (host:port, port 0 for ephemeral) and serves [Handler]
// for reg and ring on it in a background goroutine. It returns the bound
// address and a shutdown function. This is the one-liner daemons use:
//
//	addr, stop, err := telemetry.Serve("127.0.0.1:9090", telemetry.Default, telemetry.DefaultTrace)
func Serve(addr string, reg *Registry, ring *Ring) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: Handler(reg, ring)}
	go func() {
		// Serve returns ErrServerClosed on shutdown; other errors mean the
		// listener died, which the health probe will surface.
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), srv.Close, nil
}

// FormatValue renders a metric value with a thousands separator for the
// human-facing summaries (iwarpbench's telemetry section, diwarp-top).
func FormatValue(v int64) string {
	s := strconv.FormatInt(v, 10)
	neg := false
	if len(s) > 0 && s[0] == '-' {
		neg, s = true, s[1:]
	}
	var out []byte
	for i, c := range []byte(s) {
		if i > 0 && (len(s)-i)%3 == 0 {
			out = append(out, ',')
		}
		out = append(out, c)
	}
	if neg {
		return "-" + string(out)
	}
	return string(out)
}
