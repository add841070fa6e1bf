package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("diwarp_expose_total").Add(5)
	r.Gauge("diwarp_expose_depth").Set(-2)
	h := r.Histogram("diwarp_expose_lat")
	h.Observe(1)
	h.Observe(1)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE diwarp_expose_total counter\ndiwarp_expose_total 5\n",
		"# TYPE diwarp_expose_depth gauge\ndiwarp_expose_depth -2\n",
		"# TYPE diwarp_expose_lat histogram\n",
		// Buckets are cumulative: le=1 has both 1s, le=7 adds the 5.
		"diwarp_expose_lat_bucket{le=\"1\"} 2\n",
		"diwarp_expose_lat_bucket{le=\"7\"} 3\n",
		"diwarp_expose_lat_bucket{le=\"+Inf\"} 3\n",
		"diwarp_expose_lat_sum 7\n",
		"diwarp_expose_lat_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("diwarp_handler_total").Add(3)
	ring := NewRing(64)
	ring.Record(EvSend, 0, 11, 4)
	srv := httptest.NewServer(Handler(reg, ring))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "diwarp_handler_total 3") {
		t.Fatalf("/metrics = %d %q", code, body)
	}

	code, body := get("/metrics.json")
	if code != 200 {
		t.Fatalf("/metrics.json = %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics.json does not decode into Snapshot: %v", err)
	}
	if snap.Counters["diwarp_handler_total"] != 3 {
		t.Fatalf("decoded counters = %v", snap.Counters)
	}

	code, body = get("/trace.json")
	if code != 200 {
		t.Fatalf("/trace.json = %d", code)
	}
	var dump struct {
		Events []struct {
			Seq   uint64 `json:"seq"`
			Type  string `json:"type"`
			Bytes int    `json:"bytes"`
			Arg   uint32 `json:"arg"`
		} `json:"events"`
		Cursor uint64 `json:"cursor"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Events) != 1 || dump.Events[0].Type != "SEND" ||
		dump.Events[0].Bytes != 11 || dump.Events[0].Arg != 4 {
		t.Fatalf("trace dump = %+v", dump)
	}
	// The endpoint drains: a second fetch is empty but still valid JSON.
	if _, body = get("/trace.json"); !strings.Contains(body, "\"events\": []") {
		t.Fatalf("second trace fetch = %q", body)
	}
}

// TestHandlerServesPprof: the runtime profiles ride the same listener as
// the metrics, with or without a registry and ring, so profiling a running
// daemon needs no patch: go tool pprof http://ADDR/debug/pprof/profile.
func TestHandlerServesPprof(t *testing.T) {
	srv := httptest.NewServer(Handler(nil, nil))
	defer srv.Close()
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	for _, c := range []struct{ path, want string }{
		{"/debug/pprof/", "goroutine"},
		{"/debug/pprof/goroutine?debug=1", "goroutine profile:"},
		{"/debug/pprof/heap?debug=1", "heap profile:"},
	} {
		if code, body := get(c.path); code != 200 || !strings.Contains(string(body), c.want) {
			t.Errorf("%s = %d, want 200 containing %q; got %.200q", c.path, code, c.want, body)
		}
	}
	// The binary forms are gzipped protobufs, what go tool pprof reads.
	for _, path := range []string{"/debug/pprof/allocs", "/debug/pprof/profile?seconds=1"} {
		if code, body := get(path); code != 200 || len(body) < 2 || body[0] != 0x1f || body[1] != 0x8b {
			t.Errorf("%s = %d, %d bytes; want 200 and a gzipped profile", path, code, len(body))
		}
	}
	if code, _ := get("/debug/pprof/no-such-profile"); code != http.StatusNotFound {
		t.Errorf("unknown profile = %d, want 404", code)
	}
}

func TestServeLifecycle(t *testing.T) {
	reg := NewRegistry()
	addr, stop, err := Serve("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still serving after stop")
	}
}
