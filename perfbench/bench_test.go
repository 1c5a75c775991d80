package main

import (
	"bytes"
	"encoding/json"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// runFleet builds w's fleet (with liar lying, if set), sends count
// requests through it, and tears it down, failing on a leak.
func runFleet(t *testing.T, w workload, tr *tracer, liar string, count int) *result {
	t.Helper()
	baseline := runtime.NumGoroutine()
	f, err := w.build(tr, 1, liar)
	if err != nil {
		t.Fatal(err)
	}
	r := newLoad(w).drive(f, 0, count)
	if err := tearDown(f, baseline); err != nil {
		t.Fatal(err)
	}
	return r
}

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// A lying replica behind a plain RemoteVariant is caught by the oracle.
func TestOracleFlagsLiarBehindRemote(t *testing.T) {
	r := runFleet(t, mustWorkload(t, "hedged-pipe-int"), newTracer(), "r0", 200)
	// r0 is the first endpoint and healthy, so it serves every request.
	if r.wrong != r.attempted || r.attempted != 200 {
		t.Fatalf("%d of %d wrong answers flagged, want all 200", r.wrong, r.attempted)
	}
}

// The same single liar inside the n=3 quorum is outvoted.
func TestQuorumMasksLiar(t *testing.T) {
	r := runFleet(t, mustWorkload(t, "quorum-tcp-4k"), newTracer(), "r0", 200)
	if r.attempted != 200 || r.failed+r.wrong != 0 {
		t.Fatalf("error_rate %d/%d with one liar in the quorum, want 0", r.failed+r.wrong, r.attempted)
	}
}

// A wrong answer makes the command exit non-zero, after a result line
// that says so.
func TestWrongAnswerFailsCommand(t *testing.T) {
	liar := workload{
		name: "liar", loop: "closed", clients: 1, warmup: 1,
		build: func(t *tracer, seed uint64, _ string) (*fleet, error) { return buildHedgedPipe(t, seed, "r0") },
	}
	saved := workloads
	workloads = append(append([]workload(nil), saved...), liar)
	defer func() { workloads = saved }()
	var out bytes.Buffer
	// The warm-up refuses a lying fleet before anything is measured.
	if code := run([]string{"--workload", "liar", "--seconds", "0.2"}, &out, io.Discard); code == 0 {
		t.Fatalf("exit 0 with a lying replica; output:\n%s", out.String())
	}
	// With the warm-up skipped, the measured phase reports the lies.
	liar.warmup = 0
	workloads[len(workloads)-1] = liar
	out.Reset()
	if code := run([]string{"--workload", "liar", "--seconds", "0.2"}, &out, io.Discard); code == 0 {
		t.Fatalf("exit 0 with a lying replica; output:\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if res.Correct || res.Failed != res.Attempted {
		t.Fatalf("result %+v: want correct=false and every request failed", res)
	}
}

// Every workload tears down to the goroutine count it started from, so
// the workloads run back to back in one process.
func TestWorkloadsBackToBack(t *testing.T) {
	for _, w := range workloads {
		n := 50
		if w.loop == "open" {
			n = 20
		}
		if r := runFleet(t, w, newTracer(), "", n); r.attempted != n || r.failed+r.wrong != 0 {
			t.Errorf("%s: %d of %d requests failed", w.name, r.failed+r.wrong, r.attempted)
		}
	}
}

// A traced run exports every span, and within each request the self
// times of all layers add up to no more than the executor span.
func TestTraceSelfTimesFitExecutor(t *testing.T) {
	for _, w := range workloads {
		tr := newTracer()
		tr.on.Store(true)
		r := runFleet(t, w, tr, "", 40)
		tr.on.Store(false)
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := tr.export(path, w.name, 1); err != nil {
			t.Fatal(err)
		}
		tf, err := readTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		reqs := byRequest(tf.Spans)
		if len(reqs) != r.attempted {
			t.Fatalf("%s: spans name %d requests, sent %d", w.name, len(reqs), r.attempted)
		}
		for req, idx := range reqs {
			var exec *span
			for _, i := range idx {
				if s := &tf.Spans[i]; s.Layer == layerPattern {
					exec = s
				} else if s.Parent == 0 {
					t.Fatalf("%s: request %d: %s span has no parent", w.name, req, s.Layer)
				}
			}
			if exec == nil {
				t.Fatalf("%s: request %d has no executor span", w.name, req)
			}
			self, _ := requestSelf(tf.Spans, idx)
			var sum int64
			for l, ns := range self {
				if ns < 0 {
					t.Fatalf("%s: request %d: negative self time in %s", w.name, req, l)
				}
				sum += ns
			}
			if sum > exec.dur() {
				t.Fatalf("%s: request %d: layer self times sum to %dns, executor span %dns", w.name, req, sum, exec.dur())
			}
		}
	}
}

// Self time charges each instant once, to the deepest active span, so
// overlapping children are not charged twice, and a child is clipped to
// its parent.
func TestRequestSelfClipsAndUnions(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 9, Layer: layerPattern, Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 9, Layer: layerClient, Start: 10, End: 90},
		{ID: 3, Parent: 2, Req: 9, Layer: layerTransport, Op: opAttempt, Start: 20, End: 60},
		{ID: 4, Parent: 2, Req: 9, Layer: layerTransport, Op: opAttempt, Start: 40, End: 120}, // outlives its parent
		{ID: 5, Parent: 2, Req: 9, Layer: layerVote, Start: 85, End: 88},
	}
	self, cover := requestSelf(spans, []int{0, 1, 2, 3, 4})
	want := map[string]int64{layerPattern: 20, layerClient: 10, layerTransport: 67, layerVote: 3}
	for l, ns := range want {
		if self[l] != ns {
			t.Errorf("self[%s] = %d, want %d", l, self[l], ns)
		}
	}
	if cover[layerTransport] != 70 {
		t.Errorf("transport cover = %d, want 70", cover[layerTransport])
	}
}

// The traced run reports every per-layer metric, and the untraced run
// every end-to-end metric, each by name with a unit.
func TestRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the command")
	}
	ends := []string{"throughput_rps", "latency_p50_us", "latency_p99_us", "cpu_us_per_req",
		"allocs_per_req", "alloc_bytes_per_req", "max_rss_mb", "setup_s"}
	layers := []string{"bench.generator_lag_p99_us", "bench.trace_overhead_ratio",
		"pattern.self_us_per_req", "dist.client.self_us_per_req", "dist.client.attempts_per_req",
		"dist.client.limper_share", "dist.transport.bytes_out_per_req", "dist.transport.bytes_in_per_req",
		"dist.transport.writes_per_req", "dist.transport.io_wait_us_per_req", "dist.transport.dials_per_req",
		"dist.server.self_us_per_call", "replica.exec_us_per_call", "vote.adjudications_per_req",
		"vote.adjudicate_us_per_req", "runtime.gc_cycles_per_kreq"}
	t.Setenv("BENCH_OUT", t.TempDir())
	for trace, names := range map[string][]string{"0": ends, "1": layers} {
		var out bytes.Buffer
		args := []string{"--workload", "nvp-local", "--seed", "3", "--seconds", "0.5", "--trace", trace}
		if code := run(args, &out, io.Discard); code != 0 {
			t.Fatalf("--trace %s: exit %d", trace, code)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct bool `json:"correct"`
			Metrics map[string]struct {
				Value float64
				Unit  string
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || len(res.Metrics) != len(names) {
			t.Fatalf("--trace %s: correct=%v, %d metrics, want %d", trace, res.Correct, len(res.Metrics), len(names))
		}
		for _, n := range names {
			if m, ok := res.Metrics[n]; !ok || m.Unit == "" {
				t.Errorf("--trace %s: metric %s missing or without unit", trace, n)
			}
		}
	}
}
