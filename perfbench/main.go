// Command perfbench measures the redundant request path of the
// redundancy package end to end and layer by layer.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it sets the workload's fleet up several times, measures
// one for --seconds with tracing off, and prints the end-to-end metrics.
// With --trace 1 it measures half the time untraced and half traced,
// exports the spans as JSON, and prints the per-layer metrics derived
// from that file. Every reply is checked against the benchmark's own
// oracle; the last line of standard output is the JSON result, and a
// wrong answer or a leaked goroutine makes the command exit non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setups is how many times a --trace 0 run builds and warms the fleet;
// setup_s is their median.
const setups = 5

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed for every generated input and seeded component")
	seconds := fs.Float64("seconds", 10, "measurement time")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(stderr, "perfbench: %v (have %s)\n", err, strings.Join(names, ", "))
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var rep *report
	if *trace == 1 {
		// The spans go under $BENCH_OUT, which run.sh points at the
		// build directory.
		dir := os.Getenv("BENCH_OUT")
		if dir == "" {
			dir = ".bench_build"
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		rep, err = tracedRun(w, *seed, dur, filepath.Join(dir, "trace-"+w.name+".json"))
	} else {
		rep, err = plainRun(w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.print(stdout, w)
	if rep.wrong > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d wrong answers\n", w.name, rep.wrong)
		return 1
	}
	return 0
}

// result is what one measured phase observed.
type result struct {
	attempted, failed, wrong int
	// latUS holds latency samples in µs (open loop: from when the request
	// was due): every correct reply's, or, past maxSamples, a uniform
	// reservoir sample of them, so the benchmark's own memory does not
	// grow with throughput and max_rss_mb measures the fleet.
	latUS   []float64
	seen    int       // correct replies offered to latUS
	rng     uint64    // reservoir sampling state
	lagUS   []float64 // open loop: how late each request was sent
	elapsed time.Duration
}

// maxSamples bounds the latency samples one client keeps per phase.
const maxSamples = 1 << 17

func (r *result) record(lat time.Duration, o outcome) {
	r.attempted++
	switch o {
	case failed:
		r.failed++
	case wrong:
		r.wrong++
	case correct:
		r.seen++
		x := float64(lat) / 1e3
		if len(r.latUS) < maxSamples {
			r.latUS = append(r.latUS, x)
			return
		}
		r.rng = mix(r.rng + uint64(r.seen))
		if j := r.rng % uint64(r.seen); j < maxSamples {
			r.latUS[j] = x
		}
	}
}

func (r *result) merge(o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.wrong += o.wrong
	r.latUS = append(r.latUS, o.latUS...)
	r.lagUS = append(r.lagUS, o.lagUS...)
}

// completed is how many requests got a correct reply.
func (r *result) completed() int { return r.attempted - r.failed - r.wrong }

// load generates one run's requests: the workload's loop, the request
// sequence numbers, and the latency buffers the closed loop reuses from
// phase to phase. The buffers are allocated once, so the benchmark's own
// bookkeeping stays out of the per-request allocation figures.
type load struct {
	w      workload
	seqs   atomic.Uint64
	parts  []result // one per closed-loop client
	merged []float64
}

func newLoad(w workload) *load {
	l := &load{w: w, parts: make([]result, w.clients), merged: make([]float64, 0, w.clients*maxSamples)}
	for i := range l.parts {
		l.parts[i].latUS = make([]float64, 0, maxSamples)
	}
	return l
}

// drive runs the load against f until dur has passed or count requests
// were sent, whichever comes first; a zero dur or count sets no limit.
// A closed loop's result shares l's buffers until the next drive.
func (l *load) drive(f *fleet, dur time.Duration, count int) *result {
	if l.w.loop == "open" {
		n := count
		if dur > 0 {
			if m := int(dur.Seconds() * l.w.rate); n == 0 || m < n {
				n = m
			}
		}
		return openLoop(f, l.w.rate, n, &l.seqs)
	}
	return l.closedLoop(f, dur, count)
}

// closedLoop runs clients that each send their next request when the
// previous reply arrives.
func (l *load) closedLoop(f *fleet, dur time.Duration, count int) *result {
	var (
		wg     sync.WaitGroup
		issued atomic.Int64
	)
	start := time.Now()
	stop := start.Add(dur)
	for c := range l.parts {
		l.parts[c] = result{latUS: l.parts[c].latUS[:0]}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &l.parts[c]
			ctx := context.Background()
			for {
				if count > 0 && issued.Add(1) > int64(count) || dur > 0 && !time.Now().Before(stop) {
					return
				}
				s, e, o := f.call(ctx, l.seqs.Add(1))
				r.record(e.Sub(s), o)
			}
		}()
	}
	wg.Wait()
	total := &result{elapsed: time.Since(start), latUS: l.merged[:0]}
	for i := range l.parts {
		total.merge(&l.parts[i])
	}
	return total
}

// openLoop sends n requests at a fixed rate regardless of replies, and
// times each from when it was due, so a stall is charged to every
// request it delays.
func openLoop(f *fleet, rate float64, n int, seqs *atomic.Uint64) *result {
	interval := time.Duration(float64(time.Second) / rate)
	var (
		wg sync.WaitGroup
		mu sync.Mutex
		r  = &result{latUS: make([]float64, 0, n), lagUS: make([]float64, 0, n)}
	)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag := time.Since(due)
		seq := seqs.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, e, o := f.call(context.Background(), seq)
			mu.Lock()
			r.record(e.Sub(due), o)
			r.lagUS = append(r.lagUS, float64(lag)/1e3)
			mu.Unlock()
		}()
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	return r
}

// usage is a snapshot of the process's CPU time and allocation counters.
type usage struct {
	cpu            time.Duration
	mallocs, bytes uint64
	gcs            uint32
}

func readUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcs:     ms.NumGC,
	}
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measure drives one phase and returns it with the usage it cost.
func (l *load) measure(f *fleet, dur time.Duration) (*result, usage) {
	before := readUsage()
	r := l.drive(f, dur, 0)
	after := readUsage()
	return r, usage{
		cpu:     after.cpu - before.cpu,
		mallocs: after.mallocs - before.mallocs,
		bytes:   after.bytes - before.bytes,
		gcs:     after.gcs - before.gcs,
	}
}

// setUp builds the fleet and warms it to steady state, returning the
// time both took.
func setUp(l *load, t *tracer, seed uint64) (*fleet, time.Duration, error) {
	start := time.Now()
	f, err := l.w.build(t, seed, "")
	if err != nil {
		return nil, 0, fmt.Errorf("build fleet: %w", err)
	}
	if l.w.warmup > 0 {
		warm := l.drive(f, 0, l.w.warmup)
		if warm.failed+warm.wrong > 0 {
			f.close()
			return nil, 0, fmt.Errorf("warm-up: %d of %d requests failed or were wrong", warm.failed+warm.wrong, warm.attempted)
		}
	}
	return f, time.Since(start), nil
}

// tearDown closes the fleet and checks that every goroutine it started
// has ended, so workloads can run back to back.
func tearDown(f *fleet, baseline int) error {
	if err := f.close(); err != nil {
		return fmt.Errorf("teardown: %w", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			return fmt.Errorf("teardown leaked %d goroutines:\n%s",
				runtime.NumGoroutine()-baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// report is one run's output.
type report struct {
	attempted, failed, wrong int
	// notes are human-readable lines printed above the metrics: the
	// latency and generator-lag distributions behind them.
	notes   []string
	metrics []metric
}

func (r *report) add(res *result) {
	r.attempted += res.attempted
	r.failed += res.failed + res.wrong
	r.wrong += res.wrong
}

// note records a distribution's summary under name.
func (r *report) note(name string, s summary) {
	r.notes = append(r.notes, fmt.Sprintf("%-36s n=%d p50=%.1fus p%g=%.1fus", name, s.N, s.P50, s.TailQ*100, s.Tail))
}

// A shared 2-vCPU host runs other tenants' work beside the benchmark,
// and now and then slows it for a few seconds at a time. Such contention
// only ever slows a run down. A --trace 0 run therefore cuts its
// measurement into slices of the workload's slice length, measures each
// on its own, and reports every timing metric as the value that the
// least disturbed quarter of slices reach: the throughput that a quarter
// of the slices meet or beat, and the latency and CPU time per request
// that a quarter of them meet or undercut. A change in the program moves
// every slice, and so moves that value; a burst next door moves a few.
const best = 0.25

// plainRun sets the fleet up several times and measures the last set-up
// with tracing off.
func plainRun(w workload, seed uint64, dur time.Duration) (*report, error) {
	t := newTracer()
	baseline := runtime.NumGoroutine()
	l := newLoad(w)
	var (
		f     *fleet
		times []float64
	)
	for i := 0; i < setups; i++ {
		var took time.Duration
		var err error
		if f, took, err = setUp(l, t, seed); err != nil {
			return nil, err
		}
		times = append(times, took.Seconds())
		if i < setups-1 {
			if err := tearDown(f, baseline); err != nil {
				return nil, err
			}
		}
	}
	rep := &report{}
	var (
		used               usage
		thr, p50, p99, cpu []float64
	)
	n := 1
	if w.slice > 0 {
		n = max(1, int(dur/w.slice))
	}
	for k := 0; k < n; k++ {
		r, u := l.measure(f, dur/time.Duration(n))
		rep.add(r)
		lat := summarize(r.latUS)
		if lat.TailQ < 0.99 && r.wrong == 0 {
			f.close()
			return nil, fmt.Errorf("%d replies in a slice are too few for a p99", lat.N)
		}
		thr = append(thr, float64(r.completed())/r.elapsed.Seconds())
		p50 = append(p50, lat.P50)
		p99 = append(p99, quantile(r.latUS, 0.99))
		cpu = append(cpu, float64(u.cpu.Microseconds())/float64(r.attempted))
		rep.notes = append(rep.notes, fmt.Sprintf("slice %-3d %8.0f/s cpu %8.2fus  latency n=%d p50=%.1fus p%g=%.1fus",
			k+1, thr[k], cpu[k], lat.N, lat.P50, lat.TailQ*100, lat.Tail))
		if w.loop == "open" {
			rep.note(fmt.Sprintf("slice %d generator_lag", k+1), summarize(r.lagUS))
		}
		used.mallocs += u.mallocs
		used.bytes += u.bytes
	}
	if err := tearDown(f, baseline); err != nil {
		return nil, err
	}
	reqs := float64(rep.attempted)
	rep.metrics = []metric{
		{"throughput_rps", sortedQuantile(thr, 1-best), "1/s"},
		{"latency_p50_us", sortedQuantile(p50, best), "us"},
		{"latency_p99_us", sortedQuantile(p99, best), "us"},
		{"cpu_us_per_req", sortedQuantile(cpu, best), "us"},
		{"allocs_per_req", float64(used.mallocs) / reqs, "count"},
		{"alloc_bytes_per_req", float64(used.bytes) / reqs, "B"},
		{"max_rss_mb", maxRSSMB(), "MB"},
		{"setup_s", median(times), "s"},
	}
	return rep, nil
}

// sortedQuantile sorts xs and returns its nearest-rank q-quantile.
func sortedQuantile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, q)
}

// median returns the middle value of xs (the upper middle for an even
// count); it sorts xs.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// maxTraced caps the requests a traced run records, which bounds the
// trace's memory and file size on the fastest workloads.
const maxTraced = 20000

// tracedRun measures half of dur untraced and half (or maxTraced
// requests) traced, exports the traced spans to path, and derives the
// per-layer metrics from the file.
func tracedRun(w workload, seed uint64, dur time.Duration, path string) (*report, error) {
	t := newTracer()
	baseline := runtime.NumGoroutine()
	l := newLoad(w)
	f, _, err := setUp(l, t, seed)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	plain, u := l.measure(f, dur/2)
	rep.add(plain)
	// Summarize before the traced phase reuses the latency buffers.
	rep.note("untraced latency", summarize(plain.latUS))
	lag := summarize(plain.lagUS)
	if w.loop == "open" {
		rep.note("untraced generator_lag", lag)
	}
	t.on.Store(true)
	traced := l.drive(f, dur/2, maxTraced)
	rep.add(traced)
	rep.note("traced latency", summarize(traced.latUS))
	// Closing the fleet while still tracing records the attempts its
	// pooled connections hold open.
	closeErr := tearDown(f, baseline)
	t.on.Store(false)
	if closeErr != nil {
		return nil, closeErr
	}
	if err := t.export(path, w.name, seed); err != nil {
		return nil, err
	}
	tf, err := readTrace(path)
	if err != nil {
		return nil, err
	}
	rep.metrics = []metric{
		{"bench.generator_lag_p99_us", quantile(plain.lagUS, 0.99), "us"}, // sorted by summarize
		{"bench.trace_overhead_ratio", ratio(float64(traced.completed())/traced.elapsed.Seconds(),
			float64(plain.completed())/plain.elapsed.Seconds()), "ratio"},
	}
	rep.metrics = append(rep.metrics, deriveLayers(tf.Spans, w.limper)...)
	rep.metrics = append(rep.metrics, metric{"runtime.gc_cycles_per_kreq", ratio(float64(u.gcs)*1000, float64(plain.attempted)), "count"})
	return rep, nil
}

// print writes the metrics by name and unit, then the JSON result as
// the last line.
func (r *report) print(out io.Writer, w workload) {
	load := fmt.Sprintf("%d clients", w.clients)
	if w.loop == "open" {
		load = fmt.Sprintf("%.0f/s", w.rate)
	}
	fmt.Fprintf(out, "workload %s (%s loop, %s)\n", w.name, w.loop, load)
	fmt.Fprintf(out, "  %-36s %.4g\n", "error_rate", ratio(float64(r.failed), float64(r.attempted)))
	for _, n := range r.notes {
		fmt.Fprintf(out, "  %s\n", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		fmt.Fprintf(out, "  %-36s %.6g %s\n", m.Name, m.Value, m.Unit)
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.wrong == 0, r.attempted, r.failed, metrics})
	fmt.Fprintln(out, string(line))
}
