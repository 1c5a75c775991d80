package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/softwarefaults/redundancy"
)

// workload is one named traffic mix against one fleet.
type workload struct {
	name string
	why  string
	// loop is "closed" (clients each wait for their reply) or "open"
	// (requests are sent on a fixed schedule).
	loop    string
	clients int     // closed loop: concurrent clients
	rate    float64 // open loop: requests per second
	warmup  int     // requests sent during set-up, before measuring
	// slice is how long each measured slice of a --trace 0 run lasts:
	// long enough for at least 1000 replies, so each slice has its p99.
	slice time.Duration
	// limper names the replica injected as fail-slow, if any.
	limper string
	// build starts the fleet. liar, when not empty, names a replica to
	// replace with an always-lying ByzantineAdversary; the oracle tests
	// use it, the benchmark never does.
	build func(t *tracer, seed uint64, liar string) (*fleet, error)
}

// outcome classifies one request against the oracle.
type outcome int

const (
	correct outcome = iota
	failed
	wrong
)

// fleet is a running system plus the client call that checks each reply.
type fleet struct {
	// call sends request seq and judges the reply; start and end bound
	// the executor call alone.
	call  func(ctx context.Context, seq uint64) (start, end time.Time, o outcome)
	close func() error
}

// workloads are the traffic mixes the benchmark can run. BENCHMARK.json
// lists gray-open-pipe and nvp-local, whose time goes mostly to replica
// and version work of a fixed number of CPU rounds: on a shared 2-vCPU
// host their figures repeat within a few percent from run to run. The
// two closed loops whose time goes mostly to the wire, hedged-pipe-int
// and quorum-tcp-4k, stay runnable by name, but the same host moves
// their throughput and latency by a fifth to a third from one minute to
// the next, more than any bound a regression check could use.
var workloads = []workload{
	{
		name:    "hedged-pipe-int",
		why:     "nearly all cost is the wire: gob codec, CRC frame, pool, pipe hop, server dispatch; pattern, vote and routing do almost nothing",
		loop:    "closed",
		clients: runtime.NumCPU(),
		warmup:  2000,
		slice:   time.Second,
		build:   buildHedgedPipe,
	},
	{
		name:    "quorum-tcp-4k",
		why:     "fan-out to every replica, vote, straggler cancellation, real sockets and a 4 KB payload through the same codec",
		loop:    "closed",
		clients: runtime.NumCPU(),
		warmup:  1000,
		slice:   time.Second,
		build:   buildQuorumTCP,
	},
	{
		name:   "gray-open-pipe",
		why:    "routing, ejection, hedging and timers set the tail around a x20 fail-slow replica; the wire is a small share",
		loop:   "open",
		rate:   400,
		warmup: 400,
		slice:  2500 * time.Millisecond,
		limper: "r1",
		build:  buildGrayPipe,
	},
	{
		name: "nvp-local",
		why:  "in-process N-version majority over versions doing about 20 us of CPU work each: the pattern and vote layers, under 3% of every wire workload, carry the overhead",
		loop: "closed",
		// Each version does real work, as a version would. With versions
		// that only compute 2x+1, the request is a few microseconds of
		// goroutine hand-offs, and its throughput and latency follow how
		// busy the host is: on a shared 2-vCPU host they drift by a
		// fifth to a third from one minute to the next.
		clients: runtime.NumCPU(),
		warmup:  5000,
		slice:   time.Second,
		build:   buildNVPLocal,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// replicaNames are the fleet members of every wire workload.
var replicaNames = []string{"r0", "r1", "r2"}

// callTimeout bounds one attempt; it exceeds requestBudget so that the
// request deadline, not the attempt timeout, reaches the connection.
const callTimeout = 2 * requestBudget

// newCall returns the client call of a fleet: it sends the seeded input
// for seq through exec and checks the reply against want. Wire requests
// carry a deadline, as a networked client's would.
func newCall[I any, O comparable](t *tracer, exec redundancy.Executor[I, O], input func(uint64) I, want func(I) O, wire bool) func(context.Context, uint64) (time.Time, time.Time, outcome) {
	return func(ctx context.Context, seq uint64) (time.Time, time.Time, outcome) {
		in := input(seq)
		var d time.Time
		if wire {
			d = t.deadline(time.Now(), seq)
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, d)
			defer cancel()
		}
		start := time.Now()
		out, err := exec.Execute(ctx, in)
		end := time.Now()
		if t.on.Load() {
			t.add(span{Req: seq, Layer: layerPattern, Op: opExecute, Start: t.at(start), End: t.at(end)})
			if wire {
				t.release(d)
			}
		}
		switch {
		case err != nil:
			return start, end, failed
		case out != want(in):
			return start, end, wrong
		}
		return start, end, correct
	}
}

// servers runs replica servers until closed.
type servers struct {
	list []interface{ Close() error }
	wg   sync.WaitGroup
}

// serve exposes v as replica name on ln, traced at both transport and
// replica boundaries.
func serve[I, O any](s *servers, t *tracer, v redundancy.Variant[I, O], ln net.Listener, id func(I) uint64) {
	name := v.Name()
	srv := redundancy.NewReplicaServer[I, O](
		&tracedVariant[I, O]{Variant: v, t: t, layer: layerReplica, op: opServe, id: id},
		&tracedListener{Listener: ln, t: t, ep: name},
		redundancy.ReplicaServerConfig{Name: name})
	s.list = append(s.list, srv)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		srv.Serve(context.Background())
	}()
}

func (s *servers) close() error {
	var errs []error
	for _, srv := range s.list {
		errs = append(errs, srv.Close())
	}
	s.wg.Wait()
	return errors.Join(errs...)
}

// pipeFleet serves one replica per name on a fresh PipeNetwork and
// returns their traced endpoints.
func pipeFleet[I, O any](s *servers, t *tracer, replicas []redundancy.Variant[I, O], id func(I) uint64) ([]redundancy.ReplicaEndpoint, error) {
	pn := redundancy.NewPipeNetwork()
	var eps []redundancy.ReplicaEndpoint
	for _, v := range replicas {
		ln, err := pn.Listen(v.Name())
		if err != nil {
			return nil, err
		}
		serve(s, t, v, ln, id)
		eps = append(eps, redundancy.ReplicaEndpoint{Name: v.Name(), Dial: t.dial(v.Name(), pn.Dial(v.Name()))})
	}
	return eps, nil
}

// intReplicas builds one integer replica per name; liar is replaced by
// an always-lying adversary.
func intReplicas(seed uint64, liar string, serve func(ctx context.Context, x int64) (int64, error)) []redundancy.Variant[int64, int64] {
	var out []redundancy.Variant[int64, int64]
	for _, name := range replicaNames {
		v := redundancy.NewVariant(name, serve)
		if name == liar {
			v = &redundancy.ByzantineAdversary[int64, int64]{
				Base: v, Strategy: redundancy.AdversaryAlways, Seed: seed,
				Lie: func(_ int64, correct int64) int64 { return correct + 2 },
				Key: func(x int64) uint64 { return uint64(x) },
			}
		}
		out = append(out, v)
	}
	return out
}

func serveInt(_ context.Context, x int64) (int64, error) { return twoXPlusOne(x), nil }

// intReplyID maps an integer reply back to its request.
func intReplyID(out int64) (uint64, bool) { return intSeq(out >> 1), true }

// replicaClient is a RemoteVariant or a QuorumVariant.
type replicaClient[I, O any] interface {
	redundancy.Variant[I, O]
	Close() error
}

// singleFleet runs client through NewSingle, traced as the dist.client
// layer, and on teardown closes client and then the servers.
func singleFleet[I any, O comparable](t *tracer, s *servers, client replicaClient[I, O], id func(I) uint64, input func(uint64) I, want func(I) O) (*fleet, error) {
	exec, err := redundancy.NewSingle[I, O](&tracedVariant[I, O]{Variant: client, t: t, layer: layerClient, op: opCall, id: id})
	if err != nil {
		client.Close()
		s.close()
		return nil, err
	}
	return &fleet{
		call:  newCall(t, exec, input, want, true),
		close: func() error { return errors.Join(client.Close(), s.close()) },
	}, nil
}

// remoteFleet serves integer replicas on a fresh PipeNetwork behind one
// RemoteVariant.
func remoteFleet(t *tracer, seed uint64, replicas []redundancy.Variant[int64, int64], cfg redundancy.RemoteConfig) (*fleet, error) {
	s := &servers{}
	eps, err := pipeFleet(s, t, replicas, intSeq)
	if err != nil {
		s.close()
		return nil, err
	}
	cfg.CallTimeout = callTimeout
	remote, err := redundancy.NewRemoteVariant[int64, int64]("svc", cfg, eps...)
	if err != nil {
		s.close()
		return nil, err
	}
	input := func(seq uint64) int64 { return intInput(seed, seq) }
	return singleFleet(t, s, remote, intSeq, input, twoXPlusOne)
}

func buildHedgedPipe(t *tracer, seed uint64, liar string) (*fleet, error) {
	// The hedge sits far above the healthy round trip, so it almost
	// never fires: this workload measures the wire, not the hedge.
	return remoteFleet(t, seed, intReplicas(seed, liar, serveInt), redundancy.RemoteConfig{HedgeAfter: 50 * time.Millisecond})
}

func buildQuorumTCP(t *tracer, seed uint64, liar string) (*fleet, error) {
	recs := newRecords(seed)
	s := &servers{}
	var eps []redundancy.ReplicaEndpoint
	for _, name := range replicaNames {
		var v redundancy.Variant[Record, Digest] = redundancy.NewVariant(name, func(_ context.Context, r Record) (Digest, error) { return digest(r), nil })
		if name == liar {
			v = &redundancy.ByzantineAdversary[Record, Digest]{
				Base: v, Strategy: redundancy.AdversaryAlways, Seed: seed,
				Lie: func(_ Record, correct Digest) Digest { correct[0] ^= 0xff; return correct },
				Key: func(r Record) uint64 { return r.ID },
			}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		serve(s, t, v, ln, func(r Record) uint64 { return r.ID })
		eps = append(eps, redundancy.ReplicaEndpoint{Name: name, Dial: t.dial(name, noLinger(redundancy.TCPDialer(ln.Addr().String())))})
	}
	// The vote sees digests, not records: while tracing, each request's
	// digest is registered so the vote span can name its request.
	var ids sync.Map
	replyID := func(d Digest) (uint64, bool) {
		v, ok := ids.Load(d)
		if !ok {
			return 0, false
		}
		return v.(uint64), true
	}
	eq := redundancy.EqualOf[Digest]()
	adj := &tracedAdjudicator[Digest]{Adjudicator: redundancy.Majority(eq), t: t, id: replyID}
	q, err := redundancy.NewQuorumVariant[Record, Digest]("svc",
		redundancy.QuorumConfig{CallTimeout: callTimeout, Faults: 1}, adj, eq, eps...)
	if err != nil {
		s.close()
		return nil, err
	}
	input := func(seq uint64) Record {
		r := recs.input(seq)
		if t.on.Load() {
			ids.Store(digest(r), seq)
		}
		return r
	}
	return singleFleet(t, s, q, func(r Record) uint64 { return r.ID }, input, digest)
}

// noLinger makes every connection dial opens reset on close instead of
// lingering in TIME_WAIT. The quorum discards a connection on nearly
// every request; with lingering sockets one run leaves tens of thousands
// behind, and the kernel's search for a free port then slows the dials
// of every run after it.
func noLinger(dial redundancy.DialFunc) redundancy.DialFunc {
	return func(ctx context.Context) (net.Conn, error) {
		c, err := dial(ctx)
		if err != nil {
			return nil, err
		}
		if tc, ok := c.(*net.TCPConn); ok {
			if err := tc.SetLinger(0); err != nil {
				c.Close()
				return nil, err
			}
		}
		return c, nil
	}
}

// grayService is the healthy service time of a gray-open-pipe replica.
const grayService = 500 * time.Microsecond

// spinRounds is the number of mix rounds that take about grayService on
// a 2-vCPU x86-64 host. The work is CPU, not a sleep, because a short
// timer fires up to several milliseconds late on a loaded host.
const spinRounds = 75_000

// spinSink keeps the compiler from discarding the spin work.
var spinSink atomic.Uint64

func serveSpin(_ context.Context, x int64) (int64, error) {
	spin(x, spinRounds)
	return twoXPlusOne(x), nil
}

// spin does rounds of deterministic CPU work seeded by x.
func spin(x int64, rounds int) {
	h := uint64(x)
	for i := 0; i < rounds; i++ {
		h = mix(h)
	}
	spinSink.Store(h)
}

// versionRounds is the CPU work of one nvp-local version, about 20 µs
// on the same host.
const versionRounds = 3000

func buildGrayPipe(t *tracer, seed uint64, liar string) (*fleet, error) {
	replicas := intReplicas(seed, liar, serveSpin)
	// r1 limps at a constant x20 for the whole run: no gate and no
	// controller, so the fleet stays in one steady state.
	replicas[1] = &redundancy.FailSlowVariant[int64, int64]{
		Base: replicas[1], Profile: redundancy.SlowConstant, Factor: 20,
		BaseLatency: grayService, Seed: derive(seed, saltFailSlow),
	}
	return remoteFleet(t, seed, replicas, redundancy.RemoteConfig{
		HedgeAfter: 10 * grayService,
		MaxHedges:  1,
		Ejector:    redundancy.NewLatencyEjector(redundancy.LatencyEjectorConfig{Seed: derive(seed, saltEjector)}),
	})
}

func buildNVPLocal(t *tracer, seed uint64, liar string) (*fleet, error) {
	impls := map[string]func(context.Context, int64) (int64, error){
		"add":   func(_ context.Context, x int64) (int64, error) { spin(x, versionRounds); return x + x + 1, nil },
		"shift": func(_ context.Context, x int64) (int64, error) { spin(x, versionRounds); return x<<1 | 1, nil },
		"mul":   func(_ context.Context, x int64) (int64, error) { spin(x, versionRounds); return 2*x + 1, nil },
	}
	var vs []redundancy.Variant[int64, int64]
	for _, name := range []string{"add", "shift", "mul"} {
		v := redundancy.NewVariant(name, impls[name])
		vs = append(vs, &tracedVariant[int64, int64]{Variant: v, t: t, layer: layerReplica, op: opExecute, id: intSeq})
	}
	eq := redundancy.EqualOf[int64]()
	exec, err := redundancy.NewParallelEvaluation[int64, int64](vs,
		&tracedAdjudicator[int64]{Adjudicator: redundancy.Majority(eq), t: t, id: intReplyID})
	if err != nil {
		return nil, err
	}
	input := func(seq uint64) int64 { return intInput(seed, seq) }
	return &fleet{call: newCall(t, exec, input, twoXPlusOne, false), close: func() error { return nil }}, nil
}
