// Package fleet is the one place the distributed experiments wire their
// replica fleets. A Fleet stands up replica servers behind a
// PipeNetwork under a supervisor, watches them with a heartbeat failure
// detector, and tears everything down in order. On top of it, one Run
// function per experiment drives that experiment's workload — RunNet
// (E24 network chaos, E25 cross-process traces), RunQuorum (E27
// Byzantine 2k+1 quorum), RunControl (E28 autonomic control plane) and
// RunGray (E29 gray failure) — and returns a plain result: one Request
// row per call plus the detector, ejector and controller end state.
//
// cmd/faultsim prints and records those results; the root acceptance
// tests assert their gates on them. Both therefore exercise the same
// program, and fault-tolerance wiring lives apart from the code it
// serves.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	redundancy "github.com/softwarefaults/redundancy"
)

// Spec describes a fleet of int→int replica servers.
type Spec struct {
	// Names are the initial replicas, in join order.
	Names []string
	// Variant builds the variant replica name serves.
	Variant func(name string) redundancy.Variant[int, int]
	// Observer watches the servers, the supervisor and the detector.
	Observer redundancy.Observer
	// ServerObserver, when set, overrides Observer for one replica's
	// server (a per-process trace file, for example).
	ServerObserver func(name string) redundancy.Observer
	// Detector tunes the heartbeat failure detector; Name and Observer
	// are filled in.
	Detector redundancy.FailureDetectorConfig
	// Wrap, when set, wraps every dial path to a replica — clients and
	// heartbeats alike — so the detector sees the network the traffic
	// sees.
	Wrap func(name string, dial redundancy.DialFunc) redundancy.DialFunc
}

// Fleet is a running (or ready to run) replica fleet.
type Fleet struct {
	// Detector heartbeats every replica and keeps the evidence ledger.
	Detector *redundancy.FailureDetector

	spec       Spec
	network    *redundancy.PipeNetwork
	supervisor *redundancy.Supervisor
	cancel     context.CancelFunc
	served     chan error
	closeOnce  sync.Once
	closeErr   error

	mu      sync.Mutex
	order   []string // every replica that ever joined, in join order
	servers map[string]*redundancy.ReplicaServer[int, int]
}

// New builds the fleet: one listener and replica server per name, the
// accept loops and the detector under one supervisor. Add further
// children with Supervise, then Start.
func New(spec Spec) (*Fleet, error) {
	f := &Fleet{
		spec:    spec,
		network: redundancy.NewPipeNetwork(),
		supervisor: redundancy.NewSupervisor(redundancy.SupervisorOptions{
			Name:     "replica-fleet",
			Observer: spec.Observer,
		}),
		servers: map[string]*redundancy.ReplicaServer[int, int]{},
	}
	dcfg := spec.Detector
	dcfg.Name = "fleet-detector"
	dcfg.Observer = spec.Observer
	f.Detector = redundancy.NewFailureDetector(dcfg)
	for _, name := range spec.Names {
		if err := f.join(name, spec.Variant(name), false); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := f.supervisor.Add(f.Detector.AsChild()); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// join starts serving one replica and puts it under watch.
func (f *Fleet) join(name string, v redundancy.Variant[int, int], running bool) error {
	ln, err := f.network.Listen(name)
	if err != nil {
		return err
	}
	observer := f.spec.Observer
	if f.spec.ServerObserver != nil {
		observer = f.spec.ServerObserver(name)
	}
	srv := redundancy.NewReplicaServer(v, ln, redundancy.ReplicaServerConfig{
		Name:     name,
		Observer: observer,
	})
	f.mu.Lock()
	f.order = append(f.order, name)
	f.servers[name] = srv
	f.mu.Unlock()
	if running {
		err = f.supervisor.StartChild(srv.AsChild())
	} else {
		err = f.supervisor.Add(srv.AsChild())
	}
	if err != nil {
		return err
	}
	f.Detector.Watch(name, f.Dial(name))
	return nil
}

// Dial returns the (possibly wrapped) dial path to replica name.
func (f *Fleet) Dial(name string) redundancy.DialFunc {
	dial := f.network.Dial(name)
	if f.spec.Wrap != nil {
		dial = f.spec.Wrap(name, dial)
	}
	return dial
}

// Endpoints returns client endpoints for the named replicas, in order;
// with no names, for the initial fleet.
func (f *Fleet) Endpoints(names ...string) []redundancy.ReplicaEndpoint {
	if len(names) == 0 {
		names = f.spec.Names
	}
	eps := make([]redundancy.ReplicaEndpoint, len(names))
	for i, name := range names {
		eps[i] = redundancy.ReplicaEndpoint{Name: name, Dial: f.Dial(name)}
	}
	return eps
}

// Supervise adds a child (a controller, say) before Start.
func (f *Fleet) Supervise(child redundancy.ChildSpec) error {
	return f.supervisor.Add(child)
}

// Start runs the supervisor, and with it every server and the detector.
func (f *Fleet) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.served = make(chan error, 1)
	go func() { f.served <- f.supervisor.Serve(ctx) }()
}

// AddReplica starts a new replica in the running fleet and watches it.
// The supervisor must already serve: call it from a supervised child,
// such as a controller actuator, or after a first answered request.
func (f *Fleet) AddReplica(name string, v redundancy.Variant[int, int]) error {
	return f.join(name, v, true)
}

// Kill closes replica name's server: the process is gone.
func (f *Fleet) Kill(name string) {
	f.mu.Lock()
	srv := f.servers[name]
	f.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// Close stops the supervisor (detector and children first), then closes
// every server. It is idempotent and returns the supervisor's error.
func (f *Fleet) Close() error {
	f.closeOnce.Do(func() {
		if f.cancel != nil {
			f.cancel()
			if err := <-f.served; err != nil && !errors.Is(err, context.Canceled) {
				f.closeErr = err
			}
		}
		f.mu.Lock()
		servers := make([]*redundancy.ReplicaServer[int, int], 0, len(f.servers))
		for _, s := range f.servers {
			servers = append(servers, s)
		}
		f.mu.Unlock()
		for _, s := range servers {
			s.Close()
		}
	})
	return f.closeErr
}

// Replica is one watched replica's detector verdict and evidence ledger.
type Replica struct {
	Name  string
	State redundancy.ReplicaState
	// Misses is heartbeat silence, Accusations the vote-disagreement
	// reports, Slowness the ejector's latency evidence.
	Misses, Accusations, Slowness int
}

// Replicas returns every replica the detector still watches, in join
// order.
func (f *Fleet) Replicas() []Replica {
	states := f.Detector.States()
	f.mu.Lock()
	order := append([]string(nil), f.order...)
	f.mu.Unlock()
	out := make([]Replica, 0, len(states))
	for _, name := range order {
		state, ok := states[name]
		if !ok {
			continue
		}
		r := Replica{Name: name, State: state}
		r.Misses, r.Accusations, r.Slowness = f.Detector.Evidence(name)
		out = append(out, r)
	}
	return out
}

// Request is one workload call's outcome.
type Request struct {
	Latency time.Duration
	// Err is the call's failure, or a wrong-answer error when a wrong
	// reply was accepted; nil means a correct answer.
	Err error
	// Wrong reports that an incorrect reply was accepted.
	Wrong bool
	// Fault is the ground-truth fault label ("" for a clean request).
	Fault string
	// Detected reports that the redundancy machinery caught a fault on
	// this request (a quorum outvoting a lie).
	Detected bool
	// Actions counts controller actions that landed while in flight.
	Actions int
}

// Workload is the per-request record every scenario result carries.
type Workload struct {
	Requests []Request
	// Elapsed is the wall-clock length of the workload.
	Elapsed time.Duration
}

// Served counts correctly answered requests.
func (w Workload) Served() int {
	n := 0
	for _, r := range w.Requests {
		if r.Err == nil {
			n++
		}
	}
	return n
}

// WrongAnswers counts accepted wrong answers.
func (w Workload) WrongAnswers() int {
	n := 0
	for _, r := range w.Requests {
		if r.Wrong {
			n++
		}
	}
	return n
}

// Availability is the served fraction (0 with no requests).
func (w Workload) Availability() float64 {
	return float64(w.Served()) / float64(max(len(w.Requests), 1))
}

// Percentile returns the pct-th percentile request latency.
func (w Workload) Percentile(pct int) time.Duration {
	lats := make([]time.Duration, len(w.Requests))
	for i, r := range w.Requests {
		lats[i] = r.Latency
	}
	return percentile(lats, pct)
}

func percentile(lats []time.Duration, pct int) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)*pct/100]
}

// check turns a reply to input x into a Request outcome, given that a
// correct replica answers 2x.
func check(x, got int, err error, latency time.Duration) Request {
	r := Request{Latency: latency, Err: err}
	if err == nil && got != 2*x {
		r.Wrong = true
		r.Err = fmt.Errorf("wrong answer: got %d want %d", got, 2*x)
	}
	return r
}

// double is the correct replica behaviour every scenario serves.
func double(name string) redundancy.Variant[int, int] {
	return redundancy.NewVariant(name, func(_ context.Context, x int) (int, error) {
		return 2 * x, nil
	})
}

// replicaNames returns r1..rn.
func replicaNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("r%d", i+1)
	}
	return names
}
