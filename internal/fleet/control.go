package fleet

// E28: a three-replica fleet that accumulates every fault shape the
// repo models — r1 ages and wears out, r2 is killed outright, r3 trips
// a deterministic bohrbug — behind a failover/hedging Remote client.
// The controller either runs live (replacing the dead replica,
// rejuvenating the aging one, substituting the buggy one, retuning the
// tail knobs) or sits frozen behind its kill switch, so the two arms
// show exactly what the loop buys.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	redundancy "github.com/softwarefaults/redundancy"
)

// ControlObjective is the latency objective the tail policy holds the
// client's p99 against.
const ControlObjective = 20 * time.Millisecond

// ControlTiming holds E28's wall-clock constants.
type ControlTiming struct {
	// Heartbeat, HeartbeatTimeout and DeadAfter tune the detector;
	// DeadAfter is also the replacement policy's dead threshold.
	Heartbeat, HeartbeatTimeout time.Duration
	DeadAfter                   int
	// BreakerOpenFor is how long a tripped breaker stays open.
	BreakerOpenFor time.Duration
	// FastWindow and SlowWindow are the SLO burn-rate windows.
	FastWindow, SlowWindow time.Duration
	// Tick is the controller period; RateWindow its rate-limit window.
	Tick, RateWindow time.Duration
}

// DefaultControlTiming paces a run of about 1500 requests.
var DefaultControlTiming = ControlTiming{
	Heartbeat:        100 * time.Millisecond,
	HeartbeatTimeout: 80 * time.Millisecond,
	DeadAfter:        6,
	BreakerOpenFor:   250 * time.Millisecond,
	FastWindow:       500 * time.Millisecond,
	SlowWindow:       3 * time.Second,
	Tick:             100 * time.Millisecond,
	RateWindow:       2 * time.Second,
}

// ControlConfig selects one control-plane run.
type ControlConfig struct {
	Seed     uint64
	Requests int
	// On closes the loop; off freezes the controller.
	On bool
	// Timing defaults to DefaultControlTiming.
	Timing *ControlTiming
	// Observer additionally watches the client and the fleet.
	Observer redundancy.Observer
}

// ControlSchedule is the fault schedule, derived from the run length
// in request numbers: r1 wears out every AgingLimit serves, r2 is
// killed at KillAt, r3's code path is broken for inputs from BugAt on.
type ControlSchedule struct {
	AgingLimit, KillAt, BugAt int
}

// ControlResult is what one control-plane run measured. Requests from
// the bohrbug on carry the Fault "bohr".
type ControlResult struct {
	Workload
	Schedule ControlSchedule
	Names    []string
	// Actions counts performed controller actions by kind.
	Actions    map[string]int
	Suppressed int64
	// MTTR is the dead replica's kill-to-replacement time (0: none).
	MTTR       time.Duration
	HedgeAfter time.Duration
	Deposit    float64
	Endpoints  []string
	Replicas   []Replica
	Observed   []redundancy.ExecutorObservation
	SLO        []redundancy.SLOStatus
}

// simProc simulates one replica's serving process. Aging: after limit
// serves since the last reinitialization every call fails, and
// rejuvenation cures it. Bohrbug: inputs from bugAt on take a broken
// code path that only a substitute implementation can serve.
type simProc struct {
	name  string
	limit int64 // serves before wear-out; 0 = never ages
	bugAt int64 // first input the buggy code path rejects; 0 = no bug

	served     atomic.Int64 // serves since the last rejuvenation
	substitute atomic.Pointer[redundancy.ServiceProxy]
}

func (p *simProc) execute(ctx context.Context, x int) (int, error) {
	if p.bugAt > 0 && int64(x) >= p.bugAt {
		if proxy := p.substitute.Load(); proxy != nil {
			return proxy.Invoke(ctx, "double", x)
		}
		return 0, fmt.Errorf("%s: deterministic fault on input %d", p.name, x)
	}
	if p.limit > 0 && p.served.Load() >= p.limit {
		return 0, fmt.Errorf("%s: worn out after %d serves", p.name, p.limit)
	}
	p.served.Add(1)
	return 2 * x, nil
}

// RunControl stands up the E28 fleet and drives its workload.
func RunControl(cfg ControlConfig) (*ControlResult, error) {
	timing := DefaultControlTiming
	if cfg.Timing != nil {
		timing = *cfg.Timing
	}
	sched := ControlSchedule{AgingLimit: cfg.Requests / 5, KillAt: cfg.Requests / 3, BugAt: 3 * cfg.Requests / 5}
	collector := redundancy.NewCollector()
	engine := redundancy.NewHealthEngine(redundancy.HealthConfig{})
	slo := redundancy.NewSLOTracker(redundancy.SLOConfig{
		Default:    redundancy.SLObjective{Target: 0.999, Latency: ControlObjective},
		FastWindow: timing.FastWindow,
		SlowWindow: timing.SlowWindow,
	})
	observer := redundancy.CombineObservers(collector, cfg.Observer, engine, slo)

	var mu sync.Mutex
	procs := map[string]*simProc{
		"r1": {name: "r1", limit: int64(sched.AgingLimit)},
		"r2": {name: "r2"},
		"r3": {name: "r3", bugAt: int64(sched.BugAt)},
	}
	res := &ControlResult{Schedule: sched, Names: replicaNames(3)}
	f, err := New(Spec{
		Names: res.Names,
		Variant: func(name string) redundancy.Variant[int, int] {
			return redundancy.NewVariant("proc", procs[name].execute)
		},
		Observer: observer,
		Detector: redundancy.FailureDetectorConfig{
			Interval:     timing.Heartbeat,
			Timeout:      timing.HeartbeatTimeout,
			SuspectAfter: 2,
			DeadAfter:    timing.DeadAfter,
		},
	})
	if err != nil {
		return nil, err
	}
	defer f.Close()

	breakers := redundancy.NewBreakers(redundancy.BreakerConfig{
		ConsecutiveFailures: 8,
		OpenFor:             timing.BreakerOpenFor,
	})
	remote, err := redundancy.NewRemoteVariant[int, int]("fleet", redundancy.RemoteConfig{
		CallTimeout: 150 * time.Millisecond,
		HedgeAfter:  25 * time.Millisecond,
		MaxHedges:   2,
		Breakers:    breakers,
		Detector:    f.Detector,
		Observer:    observer,
	}, f.Endpoints()...)
	if err != nil {
		return nil, err
	}
	defer remote.Close()
	budget := redundancy.NewRetryBudget(50, 0.1)
	client, err := redundancy.NewSingle[int, int](remote,
		redundancy.WithObserver(observer),
		redundancy.WithRetryPolicy(redundancy.RetryPolicy{
			MaxAttempts: 2,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  5 * time.Millisecond,
			Jitter:      0.5,
			Seed:        cfg.Seed,
			Budget:      budget,
		}))
	if err != nil {
		return nil, err
	}

	// The substitute provider the bohrbug escalation draws from: an
	// alternate implementation of the same interface.
	registry := redundancy.NewServiceRegistry()
	calcSig := redundancy.ServiceSignature{Name: "calc", Ops: []string{"double"}}
	substituteSvc, err := redundancy.NewSimService("calc-v2", calcSig,
		map[string]func(int) (int, error){"double": func(x int) (int, error) { return 2 * x, nil }})
	if err != nil {
		return nil, err
	}
	if err := registry.Register(substituteSvc, nil); err != nil {
		return nil, err
	}

	// probeRepair verifies a repair by sending the current input straight
	// at the repaired replica. Left to the load balancer, a freshly
	// rejuvenated replica may see no traffic for a long stretch, so the
	// relapse evidence the bohrbug escalation rides on would wait on
	// routing luck. The outcome reaches the health engine through the
	// replica server's observer like any other request.
	var current atomic.Int64 // the request in flight
	probeRepair := func(ctx context.Context, name string) {
		pr, err := redundancy.NewRemoteVariant[int, int](name+"-probe", redundancy.RemoteConfig{
			CallTimeout: 150 * time.Millisecond,
		}, f.Endpoints(name)...)
		if err != nil {
			return
		}
		defer pr.Close()
		_, _ = pr.Execute(ctx, int(current.Load())) // failure is evidence, not an error
	}
	// procFor resolves a diagnosis target ("replica:<name>/<variant>").
	procFor := func(target string) (*simProc, string, error) {
		executor, _, _ := strings.Cut(target, "/")
		name := strings.TrimPrefix(executor, "replica:")
		mu.Lock()
		defer mu.Unlock()
		if proc := procs[name]; proc != nil {
			return proc, name, nil
		}
		return nil, name, fmt.Errorf("control: unknown replica %q in target %q", name, target)
	}

	var killedAt time.Time
	next := 4 // next replacement replica index
	actuators := map[string]redundancy.ControlActuator{
		redundancy.ControlActionReplace: func(_ context.Context, a redundancy.ControlAction) (redundancy.ControlAction, error) {
			mu.Lock()
			name := fmt.Sprintf("r%d", next)
			next++
			// The replacement runs the same software: fresh environment,
			// same aging.
			proc := &simProc{name: name, limit: int64(sched.AgingLimit)}
			procs[name] = proc
			mu.Unlock()
			if err := f.AddReplica(name, redundancy.NewVariant("proc", proc.execute)); err != nil {
				return a, err
			}
			// Splice before retiring: the replacement is live before the
			// dead endpoint and its stragglers are cut loose.
			if err := remote.AddEndpoint(f.Endpoints(name)[0]); err != nil {
				return a, err
			}
			if err := remote.RemoveEndpoint(a.Target); err != nil {
				return a, err
			}
			f.Detector.Forget(a.Target)
			mu.Lock()
			if a.Target == "r2" && !killedAt.IsZero() && res.MTTR == 0 {
				res.MTTR = time.Since(killedAt)
			}
			mu.Unlock()
			a.New = name
			return a, nil
		},
		redundancy.ControlActionHedgeTune: func(_ context.Context, a redundancy.ControlAction) (redundancy.ControlAction, error) {
			d, err := a.HedgeTarget()
			if err != nil {
				return a, err
			}
			remote.SetHedgeAfter(d)
			return a, nil
		},
		redundancy.ControlActionDepositTune: func(_ context.Context, a redundancy.ControlAction) (redundancy.ControlAction, error) {
			rate, err := a.DepositTarget()
			if err != nil {
				return a, err
			}
			budget.SetDepositPerRequest(rate)
			return a, nil
		},
		redundancy.ControlActionRejuvenate: func(ctx context.Context, a redundancy.ControlAction) (redundancy.ControlAction, error) {
			proc, name, err := procFor(a.Target)
			if err != nil {
				return a, err
			}
			proc.served.Store(0) // the aging clock resets; the code stays
			// The rollback event closes the variant's health epoch: if the
			// failure run ends here, the engine books a rejuvenation
			// recovery — the evidence that earns an aging diagnosis.
			observer.Rollback("replica:"+name, 0)
			// The replica is fresh, so evidence against its worn-out past
			// should not keep it dark for another OpenFor.
			breakers.Reset(name)
			probeRepair(ctx, name)
			return a, nil
		},
		redundancy.ControlActionSubstitute: func(_ context.Context, a redundancy.ControlAction) (redundancy.ControlAction, error) {
			proc, name, err := procFor(a.Target)
			if err != nil {
				return a, err
			}
			proxy, err := redundancy.NewServiceProxy(registry, calcSig, 0.5)
			if err != nil {
				return a, err
			}
			proc.substitute.Store(proxy)
			breakers.Reset(name)
			a.New = proxy.Bound()
			return a, nil
		},
	}
	actionsAt := countActions(actuators, &current)

	// The diagnosis policy watches the replica executors only: the
	// current fleet and any replacement the controller may spawn.
	watched := make([]string, 0, 9)
	for i := 1; i <= 9; i++ {
		watched = append(watched, fmt.Sprintf("replica:r%d", i))
	}
	controller := redundancy.NewController(redundancy.ControllerConfig{
		Name:              "controller",
		Tick:              timing.Tick,
		MaxActionsPerKind: 4,
		RateWindow:        timing.RateWindow,
		Sources: redundancy.ControlSources{
			Observed: collector.Snapshot,
			SLO:      slo.Snapshot,
			Detector: f.Detector.States,
			Evidence: f.Detector.Evidence,
			Health:   engine.Snapshot,
			FastBurn: slo.FastBurn,
			P99: func(executor string) time.Duration {
				if h := collector.ExecutorLatency(executor); h != nil {
					return h.P99()
				}
				return 0
			},
		},
		Policies: []redundancy.ControlPolicy{
			&redundancy.ReplacementPolicy{DeadAfter: timing.DeadAfter, AccuseDeadAfter: 8},
			redundancy.NewTailPolicy(redundancy.TailPolicyConfig{
				Client:     "fleet",
				Objective:  ControlObjective,
				MinHedge:   5 * time.Millisecond,
				MaxHedge:   50 * time.Millisecond,
				HedgeAfter: remote.HedgeAfter,
				Deposit:    budget.DepositPerRequest,
			}),
			redundancy.NewDiagnosisPolicy(redundancy.DiagnosisPolicyConfig{
				FailStreakThreshold:     8,
				RelapseLimit:            1,
				RejuvenateCooldownTicks: 5,
				Executors:               watched,
			}),
		},
		Actuators: actuators,
		Observer:  observer,
	})
	controller.SetEnabled(cfg.On) // the static arm runs the same loop, frozen
	if err := f.Supervise(controller.AsChild()); err != nil {
		return nil, err
	}
	f.Start()

	// The workload is paced so the detector and the controller act on
	// wall-clock evidence while the request counter advances.
	ctx := context.Background()
	runStart := time.Now()
	for x := 1; x <= cfg.Requests; x++ {
		current.Store(int64(x))
		if x == sched.KillAt {
			mu.Lock()
			killedAt = time.Now()
			mu.Unlock()
			f.Kill("r2")
		}
		start := time.Now()
		got, err := client.Execute(ctx, x)
		r := check(x, got, err, time.Since(start))
		if x >= sched.BugAt {
			r.Fault = "bohr"
		}
		res.Requests = append(res.Requests, r)
		time.Sleep(time.Millisecond)
	}
	res.Elapsed = time.Since(runStart)

	if err := f.Close(); err != nil {
		return nil, err
	}
	for i := range res.Requests {
		res.Requests[i].Actions = actionsAt(int64(i + 1))
	}
	res.Actions = controller.Counts()
	res.Suppressed = controller.Suppressed()
	res.HedgeAfter = remote.HedgeAfter()
	res.Deposit = budget.DepositPerRequest()
	res.Endpoints = remote.Endpoints()
	res.Replicas = f.Replicas()
	res.Observed = collector.Snapshot()
	res.SLO = slo.Snapshot()
	return res, nil
}

// countActions wraps every actuator so each performed action is booked
// against the request current holds when it lands; the returned func
// reads the count for one request.
func countActions(actuators map[string]redundancy.ControlActuator, current *atomic.Int64) func(req int64) int {
	var mu sync.Mutex
	landed := map[int64]int{}
	for kind, act := range actuators {
		actuators[kind] = func(ctx context.Context, a redundancy.ControlAction) (redundancy.ControlAction, error) {
			done, err := act(ctx, a)
			if err == nil {
				mu.Lock()
				landed[current.Load()]++
				mu.Unlock()
			}
			return done, err
		}
	}
	return func(req int64) int {
		mu.Lock()
		defer mu.Unlock()
		return landed[req]
	}
}
